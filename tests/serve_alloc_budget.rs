//! Heap-allocation budget of the serving runtime's query path: a query
//! served through `ServeRuntime::query` may allocate at most twice more than
//! the core call the worker runs, `query_with_overlay` — once for the task's
//! copy of the query text and once for the one-shot reply.
//!
//! The counting global allocator here is process-wide, so it also sees the
//! allocations the pool worker makes on its own thread. That is why this
//! file holds exactly one test: its binary runs nothing else in parallel.
//!
//! Before queries ran whole on one worker (plan on the caller, probes split
//! over four shard queues, a `Gather` rendezvous), this corpus and trace
//! counted 47.07 allocations per `ServeRuntime::query` against 22.71 per
//! `query_with_overlay`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use sponsored_search::broadmatch::{
    BroadMatchIndex, DeltaOverlay, IndexBuilder, IndexConfig, MatchType,
};
use sponsored_search::corpus::{AdCorpus, CorpusConfig, QueryGenConfig, Workload};
use sponsored_search::serve::{ServeConfig, ServeRuntime};

struct Counting;

// ORDER: SeqCst — a test statistic read only after the counted work has
// finished; the strongest order keeps the reasoning trivial.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting is one atomic add, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // ORDER: SeqCst — see ALLOCS.
        ALLOCS.fetch_add(1, SeqCst);
        // SAFETY: forwarded under the caller's `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // ORDER: SeqCst — see ALLOCS.
        ALLOCS.fetch_add(1, SeqCst);
        // SAFETY: forwarded under the caller's `alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // ORDER: SeqCst — see ALLOCS.
        ALLOCS.fetch_add(1, SeqCst);
        // SAFETY: forwarded under the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's `dealloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) any thread makes while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    // ORDER: SeqCst — see ALLOCS.
    let before = ALLOCS.load(SeqCst);
    let out = f();
    // ORDER: SeqCst — see ALLOCS.
    (out, ALLOCS.load(SeqCst) - before)
}

const ADS: usize = 20_000;
const SEED: u64 = 42;
/// Longer than the latency histograms' 4,096-sample reservoir, so the
/// measured queries no longer grow it.
const WARM_UP: usize = 5_000;

fn build(corpus: &AdCorpus, workload: &Workload) -> BroadMatchIndex {
    let mut builder = IndexBuilder::with_config(IndexConfig::default());
    for ad in corpus.ads() {
        builder.add(&ad.phrase, ad.info).unwrap();
    }
    builder.set_workload(workload.to_builder_workload());
    builder.build().unwrap()
}

#[test]
#[cfg_attr(miri, ignore)]
fn serve_query_allocates_at_most_two_more_than_the_core_query() {
    let corpus = AdCorpus::generate(CorpusConfig::benchmark(ADS, SEED));
    let workload = Workload::generate(QueryGenConfig::benchmark(ADS / 10, SEED + 1), &corpus);
    let index = Arc::new(build(&corpus, &workload));
    let overlay = DeltaOverlay::for_base(&index);
    let trace = workload.sample_trace(2_000, SEED + 2);
    let match_types = [MatchType::Broad, MatchType::Phrase, MatchType::Exact];
    let queries = (trace.len() * match_types.len()) as f64;

    let mut core = 0u64;
    for match_type in match_types {
        for query in &trace {
            let (answer, n) = allocations(|| index.query_with_overlay(&overlay, query, match_type));
            drop(answer);
            core += n;
        }
    }

    let runtime = ServeRuntime::start(
        Arc::clone(&index),
        ServeConfig {
            n_workers: 2,
            trace_sample_every: 0,
            ..ServeConfig::default()
        },
    );
    for query in trace.iter().cycle().take(WARM_UP) {
        runtime.query(query, MatchType::Broad).unwrap();
    }
    let mut served = 0u64;
    for match_type in match_types {
        for query in &trace {
            let (answer, n) = allocations(|| runtime.query(query, match_type).unwrap());
            drop(answer);
            served += n;
        }
    }

    let per_core = core as f64 / queries;
    let per_served = served as f64 / queries;
    // 47.07 per served query against 22.71 per core query before.
    eprintln!(
        "{per_served:.2} allocations per ServeRuntime::query, {per_core:.2} per query_with_overlay"
    );
    assert!(
        per_served <= per_core + 2.0,
        "{per_served:.2} allocations per served query against {per_core:.2} per core query"
    );
}
