//! Heap-allocation budgets for the two text paths every ad and every query
//! take: `IndexBuilder::add` and `BroadMatchIndex::plan_query`.
//!
//! A std-only counting global allocator counts allocations per thread, so
//! tests running in parallel do not see each other's allocations. Before the
//! borrowed-token text path and the flat builder, this corpus and trace
//! counted 16.19 allocations per `add` and 29.60 per `plan_query`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sponsored_search::broadmatch::{BroadMatchIndex, IndexBuilder, IndexConfig, MatchType};
use sponsored_search::corpus::{AdCorpus, CorpusConfig, QueryGenConfig, Workload};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread itself is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialized thread-local `Cell`,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded under the caller's `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded under the caller's `alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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

/// Allocations (including reallocations) this thread makes inside `f`.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const ADS: usize = 20_000;
const SEED: u64 = 42;

fn corpus() -> (AdCorpus, Workload) {
    let corpus = AdCorpus::generate(CorpusConfig::benchmark(ADS, SEED));
    let workload = Workload::generate(QueryGenConfig::benchmark(ADS / 10, SEED + 1), &corpus);
    (corpus, workload)
}

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
fn add_allocates_at_most_twice_per_ad_on_average() {
    let (corpus, _) = corpus();
    let mut builder = IndexBuilder::with_config(IndexConfig::default());
    let ((), n) = allocations(|| {
        for ad in corpus.ads() {
            builder.add(&ad.phrase, ad.info).unwrap();
        }
    });
    let per_add = n as f64 / ADS as f64;
    // 16.19 per add before the flat builder.
    eprintln!("{per_add:.2} allocations per add");
    assert!(per_add <= 2.0, "{per_add:.2} allocations per add");
}

#[test]
#[cfg_attr(miri, ignore)]
fn plan_query_allocates_at_most_ten_times_per_query_on_average() {
    let (corpus, workload) = corpus();
    let index = build(&corpus, &workload);
    let trace = workload.sample_trace(2_000, SEED + 2);
    let mut total = 0u64;
    let mut plans = 0u64;
    for match_type in [MatchType::Broad, MatchType::Phrase, MatchType::Exact] {
        for query in &trace {
            let (plan, n) = allocations(|| index.plan_query(query, match_type));
            drop(plan);
            total += n;
            plans += 1;
        }
    }
    let per_plan = total as f64 / plans as f64;
    // 29.60 per plan before the borrowed-token text path.
    eprintln!("{per_plan:.2} allocations per plan_query");
    assert!(per_plan <= 10.0, "{per_plan:.2} allocations per plan_query");
}
