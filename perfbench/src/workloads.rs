//! The three workloads: how each is set up, what one operation does, the
//! answer key each answer is checked against, and the traced single-thread
//! replay that splits a query into its layers.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use broadmatch::{
    BroadMatchIndex, IndexBuilder, IndexConfig, MatchHit, MatchType, OverlayCounters, QueryStats,
};
use broadmatch_corpus::{AdCorpus, CorpusConfig, GeneratedAd, QueryGenConfig, Workload};
use broadmatch_net::wire::{decode_frame, encode_frame, Opcode, QueryReply, Request, Response};
use broadmatch_net::{
    call, partition_of, Backend, BackendConfig, Router, RouterConfig, ShardState,
};
use broadmatch_rng::{Pcg32, RandomSource};
use broadmatch_serve::{ServeConfig, ServeRuntime, UpdateConfig};

use crate::load::{Kind, Lane, Outcome, Target};

/// Length of the seeded query trace; operation `i` runs trace item
/// `i % TRACE_LEN`.
const TRACE_LEN: usize = 50_000;

/// Queries replayed (single thread, traced) to split time into layers.
pub const REPLAY_QUERIES: usize = 2_000;

/// Queries replayed against a from-scratch rebuild after churn.
const CHURN_CHECK_QUERIES: usize = 2_000;

/// Runtime configuration: only the worker count departs from the defaults.
fn serve_config(n_workers: usize) -> ServeConfig {
    ServeConfig {
        n_workers,
        ..ServeConfig::default()
    }
}

/// The seeded query sequence: distinct texts and, per position, which text
/// runs under which match type (mostly Broad, some Phrase and Exact).
pub struct Trace {
    texts: Vec<String>,
    items: Vec<(u32, MatchType)>,
}

impl Trace {
    fn generate(workload: &Workload, seed: u64) -> Trace {
        let texts: Vec<String> = workload.entries().iter().map(|(t, _)| t.clone()).collect();
        let position: HashMap<&str, u32> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| (t.as_str(), i as u32))
            .collect();
        let mut rng = Pcg32::seed_from_u64(seed ^ 0x4D41_5443);
        let items = workload
            .sample_trace(TRACE_LEN, seed ^ 0x5E57)
            .into_iter()
            .map(|t| {
                let u = rng.gen_f64();
                let mt = if u < 0.8 {
                    MatchType::Broad
                } else if u < 0.9 {
                    MatchType::Phrase
                } else {
                    MatchType::Exact
                };
                (position[t], mt)
            })
            .collect();
        Trace { texts, items }
    }

    /// Trace position of operation `i`.
    fn pos(&self, i: u64) -> usize {
        (i % self.items.len() as u64) as usize
    }

    fn at(&self, pos: usize) -> (&str, MatchType) {
        let (t, mt) = self.items[pos];
        (&self.texts[t as usize], mt)
    }

    /// One answer per distinct (text, match type) in the trace, computed by
    /// `answer` and spread back over the positions.
    fn answer_key(&self, mut answer: impl FnMut(&str, MatchType) -> u64) -> Vec<u64> {
        let mut seen: HashMap<(u32, u8), u64> = HashMap::new();
        self.items
            .iter()
            .map(|&(t, mt)| {
                *seen
                    .entry((t, mt as u8))
                    .or_insert_with(|| answer(&self.texts[t as usize], mt))
            })
            .collect()
    }
}

/// Fingerprint of an ordered hit list (ad ids and metadata, in order).
fn ordered_fp(hits: &[MatchHit]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for hit in hits {
        (
            hit.ad.raw(),
            hit.info.listing_id,
            hit.info.campaign_id,
            hit.info.bid_micros,
        )
            .hash(&mut h);
    }
    hits.len().hash(&mut h);
    h.finish()
}

/// Fingerprint of the multiset of listing ids in a hit list.
fn listing_fp(hits: &[MatchHit]) -> u64 {
    let mut ids: Vec<u64> = hits.iter().map(|h| h.info.listing_id).collect();
    ids.sort_unstable();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ids.hash(&mut h);
    h.finish()
}

/// Seed of every workload's corpus and distinct-query set. The corpus is
/// the fixed database a workload serves; `--seed` varies the traffic (trace,
/// match types, arrivals, write order), so set-up time and memory compare
/// across seeds.
const CORPUS_SEED: u64 = 42;

fn generate(n_ads: usize) -> (AdCorpus, Workload) {
    let corpus = AdCorpus::generate(CorpusConfig::benchmark(n_ads, CORPUS_SEED));
    let workload = Workload::generate(
        QueryGenConfig::benchmark(n_ads / 10, CORPUS_SEED + 1),
        &corpus,
    );
    (corpus, workload)
}

fn build_index<'a>(
    ads: impl IntoIterator<Item = &'a GeneratedAd>,
    workload: Option<&Workload>,
) -> BroadMatchIndex {
    let mut builder = IndexBuilder::with_config(IndexConfig::default());
    for ad in ads {
        builder
            .add(&ad.phrase, ad.info)
            .expect("generated phrases are valid");
    }
    if let Some(w) = workload {
        builder.set_workload(w.to_builder_workload());
    }
    builder.build().expect("default config is valid")
}

fn index_bytes(index: &BroadMatchIndex) -> usize {
    let s = index.stats();
    s.arena_bytes + s.directory_bytes
}

/// What set-up built, for the core layer's build and size metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Built {
    /// Seconds spent in `IndexBuilder::build` (all shards).
    pub build_s: f64,
    /// Arena plus directory bytes over indexed ads (all shards).
    pub index_bytes: usize,
    pub ads: usize,
}

/// Per-query counts from `QueryStats`, summed over the replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounts {
    pub queries: u64,
    pub probes: u64,
    pub probe_hits: u64,
    pub nodes: u64,
    pub scan_bytes: u64,
    pub entries: u64,
    pub hits: u64,
    pub truncated: u64,
}

impl CoreCounts {
    fn add(&mut self, s: &QueryStats) {
        self.queries += 1;
        self.probes += s.probes as u64;
        self.probe_hits += s.probe_hits as u64;
        self.nodes += s.nodes_visited as u64;
        self.scan_bytes += s.scanned_bytes as u64;
        self.entries += s.entries_examined as u64;
        self.hits += s.hits as u64;
        self.truncated += u64::from(s.truncated);
    }
}

/// Router-level timings of the replay, from `Router::query` and each leg's
/// `ShardStatus`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterTimes {
    pub queries: u64,
    pub legs: u64,
    pub leg_us: f64,
    pub self_us: f64,
    pub straggler_us: f64,
}

/// Everything the traced replay measured besides its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub core: CoreCounts,
    pub router: RouterTimes,
    /// Idle `Health` round trip over two (cluster only).
    pub hop_us: f64,
    pub reply_bytes: u64,
    pub replies: u64,
    /// Layer answers that differed from the core answer.
    pub wrong: u64,
}

/// Tallies of router legs over the load phases (ORDER: Relaxed — counts
/// read after the generator threads are joined).
#[derive(Debug, Default)]
pub struct LegTally {
    pub legs: AtomicU64,
    pub hedged: AtomicU64,
    pub timed_out: AtomicU64,
    pub overloaded: AtomicU64,
}

/// Workload-specific figures read after the load phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct After {
    pub compactions: u64,
    pub compaction_ms: f64,
    pub legs: u64,
    pub hedged: u64,
    pub timed_out: u64,
    pub overloaded: u64,
}

/// A workload the benchmark can set up, load, replay and check.
pub trait Bench: Target + Sized {
    /// Generate the corpus and start serving; returns once the first query
    /// has been answered. This is what `setup_s` times.
    fn setup() -> (Self, Built);
    /// Draw the traffic from `seed` and build the answer key (not part of
    /// set-up time).
    fn prepare(&mut self, seed: u64);
    /// Traced single-thread replay of the first `n` trace items through
    /// every layer the workload has.
    fn replay(&self, n: usize, lane: &mut Lane) -> Replay;
    /// Figures read after the load phases, before the final check.
    fn after(&self) -> After;
    /// The end-state check: `(answers checked, wrong answers)`.
    fn final_check(&self) -> (u64, u64);
}

/// Replay one query through core and the serving runtime on one index,
/// and time the frame codec on the reply. Returns the reply's frame bytes
/// and whether the runtime's answer differed from the core answer.
fn replay_leg(
    index: &BroadMatchIndex,
    runtime: &ServeRuntime,
    q: &str,
    mt: MatchType,
    lane: &mut Lane,
    core: &mut CoreCounts,
) -> (usize, bool) {
    let (plan, _) = lane.span("core.plan_query", || index.plan_query(q, mt));
    std::hint::black_box(plan);
    let ((hits, stats), _) = lane.span("core.query_with_stats", || index.query_with_stats(q, mt));
    core.add(&stats);
    let (served, _) = lane.span("serve.query", || runtime.query(q, mt));
    let Ok(served) = served else {
        return (0, true);
    };
    let wrong = served.hits != hits;
    let reply = Response::Query(QueryReply {
        hits: served.hits,
        stats: served.stats,
        version: served.version,
    });
    let req = Request::Query {
        text: q.to_string(),
        match_type: mt,
    };
    let (bytes, _) = lane.span("net.codec", || {
        let mut buf = Vec::new();
        encode_frame(&req.to_frame(1), &mut buf);
        let (frame, _) = decode_frame(&buf).expect("request frame decodes");
        let decoded = Request::from_frame(&frame).expect("request payload decodes");
        std::hint::black_box(decoded);
        buf.clear();
        encode_frame(&reply.to_frame(Opcode::Query, 1), &mut buf);
        let (frame, _) = decode_frame(&buf).expect("reply frame decodes");
        let decoded = Response::from_frame(&frame).expect("reply payload decodes");
        std::hint::black_box(decoded);
        buf.len()
    });
    (bytes, wrong)
}

fn replay_single(
    index: &BroadMatchIndex,
    runtime: &ServeRuntime,
    trace: &Trace,
    n: usize,
    lane: &mut Lane,
) -> Replay {
    let mut r = Replay::default();
    for pos in 0..n.min(trace.items.len()) {
        lane.begin(pos as u64);
        let (q, mt) = trace.at(pos);
        let (bytes, wrong) = replay_leg(index, runtime, q, mt, lane, &mut r.core);
        r.reply_bytes += bytes as u64;
        r.replies += 1;
        r.wrong += u64::from(wrong);
    }
    r
}

fn query_outcome(
    result: Result<broadmatch_serve::QueryResponse, broadmatch_serve::ServeError>,
    ok: impl FnOnce(&[MatchHit]) -> bool,
) -> Outcome {
    match result {
        Ok(resp) if ok(&resp.hits) => Outcome::Ok,
        Ok(_) => Outcome::Wrong,
        Err(_) => Outcome::Refused,
    }
}

// ---------------------------------------------------------------- static

/// `serve-static`: a 500K-ad index behind one runtime, read-only.
pub struct Static {
    runtime: ServeRuntime,
    index: Arc<BroadMatchIndex>,
    workload: Workload,
    trace: Option<Trace>,
    expected: Vec<u64>,
}

impl Static {
    const ADS: usize = 500_000;
}

impl Bench for Static {
    fn setup() -> (Self, Built) {
        let (corpus, workload) = generate(Self::ADS);
        let t = Instant::now();
        let index = Arc::new(build_index(corpus.ads(), Some(&workload)));
        let build_s = t.elapsed().as_secs_f64();
        let runtime = ServeRuntime::start(Arc::clone(&index), serve_config(crate::host::cores()));
        let first = &workload.entries()[0].0;
        runtime
            .query(first, MatchType::Broad)
            .expect("idle runtime admits the first query");
        let built = Built {
            build_s,
            index_bytes: index_bytes(&index),
            ads: corpus.len(),
        };
        let bench = Static {
            runtime,
            index,
            workload,
            trace: None,
            expected: Vec::new(),
        };
        (bench, built)
    }

    fn prepare(&mut self, seed: u64) {
        let trace = Trace::generate(&self.workload, seed);
        self.expected = trace.answer_key(|q, mt| ordered_fp(&self.index.query(q, mt)));
        self.trace = Some(trace);
    }

    fn replay(&self, n: usize, lane: &mut Lane) -> Replay {
        let trace = self.trace.as_ref().expect("prepared");
        replay_single(&self.index, &self.runtime, trace, n, lane)
    }

    fn after(&self) -> After {
        After::default()
    }

    fn final_check(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Target for Static {
    fn run(&self, i: u64, lane: &mut Lane) -> (Kind, Outcome) {
        let trace = self.trace.as_ref().expect("prepared");
        let pos = trace.pos(i);
        let (q, mt) = trace.at(pos);
        let (result, _) = lane.span("serve.query", || self.runtime.query(q, mt));
        let expected = self.expected[pos];
        (
            Kind::Query,
            query_outcome(result, |h| ordered_fp(h) == expected),
        )
    }
}

// ----------------------------------------------------------------- churn

/// `serve-churn`: a 90K-ad base with online inserts (from a 10K held-out
/// pool) and removes (of base ads) beside reads, with background folds.
pub struct Churn {
    runtime: ServeRuntime,
    workload: Workload,
    base: Vec<GeneratedAd>,
    pool: Vec<GeneratedAd>,
    trace: Option<Trace>,
    remove_order: Vec<u32>,
    // ORDER: Relaxed on every atomic below — the tickets publish no other
    // data, and the flags are read only after the generator threads are
    // joined, which orders them.
    next_insert: AtomicUsize,
    next_remove: AtomicUsize,
    next_write: AtomicUsize,
    inserted: Vec<AtomicBool>,
    removed: Vec<AtomicBool>,
}

impl Churn {
    const ADS: usize = 100_000;
    const POOL: usize = 10_000;
    /// Fold once the overlay holds this many inserts: at the offered rate
    /// about every five seconds, several folds a run.
    const FOLD_AT_ADS: usize = 300;

    /// Share of operations that are writes.
    const WRITE_SHARE: f64 = 0.1;

    /// With more than one generator the last one is the writer: readers and
    /// writers are separate clients, so a write held up by a fold does not
    /// also hold up reads queued behind it on the same generator.
    fn writer_lane(lanes: usize) -> Option<usize> {
        (lanes > 1).then(|| lanes - 1)
    }

    fn read(&self, i: u64, lane: &mut Lane) -> (Kind, Outcome) {
        let trace = self.trace.as_ref().expect("prepared");
        let (q, mt) = trace.at(trace.pos(i));
        let (result, _) = lane.span("serve.query", || self.runtime.query(q, mt));
        // Reads under churn are checked at the end, against a rebuild.
        (Kind::Query, query_outcome(result, |_| true))
    }
}

impl Bench for Churn {
    fn setup() -> (Self, Built) {
        let (corpus, workload) = generate(Self::ADS);
        let mut ads = corpus.ads().to_vec();
        let pool = ads.split_off(ads.len() - Self::POOL);
        let base = ads;
        let t = Instant::now();
        let index = build_index(&base, Some(&workload));
        let build_s = t.elapsed().as_secs_f64();
        let built = Built {
            build_s,
            index_bytes: index_bytes(&index),
            ads: base.len(),
        };
        let runtime = ServeRuntime::start_maintained(
            Arc::new(index),
            serve_config(crate::host::cores()),
            UpdateConfig {
                max_overlay_ads: Self::FOLD_AT_ADS,
                ..UpdateConfig::default()
            },
        );
        runtime
            .query(&workload.entries()[0].0, MatchType::Broad)
            .expect("idle runtime admits the first query");
        let bench = Churn {
            runtime,
            workload,
            inserted: (0..pool.len()).map(|_| AtomicBool::new(false)).collect(),
            removed: (0..base.len()).map(|_| AtomicBool::new(false)).collect(),
            base,
            pool,
            trace: None,
            remove_order: Vec::new(),
            next_insert: AtomicUsize::new(0),
            next_remove: AtomicUsize::new(0),
            next_write: AtomicUsize::new(0),
        };
        (bench, built)
    }

    fn prepare(&mut self, seed: u64) {
        self.trace = Some(Trace::generate(&self.workload, seed));
        let mut order: Vec<u32> = (0..self.base.len() as u32).collect();
        Pcg32::seed_from_u64(seed ^ 0xDE1E7E).shuffle(&mut order);
        self.remove_order = order;
    }

    fn replay(&self, n: usize, lane: &mut Lane) -> Replay {
        let trace = self.trace.as_ref().expect("prepared");
        let (index, _) = self.runtime.current();
        replay_single(&index, &self.runtime, trace, n, lane)
    }

    fn after(&self) -> After {
        let h = OverlayCounters::register(self.runtime.registry())
            .compaction_ms
            .snapshot();
        After {
            compactions: self.runtime.metrics().compactions,
            compaction_ms: if h.total() > 0 {
                h.sum_ms() / h.total() as f64
            } else {
                0.0
            },
            ..After::default()
        }
    }

    fn final_check(&self) -> (u64, u64) {
        self.runtime
            .compact_now()
            .expect("folding the surviving ads succeeds");
        let survivors = self
            .base
            .iter()
            .zip(&self.removed)
            .filter(|(_, r)| !r.load(Relaxed))
            .chain(
                self.pool
                    .iter()
                    .zip(&self.inserted)
                    .filter(|(_, i)| i.load(Relaxed)),
            )
            .map(|(ad, _)| ad);
        let reference = build_index(survivors, None);
        let trace = self.trace.as_ref().expect("prepared");
        let mut wrong = 0;
        for pos in 0..CHURN_CHECK_QUERIES {
            let (q, mt) = trace.at(pos);
            let want = listing_fp(&reference.query(q, mt));
            match self.runtime.query(q, mt) {
                Ok(resp) if listing_fp(&resp.hits) == want => {}
                _ => wrong += 1,
            }
        }
        (CHURN_CHECK_QUERIES as u64, wrong)
    }
}

impl Target for Churn {
    /// Writes alternate insert and remove. They come from the writer lane,
    /// or, with a single generator, every tenth operation.
    fn run(&self, i: u64, lane: &mut Lane) -> (Kind, Outcome) {
        let write = match Self::writer_lane(lane.lanes) {
            Some(w) => lane.id == w,
            None => i % 10 == 9,
        };
        if !write {
            return self.read(i, lane);
        }
        if self.next_write.fetch_add(1, Relaxed).is_multiple_of(2) {
            let k = self.next_insert.fetch_add(1, Relaxed);
            let Some(ad) = self.pool.get(k) else {
                return self.read(i, lane);
            };
            let (result, _) =
                lane.span("serve.insert", || self.runtime.insert(&ad.phrase, ad.info));
            if result.is_err() {
                return (Kind::Insert, Outcome::Error);
            }
            self.inserted[k].store(true, Relaxed);
            (Kind::Insert, Outcome::Ok)
        } else {
            let k = self.next_remove.fetch_add(1, Relaxed);
            let Some(&b) = self.remove_order.get(k) else {
                return self.read(i, lane);
            };
            let ad = &self.base[b as usize];
            let (removed, _) = lane.span("serve.remove", || {
                self.runtime.remove(&ad.phrase, ad.info.listing_id)
            });
            if removed > 0 {
                self.removed[b as usize].store(true, Relaxed);
            }
            // Listing ids are unique, so exactly one ad must go.
            let outcome = if removed == 1 {
                Outcome::Ok
            } else {
                Outcome::Error
            };
            (Kind::Remove, outcome)
        }
    }

    fn lane_shares(&self, lanes: usize) -> Vec<f64> {
        match Self::writer_lane(lanes) {
            None => vec![1.0],
            Some(w) => (0..lanes)
                .map(|k| {
                    if k == w {
                        Self::WRITE_SHARE
                    } else {
                        (1.0 - Self::WRITE_SHARE) / (lanes - 1) as f64
                    }
                })
                .collect(),
        }
    }

    /// The writer keeps its write rate while the readers saturate.
    fn paced_lane(&self, lanes: usize) -> Option<usize> {
        Self::writer_lane(lanes)
    }
}

// --------------------------------------------------------------- cluster

/// `cluster-fanout`: 60K ads split by `partition_of` over three loopback
/// backends behind one router, read-only.
pub struct Cluster {
    // Field order is drop order: the router's pooled connections close
    // before the backends shut down.
    router: Router,
    backends: Vec<Backend>,
    shards: Vec<Arc<BroadMatchIndex>>,
    ads: Vec<GeneratedAd>,
    workload: Workload,
    trace: Option<Trace>,
    expected: Vec<u64>,
    tally: LegTally,
}

impl Cluster {
    const ADS: usize = 60_000;
    const BACKENDS: usize = 3;
}

impl Bench for Cluster {
    fn setup() -> (Self, Built) {
        let (corpus, workload) = generate(Self::ADS);
        let mut parts = vec![Vec::new(); Self::BACKENDS];
        for ad in corpus.ads() {
            parts[partition_of(&ad.phrase, Self::BACKENDS)].push(ad);
        }
        let mut built = Built::default();
        let mut shards = Vec::new();
        let mut backends = Vec::new();
        for part in parts {
            let t = Instant::now();
            let index = Arc::new(build_index(part.iter().copied(), Some(&workload)));
            built.build_s += t.elapsed().as_secs_f64();
            built.index_bytes += index_bytes(&index);
            built.ads += part.len();
            let runtime =
                ServeRuntime::start(Arc::clone(&index), serve_config(crate::host::cores()));
            backends.push(
                Backend::bind("127.0.0.1:0", Arc::new(runtime), BackendConfig::default())
                    .expect("bind a loopback port"),
            );
            shards.push(index);
        }
        let router = Router::new(
            backends.iter().map(Backend::local_addr).collect(),
            RouterConfig::default(),
            Arc::new(broadmatch_telemetry::Registry::new()),
        );
        let first = router.query(&workload.entries()[0].0, MatchType::Broad);
        assert!(!first.degraded, "idle cluster answers the first query");
        let bench = Cluster {
            router,
            backends,
            shards,
            ads: corpus.ads().to_vec(),
            workload,
            trace: None,
            expected: Vec::new(),
            tally: LegTally::default(),
        };
        (bench, built)
    }

    fn prepare(&mut self, seed: u64) {
        let trace = Trace::generate(&self.workload, seed);
        let reference = build_index(&self.ads, None);
        self.expected = trace.answer_key(|q, mt| listing_fp(&reference.query(q, mt)));
        self.trace = Some(trace);
    }

    fn replay(&self, n: usize, lane: &mut Lane) -> Replay {
        let trace = self.trace.as_ref().expect("prepared");
        let mut r = Replay::default();
        let mut conns: Vec<TcpStream> = self
            .backends
            .iter()
            .map(|b| {
                let c = TcpStream::connect(b.local_addr()).expect("connect to a loopback backend");
                c.set_nodelay(true).expect("set TCP_NODELAY");
                c
            })
            .collect();
        let mut rtts: Vec<f64> = (0..200)
            .map(|id| {
                let t = Instant::now();
                let resp = call(&mut conns[0], &Request::Health, id).expect("health reply");
                assert!(matches!(resp, Response::Health { .. }));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        r.hop_us = crate::load::median(&mut rtts) / 2.0;

        let mut id = 1_000u64;
        for pos in 0..n.min(trace.items.len()) {
            lane.begin(pos as u64);
            let (q, mt) = trace.at(pos);
            let (routed, span) = lane.span("router.query", || self.router.query(q, mt));
            let query_us = lane.span_us(span);
            let mut legs: Vec<f64> = routed.shards.iter().map(|s| s.latency_ms * 1e3).collect();
            legs.sort_by(f64::total_cmp);
            let slowest = legs.last().copied().unwrap_or(0.0);
            r.router.queries += 1;
            r.router.legs += legs.len() as u64;
            r.router.leg_us += legs.iter().sum::<f64>();
            r.router.self_us += query_us - slowest;
            r.router.straggler_us += slowest - legs[legs.len() / 2];
            r.wrong += u64::from(routed.degraded || listing_fp(&routed.hits) != self.expected[pos]);

            for (b, backend) in self.backends.iter().enumerate() {
                let (bytes, wrong) =
                    replay_leg(&self.shards[b], backend.runtime(), q, mt, lane, &mut r.core);
                r.reply_bytes += bytes as u64;
                r.replies += 1;
                r.wrong += u64::from(wrong);
                id += 1;
                let req = Request::Query {
                    text: q.to_string(),
                    match_type: mt,
                };
                let (resp, _) = lane.span("net.backend_call", || call(&mut conns[b], &req, id));
                r.wrong += u64::from(!matches!(resp, Ok(Response::Query(_))));
            }
        }
        r
    }

    fn after(&self) -> After {
        After {
            legs: self.tally.legs.load(Relaxed),
            hedged: self.tally.hedged.load(Relaxed),
            timed_out: self.tally.timed_out.load(Relaxed),
            overloaded: self.tally.overloaded.load(Relaxed),
            ..After::default()
        }
    }

    fn final_check(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Target for Cluster {
    fn run(&self, i: u64, lane: &mut Lane) -> (Kind, Outcome) {
        let trace = self.trace.as_ref().expect("prepared");
        let pos = trace.pos(i);
        let (q, mt) = trace.at(pos);
        let (routed, _) = lane.span("router.query", || self.router.query(q, mt));
        self.tally
            .legs
            .fetch_add(routed.shards.len() as u64, Relaxed);
        for s in &routed.shards {
            let counter = match s.state {
                ShardState::Hedged => &self.tally.hedged,
                ShardState::TimedOut => &self.tally.timed_out,
                ShardState::Overloaded => &self.tally.overloaded,
                ShardState::Ok | ShardState::Failed => continue,
            };
            counter.fetch_add(1, Relaxed);
        }
        let outcome = if routed.degraded {
            Outcome::Degraded
        } else if listing_fp(&routed.hits) == self.expected[pos] {
            Outcome::Ok
        } else {
            Outcome::Wrong
        };
        (Kind::Query, outcome)
    }
}
