//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --rates serve-static=9000,serve-churn=3000,cluster-fanout=1000 \
//!     --workload serve-static --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run sets a workload up from its seed, offers the workload's fixed
//! rate open-loop, then saturates it closed-loop, checks every answer, and
//! prints each metric by name and unit. The last line of standard output is
//! one JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. See `perfbench/README.md`.

mod host;
mod load;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use load::{Kind, Lane, Outcome, Phase, Span};
use workloads::{After, Bench, Built, Churn, Cluster, Replay, Static, REPLAY_QUERIES};

const WORKLOADS: [&str; 3] = ["serve-static", "serve-churn", "cluster-fanout"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Seconds of unmeasured load before each measured phase: throughput
/// ramps up over about a second after a switch from the open loop to the
/// closed loop.
const WARMUP_S: f64 = 1.0;

/// Share of `--seconds` spent in the open-loop phase; the rest saturates.
const OPEN_SHARE: f64 = 0.6;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    rates: BTreeMap<String, f64>,
    self_test: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --rates <workload>=<qps>,... --workload <{}|all> \
         [--seed N] [--seconds S] [--trace 0|1] [--self-test]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        rates: BTreeMap::new(),
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = WORKLOADS.to_vec(),
            "--workload" => match WORKLOADS.iter().find(|w| **w == value) {
                Some(w) => args.workloads = vec![w],
                None => usage(),
            },
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--rates" => {
                for pair in value.split(',') {
                    let Some((w, r)) = pair.split_once('=') else {
                        usage()
                    };
                    let rate: f64 = r.parse().unwrap_or_else(|_| usage());
                    args.rates.insert(w.to_string(), rate);
                }
            }
            _ => usage(),
        }
    }
    if args.workloads.is_empty() || args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    if !args.self_test && args.workloads.iter().any(|w| !args.rates.contains_key(*w)) {
        eprintln!("every workload needs a fixed offered rate in --rates");
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    if args.self_test {
        let ok = args.workloads.iter().all(|w| match *w {
            "serve-static" => self_test::<Static>(w, args.seed),
            "serve-churn" => self_test::<Churn>(w, args.seed),
            _ => self_test::<Cluster>(w, args.seed),
        });
        std::process::exit(if ok { 0 } else { 1 });
    }
    for w in &args.workloads {
        let rate = args.rates[*w];
        let report = match *w {
            "serve-static" => run::<Static>(w, &args, rate),
            "serve-churn" => run::<Churn>(w, &args, rate),
            _ => run::<Cluster>(w, &args, rate),
        };
        report.print(args.traced);
    }
}

/// One metric as printed and as emitted in the JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count and how it was read, for the human-readable line.
    note: String,
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Emitted in the JSON line.
    metrics: Vec<Metric>,
    /// Printed only.
    extra: Vec<Metric>,
}

impl Report {
    fn print(&self, traced: bool) {
        if traced {
            println!("per-layer table (spans recorded in the benchmark around each layer's public calls)");
            println!("  {:<26} {:>14} {:<6} note", "metric", "value", "unit");
        }
        for m in self.extra.iter().chain(&self.metrics) {
            if traced {
                println!(
                    "  {:<26} {:>14.4} {:<6} {}",
                    m.name, m.value, m.unit, m.note
                );
            } else {
                println!("{} = {:.4} {}  ({})", m.name, m.value, m.unit, m.note);
            }
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        let _ = std::io::stdout().flush();
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// Most windows a latency percentile is read over.
const MAX_WINDOWS: usize = 50;

/// Percentile `p` of `(at_ns, value_ns)` samples from a phase of `secs`,
/// in `unit_scale` units per ns: the lower quartile over time windows of
/// each window's percentile, with the sample counts behind it.
fn pct_metric(
    name: &'static str,
    samples: &[(u64, u64)],
    secs: f64,
    p: f64,
    unit_scale: f64,
    unit: &'static str,
) -> Metric {
    let scaled: Vec<(u64, f64)> = samples
        .iter()
        .map(|&(at, v)| (at, v as f64 * unit_scale))
        .collect();
    match load::windowed_percentile(&scaled, secs, p, MAX_WINDOWS) {
        Some(w) => metric(
            name,
            w.value,
            unit,
            format!(
                "lower quartile over {} windows of each window's p{:.1}; {} samples, at least {} a window",
                w.windows,
                w.p * 100.0,
                samples.len(),
                w.min_n
            ),
        ),
        None => metric(
            name,
            0.0,
            unit,
            format!("too few samples ({})", samples.len()),
        ),
    }
}

fn count(phase: &Phase, kind: Kind, outcome: Option<Outcome>) -> u64 {
    phase
        .samples
        .iter()
        .filter(|s| s.kind == kind && outcome.is_none_or(|o| s.outcome == o))
        .count() as u64
}

fn run<B: Bench>(name: &str, args: &Args, rate: f64) -> Report {
    let threads = host::cores();
    let seed = args.seed;
    println!(
        "perfbench workload={name} seed={seed} cores={} rev={} generator_threads={threads} \
         offered_rate={rate}/s seconds={} trace={}",
        host::cores(),
        host::git_rev(),
        args.seconds,
        u8::from(args.traced)
    );

    let setups = if args.traced { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut current: Option<(B, Built)> = None;
    for _ in 0..setups {
        drop(current.take());
        let t = Instant::now();
        current = Some(B::setup());
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (mut bench, built) = current.expect("at least one set-up");
    bench.prepare(seed);

    let epoch = Instant::now();
    let (replay, replay_spans) = if args.traced {
        let mut lane = Lane::new(true, epoch, 0, 1);
        let r = bench.replay(REPLAY_QUERIES, &mut lane);
        (r, lane.take_spans())
    } else {
        (Replay::default(), Vec::new())
    };

    let open_s = args.seconds * OPEN_SHARE;
    let peak_s = args.seconds - open_s;
    load::open_loop(&bench, rate, WARMUP_S, threads, seed ^ 0x3A3A, 0, false);
    let open = load::open_loop(&bench, rate, open_s, threads, seed, 1 << 40, args.traced);
    load::closed_loop(&bench, rate, WARMUP_S, threads, seed, 2 << 40, false);
    let peak = load::closed_loop(&bench, rate, peak_s, threads, seed, 3 << 40, false);
    let peak_traced = args
        .traced
        .then(|| load::closed_loop(&bench, rate, peak_s, threads, seed, 4 << 40, true));
    let after = bench.after();
    let (checked, final_wrong) = bench.final_check();

    let phases: Vec<&Phase> = [&open, &peak]
        .into_iter()
        .chain(peak_traced.as_ref())
        .collect();
    let attempted = phases.iter().map(|p| p.samples.len() as u64).sum::<u64>() + checked;
    let tally = |o: Outcome| -> u64 {
        phases
            .iter()
            .map(|p| p.samples.iter().filter(|s| s.outcome == o).count() as u64)
            .sum()
    };
    let (refused, wrong, degraded, errors) = (
        tally(Outcome::Refused),
        tally(Outcome::Wrong) + final_wrong,
        tally(Outcome::Degraded),
        tally(Outcome::Error),
    );
    let failed = refused + wrong + degraded + errors;
    let correct = wrong == 0 && replay.wrong == 0;

    let latencies = |p: &Phase, query: bool| -> Vec<(u64, u64)> {
        p.samples
            .iter()
            .filter(|s| (s.kind == Kind::Query) == query && s.outcome == Outcome::Ok)
            .map(|s| (s.at_ns, s.latency_ns))
            .collect()
    };
    let is_churn = name == "serve-churn";
    let writes = latencies(&open, false);
    let write_p50 = only(
        is_churn,
        pct_metric("write_p50_ms", &writes, open.secs, 0.50, 1e-6, "ms"),
    );
    let write_p99 = only(
        is_churn,
        pct_metric("write_p99_ms", &writes, open.secs, 0.99, 1e-6, "ms"),
    );
    let failed_ratio = metric(
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        format!(
            "{failed} of {attempted} operations: {refused} refused, {wrong} wrong, \
             {degraded} degraded, {errors} errors; {checked} end-state answers checked"
        ),
    );
    let q = latencies(&open, true);
    // Printed with every run, and bounded by nothing: on a small shared VM
    // the 1% tail follows host stalls and swings several-fold between runs.
    let query_p99 = pct_metric("query_p99_ms", &q, open.secs, 0.99, 1e-6, "ms");

    if !args.traced {
        let mut setup_sorted = setup_s.clone();
        let mut metrics = vec![
            pct_metric("query_p50_ms", &q, open.secs, 0.50, 1e-6, "ms"),
            pct_metric("query_p90_ms", &q, open.secs, 0.90, 1e-6, "ms"),
            metric(
                "peak_qps",
                peak.ok_query_rate(),
                "1/s",
                format!(
                    "closed loop, saturation: {threads} generators with one request in flight \
                     each for {:.1} s, {} correct queries; upper quartile of half-second slices",
                    peak.elapsed_s,
                    count(&peak, Kind::Query, Some(Outcome::Ok))
                ),
            ),
            metric(
                "setup_s",
                load::median(&mut setup_sorted),
                "s",
                format!("median of {setups} set-ups {setup_s:.3?}"),
            ),
            metric("peak_rss_mb", host::peak_rss_mb(), "MB", "VmHWM"),
        ];
        metrics[0].note += &format!(", open loop at {rate}/s for {:.1} s", open.elapsed_s);
        let mut extra = vec![failed_ratio, query_p99];
        if is_churn {
            extra.extend([write_p50, write_p99]);
        }
        extra.push(late_metric(&open, 0.50, "gen.late_p50_us"));
        extra.push(late_metric(&open, 0.99, "gen.late_p99_us"));
        extra.push(metric(
            "host.steal_pct",
            open.steal_pct,
            "%",
            "during the open loop",
        ));
        return Report {
            correct,
            attempted,
            failed,
            metrics,
            extra,
        };
    }

    let replay_span = |layer: &str| mean_us(&replay_spans, layer);
    let load_span = |layer: &str| mean_us(&open.spans, layer);
    let layers = Layers {
        name,
        built,
        replay: &replay,
        after,
        plan_us: replay_span("core.plan_query"),
        qws_us: replay_span("core.query_with_stats"),
        serve_us: replay_span("serve.query"),
        codec_us: replay_span("net.codec"),
        backend_rtt_us: replay_span("net.backend_call"),
        router_us: replay_span("router.query"),
        insert_us: load_span("serve.insert"),
        remove_us: load_span("serve.remove"),
    };
    let mut metrics = layers.metrics();
    let queries = phases
        .iter()
        .map(|p| count(p, Kind::Query, None))
        .sum::<u64>();
    let overhead = match &peak_traced {
        Some(t) => 100.0 * (peak.ok_query_rate() / t.ok_query_rate() - 1.0),
        None => 0.0,
    };
    let reject_ratio = if name == "cluster-fanout" {
        ratio(after.overloaded, after.legs)
    } else {
        ratio(refused, queries)
    };
    metrics.extend([
        query_p99,
        metric(
            "serve.reject_ratio",
            reject_ratio,
            "ratio",
            "ServeErrors received over calls",
        ),
        write_p50,
        write_p99,
        only(
            name == "cluster-fanout",
            metric(
                "router.degraded_ratio",
                ratio(degraded, queries),
                "ratio",
                "degraded routed queries over routed queries",
            ),
        ),
        late_metric(&open, 0.50, "gen.late_p50_us"),
        late_metric(&open, 0.99, "gen.late_p99_us"),
        metric(
            "host.steal_pct",
            open.steal_pct,
            "%",
            "during the open loop",
        ),
        metric(
            "trace.overhead_pct",
            overhead,
            "%",
            "closed-loop qps untraced over traced, minus one",
        ),
    ]);
    let mut spans = replay_spans;
    spans.extend(open.spans.iter().copied());
    let spans_note = format!("written to {}", write_spans(name, seed, &spans));
    let extra = vec![
        failed_ratio,
        metric("trace.spans", spans.len() as f64, "count", spans_note),
    ];
    Report {
        correct,
        attempted,
        failed,
        metrics,
        extra,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn late_metric(open: &Phase, p: f64, name: &'static str) -> Metric {
    let late: Vec<(u64, u64)> = open.samples.iter().map(|s| (s.at_ns, s.late_ns)).collect();
    let mut m = pct_metric(name, &late, open.secs, p, 1e-3, "us");
    m.note += ", actual minus intended send time";
    m
}

/// Mean duration in µs of the spans of `layer`.
fn mean_us(spans: &[Span], layer: &str) -> f64 {
    let (sum, n) = spans
        .iter()
        .filter(|s| s.layer == layer)
        .fold((0u64, 0u64), |(sum, n), s| {
            (sum + (s.end_ns - s.start_ns), n + 1)
        });
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64 / 1e3
    }
}

/// Spans are kept in memory during the run and written out at the end.
/// Returns the path written.
fn write_spans(name: &str, seed: u64, spans: &[Span]) -> String {
    let path = format!("perfbench/out/spans-{name}-seed{seed}.csv");
    let mut out = String::from("req,layer,start_ns,end_ns\n");
    for s in spans {
        out += &format!("{},{},{},{}\n", s.req, s.layer, s.start_ns, s.end_ns);
    }
    let written =
        std::fs::create_dir_all("perfbench/out").and_then(|()| std::fs::write(&path, out));
    if let Err(e) = written {
        eprintln!("could not write {path}: {e}");
    }
    path
}

/// The per-layer figures of one traced run.
struct Layers<'a> {
    name: &'a str,
    built: Built,
    replay: &'a Replay,
    after: After,
    plan_us: f64,
    qws_us: f64,
    serve_us: f64,
    codec_us: f64,
    backend_rtt_us: f64,
    router_us: f64,
    insert_us: f64,
    remove_us: f64,
}

impl Layers<'_> {
    fn metrics(&self) -> Vec<Metric> {
        let c = &self.replay.core;
        let per_q = |x: u64| ratio(x, c.queries);
        let churn = self.name == "serve-churn";
        let cluster = self.name == "cluster-fanout";
        let r = &self.replay.router;
        let leg_basis = if cluster {
            "per backend leg"
        } else {
            "per query"
        };
        vec![
            metric(
                "core.plan_us",
                self.plan_us,
                "us",
                format!("plan_query, {leg_basis}"),
            ),
            metric(
                "core.probe_scan_us",
                self.qws_us - self.plan_us,
                "us",
                "query_with_stats minus plan_query",
            ),
            metric("core.probes_per_query", per_q(c.probes), "count", leg_basis),
            metric(
                "core.probe_hit_ratio",
                ratio(c.probe_hits, c.probes),
                "ratio",
                "probes that found a node",
            ),
            metric("core.nodes_per_query", per_q(c.nodes), "count", leg_basis),
            metric(
                "core.scan_bytes_per_query",
                per_q(c.scan_bytes),
                "B",
                leg_basis,
            ),
            metric(
                "core.entries_per_hit",
                ratio(c.entries, c.hits),
                "ratio",
                "entries examined per returned hit",
            ),
            metric(
                "core.truncated_ratio",
                per_q(c.truncated),
                "ratio",
                "plans cut by the probe cap",
            ),
            metric(
                "core.build_s",
                self.built.build_s,
                "s",
                "IndexBuilder::build, all shards",
            ),
            metric(
                "core.index_bytes_per_ad",
                ratio(self.built.index_bytes as u64, self.built.ads as u64),
                "B",
                "arena + directory over ads",
            ),
            metric(
                "serve.query_us",
                self.serve_us,
                "us",
                format!("ServeRuntime::query, idle, {leg_basis}"),
            ),
            metric(
                "serve.self_us",
                self.serve_us - self.qws_us,
                "us",
                "serve.query_us minus query_with_stats",
            ),
            only(
                churn,
                metric(
                    "serve.insert_us",
                    self.insert_us,
                    "us",
                    "ServeRuntime::insert under load",
                ),
            ),
            only(
                churn,
                metric(
                    "serve.remove_us",
                    self.remove_us,
                    "us",
                    "ServeRuntime::remove under load",
                ),
            ),
            only(
                churn,
                metric(
                    "serve.compactions",
                    self.after.compactions as f64,
                    "count",
                    "folds during the load phases",
                ),
            ),
            only(
                churn,
                metric(
                    "serve.compaction_ms",
                    self.after.compaction_ms,
                    "ms",
                    "mean of broadmatch_compaction_duration_ms",
                ),
            ),
            only(
                cluster,
                metric(
                    "net.hop_us",
                    self.replay.hop_us,
                    "us",
                    "idle Health round trip over two",
                ),
            ),
            only(
                cluster,
                metric(
                    "net.backend_rtt_us",
                    self.backend_rtt_us,
                    "us",
                    "server::call on one persistent connection",
                ),
            ),
            only(
                cluster,
                metric(
                    "net.backend_self_us",
                    self.backend_rtt_us - self.serve_us,
                    "us",
                    "backend round trip minus serve.query_us",
                ),
            ),
            metric(
                "net.codec_us",
                self.codec_us,
                "us",
                "encode + decode of request and reply frames",
            ),
            metric(
                "net.reply_bytes",
                ratio(self.replay.reply_bytes, self.replay.replies),
                "B",
                "reply frame bytes",
            ),
            only(
                cluster,
                metric(
                    "router.query_us",
                    self.router_us,
                    "us",
                    "Router::query, idle",
                ),
            ),
            only(
                cluster,
                metric(
                    "router.leg_us",
                    mean(r.leg_us, r.legs),
                    "us",
                    "ShardStatus.latency_ms per leg",
                ),
            ),
            only(
                cluster,
                metric(
                    "router.self_us",
                    mean(r.self_us, r.queries),
                    "us",
                    "query minus slowest leg",
                ),
            ),
            only(
                cluster,
                metric(
                    "router.straggler_us",
                    mean(r.straggler_us, r.queries),
                    "us",
                    "slowest minus median leg",
                ),
            ),
            only(
                cluster,
                metric(
                    "router.hedge_ratio",
                    ratio(self.after.hedged, self.after.legs),
                    "ratio",
                    "hedged legs over legs, load phases",
                ),
            ),
            only(
                cluster,
                metric(
                    "router.timeout_ratio",
                    ratio(self.after.timed_out, self.after.legs),
                    "ratio",
                    "timed-out legs over legs, load phases",
                ),
            ),
        ]
    }
}

/// A metric of a layer the workload may not use: 0, noted n/a, when not.
fn only(applies: bool, m: Metric) -> Metric {
    if applies {
        m
    } else {
        metric(
            m.name,
            0.0,
            m.unit,
            "n/a: layer not on this workload's path",
        )
    }
}

fn mean(sum: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Set the workload up twice from the same seed and check that the
/// deterministic counts of the traced replay repeat exactly.
fn self_test<B: Bench>(name: &str, seed: u64) -> bool {
    let counts = || {
        let (mut bench, built) = B::setup();
        bench.prepare(seed);
        let mut lane = Lane::new(true, Instant::now(), 0, 1);
        let r = bench.replay(REPLAY_QUERIES, &mut lane);
        (r.core, built.index_bytes, built.ads)
    };
    let first = counts();
    let second = counts();
    let same = first == second;
    println!(
        "self-test {name} seed={seed}: {} (probes {}, nodes {}, scan bytes {}, probe hits {}, \
         index bytes {} over {} ads)",
        if same {
            "deterministic counts repeat"
        } else {
            "COUNTS DIFFER"
        },
        first.0.probes,
        first.0.nodes,
        first.0.scan_bytes,
        first.0.probe_hits,
        first.1,
        first.2
    );
    if !same {
        println!("  first:  {first:?}\n  second: {second:?}");
    }
    same
}
