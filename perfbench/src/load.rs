//! Load generation: an open-loop phase on a seeded Poisson schedule and a
//! closed-loop saturation phase, both from at most one generator thread per
//! core, plus the per-thread span recorder and the percentile rules.

use std::time::{Duration, Instant};

use broadmatch_rng::{Pcg32, RandomSource};

use crate::host;

/// What one operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Insert,
    Remove,
}

/// How one operation ended. Everything but `Ok` counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with the checked answer.
    Ok,
    /// Refused by admission control.
    Refused,
    /// Completed with an answer that differs from the reference.
    Wrong,
    /// A routed query that lost at least one shard.
    Degraded,
    /// A write that errored or changed the wrong number of ads.
    Error,
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Intended (open loop) or actual (closed loop) send time, in ns from
    /// the start of the phase.
    pub at_ns: u64,
    pub kind: Kind,
    pub outcome: Outcome,
    /// Completion minus intended send time (open loop) or minus actual send
    /// time (closed loop), in ns.
    pub latency_ns: u64,
    /// Actual minus intended send time, in ns (0 in the closed loop).
    pub late_ns: u64,
}

/// One recorded span: a timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request the span belongs to (spans of one request share it).
    pub req: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-generator-thread state: its samples and, in traced runs, its spans.
pub struct Lane {
    /// This generator's index among `lanes`.
    pub id: usize,
    pub lanes: usize,
    pub samples: Vec<Sample>,
    spans: Option<Vec<Span>>,
    epoch: Instant,
    req: u64,
}

impl Lane {
    pub fn new(traced: bool, epoch: Instant, id: usize, lanes: usize) -> Lane {
        Lane {
            id,
            lanes,
            samples: Vec::new(),
            spans: traced.then(Vec::new),
            epoch,
            req: 0,
        }
    }

    /// Start a new request: later spans share its identifier.
    pub fn begin(&mut self, req: u64) {
        self.req = req;
    }

    /// Run `f` as a span of `layer` in the current request. Returns the
    /// result and the index of the recorded span (`None` when untraced).
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> (R, Option<usize>) {
        let Some(spans) = self.spans.as_mut() else {
            return (f(), None);
        };
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        spans.push(Span {
            req: self.req,
            layer,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
        (r, Some(spans.len() - 1))
    }

    /// Duration of a recorded span in µs (0 when untraced).
    pub fn span_us(&self, idx: Option<usize>) -> f64 {
        match (self.spans.as_ref(), idx) {
            (Some(spans), Some(i)) => (spans[i].end_ns - spans[i].start_ns) as f64 / 1e3,
            _ => 0.0,
        }
    }

    pub fn take_spans(&mut self) -> Vec<Span> {
        self.spans.take().unwrap_or_default()
    }
}

/// Something the generators can drive: operation `i` of a seeded schedule.
pub trait Target: Sync {
    fn run(&self, i: u64, lane: &mut Lane) -> (Kind, Outcome);

    /// Share of the offered rate each of `lanes` generators carries.
    fn lane_shares(&self, lanes: usize) -> Vec<f64> {
        vec![1.0 / lanes as f64; lanes]
    }

    /// A generator that keeps its open-loop schedule in the closed loop.
    fn paced_lane(&self, _lanes: usize) -> Option<usize> {
        None
    }
}

/// The merged result of one load phase.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    /// Nominal length of the phase.
    pub secs: f64,
    pub elapsed_s: f64,
    pub steal_pct: f64,
}

/// Length of one slice of the closed-loop phase.
const SLICE_S: f64 = 0.5;

/// Latencies and throughput are read per time window, and the window at
/// this quantile from the fast end is reported. On a small shared VM, host
/// interference slows whole stretches of a run, several seconds long; the
/// quartile reads the system's own speed as long as a quarter of the run
/// was left alone, where a median needs half.
pub const QUIET_QUANTILE: f64 = 0.25;

impl Phase {
    /// Completed, correct queries per second over half-second slices: the
    /// upper quartile of the slices (see [`QUIET_QUANTILE`]).
    pub fn ok_query_rate(&self) -> f64 {
        let slices = ((self.secs / SLICE_S) as usize).max(1);
        let slice_ns = self.secs * 1e9 / slices as f64;
        let mut counts = vec![0u64; slices];
        for s in &self.samples {
            if s.kind == Kind::Query && s.outcome == Outcome::Ok {
                if let Some(c) = counts.get_mut((s.at_ns as f64 / slice_ns) as usize) {
                    *c += 1;
                }
            }
        }
        let mut rates: Vec<f64> = counts.iter().map(|&c| c as f64 * 1e9 / slice_ns).collect();
        quantile(&mut rates, 1.0 - QUIET_QUANTILE)
    }
}

/// Sleeping wakes ~60 µs late on a busy small VM, so the generator sleeps
/// until this much before the due time and yields the CPU from there.
const SPIN_NS: u64 = 150_000;

fn pace_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_nanos(SPIN_NS) {
            std::thread::sleep(left - Duration::from_nanos(SPIN_NS));
        } else {
            std::thread::yield_now();
        }
    }
}

fn merge(lanes: Vec<Lane>, secs: f64, elapsed_s: f64, steal_pct: f64) -> Phase {
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for mut lane in lanes {
        samples.append(&mut lane.samples);
        spans.extend(lane.take_spans());
    }
    Phase {
        samples,
        spans,
        secs,
        elapsed_s,
        steal_pct,
    }
}

/// How one generator sends its operations.
#[derive(Debug, Clone, Copy)]
enum Pace {
    /// On a seeded Poisson schedule with this mean gap.
    Poisson { mean_gap_ns: f64 },
    /// Back to back, one in flight.
    BackToBack,
}

/// Run one generator thread per pace for `secs` seconds. Generator `k`
/// runs operations `first_op + j * lanes + k`, so the operation mix is the
/// same whichever thread runs what. A paced operation's latency is taken
/// from its intended send time, so a stall also charges every request it
/// delays.
fn drive(
    target: &impl Target,
    paces: &[Pace],
    secs: f64,
    seed: u64,
    first_op: u64,
    traced: bool,
) -> Phase {
    let lanes = paces.len();
    let end_ns = secs * 1e9;
    let cpu0 = host::cpu_jiffies();
    let start = Instant::now() + Duration::from_millis(2);
    let lanes_done: Vec<Lane> = std::thread::scope(|s| {
        let handles: Vec<_> = paces
            .iter()
            .enumerate()
            .map(|(k, &pace)| {
                s.spawn(move || {
                    let mut rng = Pcg32::seed_from_u64(seed ^ (0xA5A5 + k as u64));
                    let mut lane = Lane::new(traced, start, k, lanes);
                    let mut due_ns = 0.0;
                    pace_until(start);
                    for j in 0u64.. {
                        let due = match pace {
                            Pace::Poisson { mean_gap_ns } => {
                                due_ns += rng.gen_exp(mean_gap_ns);
                                if due_ns >= end_ns {
                                    break;
                                }
                                let due = start + Duration::from_nanos(due_ns as u64);
                                pace_until(due);
                                due
                            }
                            Pace::BackToBack => {
                                let now = Instant::now();
                                due_ns = now.duration_since(start).as_nanos() as f64;
                                if due_ns >= end_ns {
                                    break;
                                }
                                now
                            }
                        };
                        let sent = Instant::now();
                        let i = first_op + j * lanes as u64 + k as u64;
                        lane.begin(i);
                        let (kind, outcome) = target.run(i, &mut lane);
                        lane.samples.push(Sample {
                            at_ns: due_ns as u64,
                            kind,
                            outcome,
                            latency_ns: due.elapsed().as_nanos() as u64,
                            late_ns: sent.duration_since(due).as_nanos() as u64,
                        });
                    }
                    lane
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    merge(
        lanes_done,
        secs,
        elapsed_s,
        host::steal_pct(cpu0, host::cpu_jiffies()),
    )
}

fn poisson(rate: f64, share: f64) -> Pace {
    Pace::Poisson {
        mean_gap_ns: 1e9 / (rate * share),
    }
}

/// Offer `rate` operations per second for `secs` seconds from `threads`
/// generators, each on its own Poisson schedule.
pub fn open_loop(
    target: &impl Target,
    rate: f64,
    secs: f64,
    threads: usize,
    seed: u64,
    first_op: u64,
    traced: bool,
) -> Phase {
    let paces: Vec<Pace> = target
        .lane_shares(threads)
        .into_iter()
        .map(|share| poisson(rate, share))
        .collect();
    drive(target, &paces, secs, seed, first_op, traced)
}

/// Saturate the target: each of `threads` generators keeps one operation in
/// flight, back to back, for `secs` seconds; a paced generator keeps its
/// open-loop schedule at `rate`.
pub fn closed_loop(
    target: &impl Target,
    rate: f64,
    secs: f64,
    threads: usize,
    seed: u64,
    first_op: u64,
    traced: bool,
) -> Phase {
    let shares = target.lane_shares(threads);
    let paced = target.paced_lane(threads);
    let paces: Vec<Pace> = (0..threads)
        .map(|k| {
            if paced == Some(k) {
                poisson(rate, shares[k])
            } else {
                Pace::BackToBack
            }
        })
        .collect();
    drive(target, &paces, secs, seed, first_op, traced)
}

/// A percentile read from samples the benchmark holds itself.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    /// The percentile actually reported (lowered when the sample cannot
    /// support the one asked for).
    pub p: f64,
    pub value: f64,
    pub n: usize,
}

/// Nearest-rank percentile `p` of `values`, lowered until at least ten
/// samples lie beyond it. `None` for fewer than eleven samples.
pub fn percentile(values: &mut [f64], p: f64) -> Option<Pct> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let wanted = ((p * n as f64).ceil() as usize).max(1);
    let rank = wanted.min(n - 10);
    Some(Pct {
        p: rank as f64 / n as f64,
        value: values[rank - 1],
        n,
    })
}

/// A percentile taken per time window, and the lower quartile over them.
#[derive(Debug, Clone, Copy)]
pub struct Windowed {
    pub value: f64,
    pub windows: usize,
    /// Samples in the smallest window.
    pub min_n: usize,
    /// Lowest percentile actually read in a window.
    pub p: f64,
}

/// Split `(at_ns, value)` samples over `secs` into equal time windows, read
/// percentile `p` in each, and return the lower quartile over the windows
/// (see [`QUIET_QUANTILE`]). Uses as many windows, up to `max_windows`, as
/// leave each window about ten samples beyond `p`.
pub fn windowed_percentile(
    samples: &[(u64, f64)],
    secs: f64,
    p: f64,
    max_windows: usize,
) -> Option<Windowed> {
    let need = 1.2 * 10.0 / (1.0 - p);
    let windows = ((samples.len() as f64 / need) as usize).clamp(1, max_windows);
    let window_ns = secs * 1e9 / windows as f64;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(at, v) in samples {
        let w = ((at as f64 / window_ns) as usize).min(windows - 1);
        buckets[w].push(v);
    }
    let mut values = Vec::with_capacity(windows);
    let mut min_n = usize::MAX;
    let mut lowest_p = p;
    for b in &mut buckets {
        let pct = percentile(b, p)?;
        values.push(pct.value);
        min_n = min_n.min(pct.n);
        lowest_p = lowest_p.min(pct.p);
    }
    Some(Windowed {
        value: quantile(&mut values, QUIET_QUANTILE),
        windows,
        min_n,
        p: lowest_p,
    })
}

/// Quantile `q` of `values`, interpolated between neighbouring ranks.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let Some(last) = values.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of a small set of repeated measurements.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}
