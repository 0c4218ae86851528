//! The run harness shared by every workload: the metric lists, repeated
//! checked iterations, set-up timing, digests, and the result line.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use lina_simcore::Json;

use crate::check;
use crate::replay::Timings;
use crate::workloads::Size;
use crate::Args;

/// The throughput metric: simulated requests (training sequences on
/// `train_step`) per second of the reference core (see [`REF_S`]).
pub const RATE: &str = "sim_req_per_ref_s";

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), (RATE, "1/s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (`--trace 1`): name and unit. A workload reports
/// zero for a layer it never runs.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("workload.gen_s", "s"),
    ("workload.requests", "count"),
    ("workload.tokens", "count"),
    ("serve.run_trace_s", "s"),
    ("serve.self_s", "s"),
    ("serve.batches", "count"),
    ("serve.reestimations", "count"),
    ("serve.completed", "count"),
    ("serve.failed", "count"),
    ("serve.hedges_issued", "count"),
    ("serve.plan_cache_hit_rate", "frac"),
    ("serve.report_s", "s"),
    ("core.profile_calls", "count"),
    ("core.profile_s", "s"),
    ("core.profile_ms_p50", "ms"),
    ("core.profile_ms_p99", "ms"),
    ("core.profile_token_layers", "count"),
    ("plan.calls", "count"),
    ("plan.s", "s"),
    ("plan.us_p50", "us"),
    ("plan.us_p99", "us"),
    ("plan.a2a_bytes", "bytes"),
    ("plan.collectives", "count"),
    ("solo.calls", "count"),
    ("solo.s", "s"),
    ("solo.us_p50", "us"),
    ("solo.us_p99", "us"),
    ("net.submits", "count"),
    ("net.advances", "count"),
    ("net.s", "s"),
    ("net.advance_us_p99", "us"),
    ("net.peak_inflight", "count"),
    ("graph.build_s", "s"),
    ("graph.ops", "count"),
    ("exec.s", "s"),
    ("exec.step_ms_p50", "ms"),
    ("exec.step_ms_p99", "ms"),
    ("replay.service_match_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Iterations a run makes even when `--seconds` is already spent; the
/// peak memory is read after these, so it covers the same work in
/// every run however many iterations the time allows.
const MIN_ITERS: usize = 3;

/// Runs the workload in the mode `args` selects and renders the result
/// line.
pub fn run(args: &Args) -> String {
    let (outcome, names) = match (args.workload.serving(), args.trace) {
        (true, false) => (crate::serve::untraced(args), &END_TO_END[..]),
        (true, true) => (crate::serve::traced(args), &PER_LAYER[..]),
        (false, false) => (crate::train::untraced(args), &END_TO_END[..]),
        (false, true) => (crate::train::traced(args), &PER_LAYER[..]),
    };
    outcome.json(names)
}

/// A run's result: iteration counts and metric values by name.
pub struct Outcome {
    /// Iterations run.
    pub attempted: usize,
    /// Iterations that panicked or failed their output check.
    pub failed: usize,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The result line: every metric of `names`, in order, with zero
    /// for a metric the workload does not produce. A non-finite value
    /// makes the run incorrect.
    fn json(&self, names: &[(&str, &str)]) -> String {
        let finite = self.metrics.values().all(|v| v.is_finite());
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                (
                    name,
                    Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0 && finite)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render_compact()
    }
}

/// CPU seconds the calling thread has run (`CLOCK_THREAD_CPUTIME_ID`,
/// nanosecond-resolved, unlike the tick-resolved `/proc` counters).
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Runs `f` and returns its result with the CPU seconds it took.
pub fn cpu_time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = thread_cpu_s();
    let out = f();
    (out, thread_cpu_s() - t0)
}

/// CPU seconds the reference job takes on the core the benchmark was
/// tuned on (a 2-vCPU shared x86-64 VM). Times are reported in seconds
/// of that core: a sample's CPU time times `REF_S` over the reference
/// job's CPU time measured beside it.
const REF_S: f64 = 0.04;

/// The median; 0 for no samples.
fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile; 0 for no samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// What [`repeat`] counted and measured.
pub struct Repeated {
    /// Iterations run.
    pub attempted: usize,
    /// Iterations that panicked or failed their output check.
    pub failed: usize,
    /// Median set-up time, in reference seconds (see [`REF_S`]).
    pub setup_s: f64,
    /// Median time of the measured part of a passing iteration, in
    /// reference seconds.
    pub iter_s: f64,
    /// Peak resident memory after the first `MIN_ITERS` iterations.
    pub peak_rss_mb: f64,
}

/// Repeats `iteration` until `seconds` have passed (at least
/// `MIN_ITERS` times). An iteration returns whether its output check
/// passed and the CPU seconds of its measured part; a panic counts as a
/// failed iteration. Before each iteration the set-up is built once
/// more, untimed by the iteration, so the set-up samples spread over the
/// whole run like the iterations do.
///
/// Other tenants of a shared host slow whole minutes of a run by up to
/// a third, by taking the cores' time, caches and memory bandwidth. So
/// every sample is timed in CPU seconds and scaled by the reference job
/// ([`crate::calib::job`]), run before and after it: a slowdown that
/// hits both cancels out.
pub fn repeat<S>(
    seconds: f64,
    setup: impl Fn() -> S,
    mut iteration: impl FnMut() -> (bool, f64),
) -> Repeated {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let reference = || cpu_time(crate::calib::job).1;
    let mut before = reference();
    let (mut setups, mut iters) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut peak_rss_mb) = (0, 0, 0.0);
    while attempted < MIN_ITERS || Instant::now() < deadline {
        let (built, setup_cpu) = cpu_time(&setup);
        drop(built);
        attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(&mut iteration));
        let after = reference();
        let scale = REF_S / (0.5 * (before + after));
        before = after;
        setups.push(setup_cpu * scale);
        match outcome {
            Ok((true, cpu)) => iters.push(cpu * scale),
            _ => failed += 1,
        }
        if attempted == MIN_ITERS {
            peak_rss_mb = self::peak_rss_mb();
        }
    }
    Repeated {
        attempted,
        failed,
        setup_s: median(&setups),
        iter_s: median(&iters),
        peak_rss_mb,
    }
}

/// Checks every digest of a run against the run's first, and the
/// default seed's full-size digest against the pinned golden value.
pub struct DigestCheck {
    golden: Option<u128>,
    first: Option<u128>,
}

impl DigestCheck {
    /// A check for the run `args` describes.
    pub fn new(args: &Args) -> Self {
        let pinned = args.seed == check::DEFAULT_SEED && args.size == Size::Full;
        DigestCheck {
            golden: pinned.then(|| check::golden(args.workload)),
            first: None,
        }
    }

    /// Whether an iteration's digest passes.
    pub fn accepts(&mut self, digest: u128) -> bool {
        let first = *self.first.get_or_insert(digest);
        if digest != first {
            eprintln!("simbench: digest {digest:032x} differs from the run's first {first:032x}");
        }
        if self.golden.is_some_and(|g| g != digest) {
            eprintln!("simbench: digest {digest:032x} differs from the golden digest");
        }
        digest == first && self.golden.is_none_or(|g| g == digest)
    }

    /// Prints the run's digest (the self-check compares it across
    /// processes).
    pub fn report(&self) {
        if let Some(d) = self.first {
            eprintln!("simbench: digest {d:032x}");
        }
    }
}

/// Per-iteration values of a traced run: time series are reduced to
/// their medians, per-call samples are pooled for percentiles, and
/// counts (identical every iteration) keep their last value.
#[derive(Default)]
pub struct Traced {
    series: BTreeMap<&'static str, Vec<f64>>,
    pooled: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Traced {
    /// Records one iteration's value of a time metric.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.series.entry(name).or_default().push(v);
    }

    /// Pools a layer's per-call times, scaled to the metric's unit.
    pub fn pool(&mut self, name: &'static str, timings: &Timings, scale: f64) {
        let p = self.pooled.entry(name).or_default();
        p.extend(timings.samples().iter().map(|s| s * scale));
    }

    /// Records a count.
    pub fn count(&mut self, name: &'static str, v: f64) {
        self.counts.insert(name, v);
    }

    /// Medians, counts, and the `<pooled>_p50` / `<pooled>_p99`
    /// percentiles named in `PER_LAYER`.
    pub fn metrics(&self) -> BTreeMap<&'static str, f64> {
        let mut m: BTreeMap<&'static str, f64> = self
            .series
            .iter()
            .map(|(&k, v)| (k, median(v)))
            .chain(self.counts.iter().map(|(&k, &v)| (k, v)))
            .collect();
        for &(name, _) in &PER_LAYER {
            for (suffix, q) in [("_p50", 0.5), ("_p99", 0.99)] {
                if let Some(p) = name
                    .strip_suffix(suffix)
                    .and_then(|base| self.pooled.get(base))
                {
                    m.insert(name, quantile(p, q));
                }
            }
        }
        m
    }
}
