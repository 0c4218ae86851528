//! Serving workloads: untimed set-up, timed `ClusterEngine::run`
//! iterations, and the traced layer replay.

use std::collections::BTreeMap;
use std::time::Instant;

use lina_serve::{ClusterConfig, ClusterEngine, ClusterOutcome};

use crate::check;
use crate::replay::{replay_serving, Timings};
use crate::run::{cpu_time, repeat, DigestCheck, Outcome, Traced, RATE};
use crate::workloads::{cluster_config, load, ServeWorld};
use crate::Args;

/// A serving workload's set-up: the world plus the final config, whose
/// arrival rate is anchored on the probed cluster capacity.
struct ServeSetup {
    world: ServeWorld,
    config: ClusterConfig,
}

impl ServeSetup {
    fn new(args: &Args) -> Self {
        let world = ServeWorld::new();
        let probe = cluster_config(args.workload, args.seed, args.size, 1.0);
        let capacity = ClusterEngine::new(&world.cost, &world.topo, &world.spec, probe).capacity();
        let rate = load(args.workload) * capacity;
        let config = cluster_config(args.workload, args.seed, args.size, rate);
        ServeSetup { world, config }
    }

    fn engine(&self) -> ClusterEngine<'_> {
        let w = &self.world;
        ClusterEngine::new(&w.cost, &w.topo, &w.spec, self.config.clone())
    }

    /// Whether `out` is a correct run: conservation plus the digest.
    fn accepts(&self, out: &ClusterOutcome, digests: &mut DigestCheck) -> bool {
        let conserved = check::conserves(out, self.config.serve.n_requests);
        if !conserved {
            eprintln!("simbench: request conservation violated");
        }
        digests.accepts(check::serving_digest(out)) && conserved
    }
}

/// End-to-end run: simulated requests reaching a terminal outcome per
/// reference second of `ClusterEngine::run` over the lazily streamed
/// trace.
pub fn untraced(args: &Args) -> Outcome {
    let setup = ServeSetup::new(args);
    let engine = setup.engine();
    let mut digests = DigestCheck::new(args);
    let mut terminal = 0;
    let done = repeat(
        args.seconds,
        || ServeSetup::new(args),
        || {
            let (out, cpu) = cpu_time(|| engine.run());
            terminal = out.tracker.records().len() + out.tracker.failures().len();
            (setup.accepts(&out, &mut digests), cpu)
        },
    );
    digests.report();
    Outcome {
        attempted: done.attempted,
        failed: done.failed,
        metrics: BTreeMap::from([
            ("setup_s", done.setup_s),
            (RATE, terminal as f64 / done.iter_s),
            ("peak_rss_mb", done.peak_rss_mb),
        ]),
    }
}

/// Traced run: each iteration runs the workload untraced, then
/// generates the trace, runs it through `ClusterEngine::run_trace`, and
/// replays every layer on the recorded batches.
pub fn traced(args: &Args) -> Outcome {
    let setup = ServeSetup::new(args);
    let engine = setup.engine();
    let mut digests = DigestCheck::new(args);
    let mut t = Traced::default();
    let done = repeat(
        args.seconds,
        || (),
        || {
            let t0 = Instant::now();
            let untraced = engine.run();
            let untraced_s = t0.elapsed().as_secs_f64();

            let mut gen = Timings::default();
            let mut run = Timings::default();
            let mut report = Timings::default();
            let mut replay = Timings::default();
            let trace = gen.time(|| engine.engine().generate_requests());
            let input = trace.clone();
            let out = run.time(|| engine.run_trace(input));
            let slo = report.time(|| out.report());
            let r = replay.time(|| replay_serving(&setup.world, &setup.config, &trace, &out));
            let traced_s = gen.total() + run.total() + report.total() + replay.total();

            t.push("workload.gen_s", gen.total());
            t.push("serve.run_trace_s", run.total());
            t.push("serve.self_s", run.total() - r.busy());
            t.push("serve.report_s", report.total());
            t.push("core.profile_s", r.profile.total());
            t.push("plan.s", r.plan.total());
            t.push("solo.s", r.solo.total());
            t.push("net.s", r.net.total() + r.net_advance.total());
            t.push("trace.overhead_frac", traced_s / untraced_s);
            t.pool("core.profile_ms", &r.profile, 1e3);
            t.pool("plan.us", &r.plan, 1e6);
            t.pool("solo.us", &r.solo, 1e6);
            t.pool("net.advance_us", &r.net_advance, 1e6);
            let tokens: usize = trace.iter().map(|q| q.tokens.len()).sum();
            t.count("workload.requests", trace.len() as f64);
            t.count("workload.tokens", tokens as f64);
            t.count("serve.batches", out.batches as f64);
            t.count("serve.reestimations", out.reestimations as f64);
            t.count("serve.completed", slo.requests as f64);
            t.count("serve.failed", (slo.dropped + slo.timed_out) as f64);
            t.count("serve.hedges_issued", out.hedges_issued as f64);
            t.count("serve.plan_cache_hit_rate", out.plan_cache.hit_rate());
            t.count("core.profile_calls", r.profile.calls() as f64);
            t.count("core.profile_token_layers", r.profile_token_layers as f64);
            t.count("plan.calls", r.plan.calls() as f64);
            t.count("plan.a2a_bytes", r.a2a_bytes);
            t.count("plan.collectives", r.collectives as f64);
            t.count("solo.calls", r.solo.calls() as f64);
            t.count("net.submits", r.net_submits as f64);
            t.count("net.advances", r.net_advance.calls() as f64);
            t.count("net.peak_inflight", r.net_peak_inflight as f64);
            t.count(
                "replay.service_match_frac",
                r.matched as f64 / r.batches.max(1) as f64,
            );
            let same = check::serving_digest(&out) == check::serving_digest(&untraced);
            if !same {
                eprintln!("simbench: run_trace disagrees with run");
            }
            (setup.accepts(&out, &mut digests) && same, 0.0)
        },
    );
    digests.report();
    Outcome {
        attempted: done.attempted,
        failed: done.failed,
        metrics: t.metrics(),
    }
}
