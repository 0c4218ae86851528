//! The training workload: one step per scheme per iteration through
//! `run_train_step`, and the traced graph/exec/net replay.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use lina_model::{balanced_routing, build_train_step};
use lina_runner::{run_train_step, StepMetrics};

use lina_runner::Fnv128;

use crate::check;
use crate::replay::{replay_train, Timings, TrainReplay};
use crate::run::{cpu_time, repeat, DigestCheck, Outcome, Traced, RATE};
use crate::workloads::TrainWorld;
use crate::Args;

/// One training iteration: every scheme's step, their digest, and
/// whether Lina kept its no-loss guarantee over the baseline.
fn steps(world: &TrainWorld, seed: u64) -> (Vec<StepMetrics>, u128, bool) {
    let steps: Vec<StepMetrics> = world
        .schemes
        .iter()
        .map(|&s| run_train_step(&world.cost, &world.topo, world.batch, s, seed).metrics)
        .collect();
    let mut d = Fnv128::new();
    steps.iter().for_each(|m| check::step_digest(&mut d, m));
    let sane = steps[1].step_time <= steps[0].step_time
        && steps.iter().all(|m| m.step_time.as_nanos() > 0);
    if !sane {
        eprintln!("simbench: training step times out of order");
    }
    (steps, d.finish(), sane)
}

/// The world plus everything the first step does before its first
/// simulated event: routing, step options, and the op graph.
fn setup(args: &Args) -> TrainWorld {
    let world = TrainWorld::new(args.size);
    let model = &world.cost.model;
    let scheme = world.schemes[0];
    let routing = balanced_routing(model, world.topo.devices(), world.batch);
    let mut opts = scheme.step_options(model.experts, &world.topo);
    opts.seed = args.seed;
    black_box(build_train_step(
        &world.cost,
        &world.topo,
        world.batch,
        &routing,
        &opts,
    ));
    world
}

/// End-to-end run: simulated training sequences (the step's batch, one
/// step per scheme) per reference second.
pub fn untraced(args: &Args) -> Outcome {
    let world = setup(args);
    let mut digests = DigestCheck::new(args);
    let seqs = (world.batch.seqs_per_device * world.topo.devices() * world.schemes.len()) as f64;
    let done = repeat(
        args.seconds,
        || setup(args),
        || {
            let ((_, digest, sane), cpu) = cpu_time(|| steps(&world, args.seed));
            (digests.accepts(digest) && sane, cpu)
        },
    );
    digests.report();
    Outcome {
        attempted: done.attempted,
        failed: done.failed,
        metrics: BTreeMap::from([
            ("setup_s", done.setup_s),
            (RATE, seqs / done.iter_s),
            ("peak_rss_mb", done.peak_rss_mb),
        ]),
    }
}

/// Traced run: each iteration steps untraced, then builds, executes,
/// and replays the collectives of each scheme's step.
pub fn traced(args: &Args) -> Outcome {
    let world = TrainWorld::new(args.size);
    let mut digests = DigestCheck::new(args);
    let mut t = Traced::default();
    let done = repeat(
        args.seconds,
        || (),
        || {
            let t0 = Instant::now();
            let (steps, digest, sane) = steps(&world, args.seed);
            let untraced_s = t0.elapsed().as_secs_f64();

            let mut r = TrainReplay::default();
            let mut traced = Timings::default();
            let makespans = traced.time(|| replay_train(&world, args.seed, &mut r));

            t.push("workload.gen_s", r.routing.total());
            t.push("graph.build_s", r.build.total());
            t.push("exec.s", r.exec.total());
            t.push("net.s", r.net.total() + r.net_advance.total());
            t.push("trace.overhead_frac", traced.total() / untraced_s);
            t.pool("exec.step_ms", &r.exec, 1e3);
            t.pool("net.advance_us", &r.net_advance, 1e6);
            t.count("workload.tokens", r.tokens as f64);
            t.count("graph.ops", r.ops as f64);
            t.count("net.submits", r.net_submits as f64);
            t.count("net.advances", r.net_advance.calls() as f64);
            t.count("net.peak_inflight", r.net_peak_inflight as f64);
            t.count(
                "replay.service_match_frac",
                r.matched as f64 / (r.net_submits as f64).max(1.0),
            );
            let same = makespans.iter().zip(&steps).all(|(&m, s)| m == s.step_time);
            if !same {
                eprintln!("simbench: traced step disagrees with run_train_step");
            }
            (digests.accepts(digest) && sane && same, 0.0)
        },
    );
    digests.report();
    Outcome {
        attempted: done.attempted,
        failed: done.failed,
        metrics: t.metrics(),
    }
}
