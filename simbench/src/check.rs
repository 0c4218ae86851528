//! Output checks: a digest over everything a run produced, the golden
//! digests of the default seed, and request conservation.

use lina_runner::{Fnv128, StepMetrics};
use lina_serve::{ClusterOutcome, RequestOutcome};

use crate::workloads::Workload;

/// The seed whose digests are pinned in [`golden`].
pub const DEFAULT_SEED: u64 = 1;

/// The pinned digest of a workload at [`DEFAULT_SEED`] and full size.
/// Any change to what the simulator computes changes these.
pub fn golden(workload: Workload) -> u128 {
    match workload {
        Workload::LinaDrift => 0x2755_70be_2ca0_bdc6_08e8_cce9_86ee_74f6,
        Workload::ContendedBaseline => 0x2137_7814_1785_aa53_c89c_d76b_698c_c351,
        Workload::OverloadArmed => 0x2369_d5d5_10b1_d4a8_de9c_23a2_4d04_3be7,
        Workload::TrainStep => 0x398b_df7f_fd25_59c6_2d27_c1cf_fe67_c8c7,
    }
}

/// Digest of a serving run: every record, every failure, the depth
/// timeline, and every outcome counter.
pub fn serving_digest(out: &ClusterOutcome) -> u128 {
    let mut d = Fnv128::new();
    let t = &out.tracker;
    d.write_u64(t.records().len() as u64);
    for r in t.records() {
        d.write_u64(r.id as u64);
        d.write_u64(r.arrival.as_nanos());
        d.write_u64(r.dispatched.as_nanos());
        d.write_u64(r.completed.as_nanos());
        d.write_u64(r.tokens as u64);
        d.write_u64(r.batch as u64);
        d.write_u64(r.service.as_nanos());
    }
    d.write_u64(t.failures().len() as u64);
    for f in t.failures() {
        d.write_u64(f.id as u64);
        d.write_u64(f.arrival.as_nanos());
        d.write_u64(f.ended.as_nanos());
        d.write_u64(f.tokens as u64);
        d.write_u64(match f.outcome {
            RequestOutcome::Completed => 0,
            RequestOutcome::Dropped => 1,
            RequestOutcome::TimedOut => 2,
        });
    }
    d.write_u64(t.depth_timeline().len() as u64);
    for &(at, depth) in t.depth_timeline() {
        d.write_u64(at.as_nanos());
        d.write_u64(depth as u64);
    }
    for v in [
        out.batches,
        out.reestimations,
        out.aborted_batches,
        out.faults_injected,
        out.emergency_replacements,
        out.scale_ups,
        out.scale_downs,
        out.replications,
        out.evictions,
        out.migrations,
        out.peak_replicas,
        out.hedges_issued,
        out.hedges_won,
    ] {
        d.write_u64(v as u64);
    }
    for per_replica in [
        &out.requests_per_replica,
        &out.tokens_per_replica,
        &out.batches_per_replica,
    ] {
        d.write_u64(per_replica.len() as u64);
        per_replica.iter().for_each(|&v| d.write_u64(v as u64));
    }
    d.write_u64(out.recovery_times.len() as u64);
    out.recovery_times
        .iter()
        .for_each(|r| d.write_u64(r.as_nanos()));
    d.write_u64(out.hedge_wasted_frac.to_bits());
    d.write_u64(out.replica_seconds.to_bits());
    d.write_u64(out.last_event.as_nanos());
    d.write_u64(out.local_hops);
    d.write_u64(out.routed_hops);
    d.finish()
}

/// Folds one training step's metrics into `d`.
pub fn step_digest(d: &mut Fnv128, m: &StepMetrics) {
    for t in [m.step_time, m.fwd_layer_time, m.bwd_layer_time, m.a2a_total] {
        d.write_u64(t.as_nanos());
    }
    d.write_u64(m.a2a_bwd_times.len() as u64);
    m.a2a_bwd_times
        .iter()
        .for_each(|t| d.write_u64(t.as_nanos()));
    m.a2a_bwd_slowdowns
        .iter()
        .for_each(|s| d.write_u64(s.to_bits()));
    m.a2a_bwd_overlapped
        .iter()
        .for_each(|&o| d.write_u64(u64::from(o)));
    d.write_u64(m.pipelining_efficiency.to_bits());
    d.write_u64(m.compute_util.to_bits());
}

/// Request conservation: every offered request reached exactly one
/// terminal outcome (a completion record or a failure record).
pub fn conserves(out: &ClusterOutcome, offered: usize) -> bool {
    let mut seen = vec![false; offered];
    let ids = out
        .tracker
        .records()
        .iter()
        .map(|r| r.id)
        .chain(out.tracker.failures().iter().map(|f| f.id));
    for id in ids {
        match seen.get_mut(id) {
            Some(s) if !*s => *s = true,
            _ => return false,
        }
    }
    seen.iter().all(|&s| s)
}
