//! The serving loop.
//!
//! A [`ServeEngine`] pre-generates an open-loop request trace (arrival
//! process + per-request tokens), then walks a single-server timeline:
//! the [`Batcher`](crate::Batcher) decides when each batch leaves the
//! admission queue, the batch runs through
//! [`run_inference_batch`](lina_runner::inference::run_inference_batch)
//! under the configured scheme, and every member request is charged
//! its queueing delay plus the batch's model time.
//!
//! Two serving-specific mechanisms sit on top of the paper's per-batch
//! machinery:
//!
//! * **popularity drift** — the workload's Zipf class ranking rotates
//!   every [`ServeConfig::drift_period`] requests (via
//!   [`TokenSource::set_class_rotation`]), so the hot experts change
//!   over the run;
//! * **online re-placement** — for the estimating Lina schemes, the
//!   popularity estimator is periodically re-profiled from a sliding
//!   window of recently served batches and the two-phase scheduler
//!   rebuilt, so placement follows the drifted distribution instead of
//!   the stale offline profile.

use std::collections::VecDeque;

use lina_baselines::InferScheme;
use lina_core::{PopularityEstimator, TwoPhaseConfig, TwoPhaseScheduler};
use lina_model::CostModel;
use lina_netsim::Topology;
use lina_runner::inference::{run_inference_batch, InferenceConfig};
use lina_runner::NetworkMode;
use lina_simcore::{Rng, SimDuration};
use lina_workload::{Mode, TokenBatch, TokenPath, TokenSource, WorkloadSpec};

use crate::arrival::{ArrivalProcess, ArrivalStream};
use crate::balancer::BalancerKind;
use crate::batcher::BatcherConfig;
use crate::cluster::{ClusterConfig, ClusterEngine, EstimatorSharing};
use crate::faults::FaultPlan;
use crate::health::HealthConfig;
use crate::request::Request;
use crate::slo::{SloReport, SloTracker};

/// The paper's inference experiments use 16384 tokens per device; the
/// measured scheduling overheads (6.2 ms schedule, 1.45 ms resume)
/// belong to that scale and shrink proportionally for the much smaller
/// serving batches.
const PAPER_TOKENS_PER_DEVICE: f64 = 16_384.0;

/// Serving-run configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Scheme under test.
    pub scheme: InferScheme,
    /// Gate fan-out (1 in the paper's inference).
    pub top_k: usize,
    /// Estimator sample-path length `l` (paper: 3).
    pub path_length: usize,
    /// Packing depth cap for the re-placement. The paper's 4 suits
    /// 16k-token batches; serving batches are orders of magnitude
    /// smaller, where each packed expert's weight swap (~0.35 ms over
    /// PCIe) is no longer hidden behind expert compute, so shallow
    /// packing (2) is the serving default.
    pub max_experts_per_device: usize,
    /// The open-loop arrival process.
    pub arrival: ArrivalProcess,
    /// Dynamic-batching knobs.
    pub batcher: BatcherConfig,
    /// Latency target for SLO attainment.
    pub slo: SimDuration,
    /// Requests to serve.
    pub n_requests: usize,
    /// Tokens per request (the nominal size when `token_spread > 0`).
    pub tokens_per_request: usize,
    /// Fractional half-width of the per-request size spread: each
    /// request's token count draws uniformly from
    /// `[nominal·(1−s), nominal·(1+s)]`, clamped to ≥ 1 token. At 0.0
    /// every request is exactly `tokens_per_request` tokens and the
    /// trace is bit-identical to the fixed-size serving model. Size
    /// heterogeneity is what separates work-aware balancing
    /// (join-shortest-queue over outstanding *tokens*) from blind
    /// request counting.
    pub token_spread: f64,
    /// Rotate the workload's popular-class ranking every this many
    /// requests (`None`: the popularity distribution is stationary).
    pub drift_period: Option<usize>,
    /// Re-profile the estimator and rebuild the scheduler every this
    /// many dispatched batches (`None`: keep the offline profile).
    /// Ignored by the schemes that never estimate.
    pub reestimate_every: Option<usize>,
    /// How many recently served batches the re-profiling window holds.
    pub reestimate_window: usize,
    /// How in-flight batches price their collectives:
    /// [`NetworkMode::Solo`] is the closed-form uncontended costing
    /// (the historical behaviour, bit-identical to the pre-event-loop
    /// engine), [`NetworkMode::Contended`] runs every in-flight batch's
    /// all-to-alls on one shared network per replica, so concurrent
    /// dispatches fair-share NIC bandwidth.
    pub network: NetworkMode,
    /// Batches a replica may have in flight at once. At 1 (the
    /// busy-until-done default) batches serialize on each replica;
    /// higher values admit the next batch while earlier ones still
    /// run. Solo pricing still charges each overlapped batch its
    /// uncontended time; contended pricing makes the overlap visible
    /// on the wire.
    pub max_inflight: usize,
    /// Master seed: arrivals, request tokens, and the offline profile
    /// all derive from it.
    pub seed: u64,
    /// No longer read. The simulator has one serving path, so there is
    /// nothing left to tune; the unit field stays only so configs that
    /// still write `perf: Default::default()` keep compiling.
    pub perf: (),
}

/// The seed substreams every consumer of a [`ServeConfig`] derives
/// from its master seed. Centralized so trace generation, capacity
/// probing, and the serving loops (single-server and cluster) can
/// never drift apart in derivation order.
pub(crate) struct Seeds {
    /// Seeds the request [`TokenSource`].
    pub token: u64,
    /// Seeds the offline profiling stage.
    pub profile: u64,
    /// The arrival-process substream (a pure `derive(1)` of the root,
    /// independent of the sequential draws above).
    pub arrival: Rng,
    /// The per-request size substream (a pure `derive(2)` of the root;
    /// drawing from it never perturbs the other streams, so a zero
    /// `token_spread` reproduces the fixed-size traces bit for bit).
    pub sizes: Rng,
    /// The retry-backoff jitter substream (a pure `derive(3)` of the
    /// root; [`DegradationPolicy::backoff_jittered`] sub-derives
    /// per-(request, attempt) streams from it, and a zero jitter never
    /// draws at all).
    ///
    /// [`DegradationPolicy::backoff_jittered`]: crate::DegradationPolicy::backoff_jittered
    pub retry: Rng,
}

impl ServeConfig {
    /// Derives the seed substreams: first sequential draw is the token
    /// seed, second the profile seed; arrivals use a derived substream.
    pub(crate) fn seeds(&self) -> Seeds {
        let mut root = Rng::new(self.seed);
        let arrival = root.derive(1);
        let sizes = root.derive(2);
        let retry = root.derive(3);
        let token = root.next_u64();
        let profile = root.next_u64();
        Seeds {
            token,
            profile,
            arrival,
            sizes,
            retry,
        }
    }

    /// Validates the knobs.
    ///
    /// # Panics
    ///
    /// Panics on a zero request count, token count, path length,
    /// drift period, re-estimation period, or re-estimation window.
    pub fn validate(&self) {
        self.batcher.validate();
        assert!(self.n_requests > 0, "serve: n_requests must be > 0");
        assert!(
            self.tokens_per_request > 0,
            "serve: tokens_per_request must be > 0"
        );
        assert!(
            (0.0..1.0).contains(&self.token_spread),
            "serve: token_spread must be in [0, 1)"
        );
        assert!(self.path_length > 0, "serve: path_length must be > 0");
        assert!(
            self.max_experts_per_device > 0,
            "serve: max_experts_per_device must be > 0"
        );
        assert!(
            self.drift_period != Some(0),
            "serve: drift_period must be > 0"
        );
        assert!(
            self.reestimate_every != Some(0),
            "serve: reestimate_every must be > 0"
        );
        if self.reestimate_every.is_some() {
            assert!(
                self.reestimate_window > 0,
                "serve: reestimate_window must be > 0"
            );
        }
        assert!(self.max_inflight > 0, "serve: max_inflight must be > 0");
    }
}

/// Sliding window of recently served batches feeding online
/// re-profiling. Evicting the oldest batch is O(1) (`VecDeque`), so a
/// long run with a large window stays linear in batches dispatched.
pub(crate) struct ReestimationWindow {
    batches: VecDeque<TokenBatch>,
    cap: usize,
}

impl ReestimationWindow {
    /// An empty window holding at most `cap` batches.
    pub(crate) fn new(cap: usize) -> Self {
        ReestimationWindow {
            batches: VecDeque::new(),
            cap,
        }
    }

    /// Pushes a served batch, evicting the oldest past the cap.
    pub(crate) fn push(&mut self, batch: TokenBatch) {
        self.batches.push_back(batch);
        if self.batches.len() > self.cap {
            self.batches.pop_front();
        }
    }

    /// Re-profiles a popularity estimator from the windowed batches.
    pub(crate) fn profile(&mut self, path_length: usize) -> PopularityEstimator {
        PopularityEstimator::profile(self.batches.make_contiguous(), path_length)
    }

    /// No batches observed yet (an emergency re-placement has nothing
    /// to re-profile from).
    pub(crate) fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Drops every windowed batch. Called when the shard map changes
    /// (re-placement, recovery, re-sharding): samples observed under
    /// the old placement would otherwise blend into post-placement
    /// cost estimates.
    pub(crate) fn clear(&mut self) {
        self.batches.clear();
    }

    /// Token-selections routed to each expert across the windowed
    /// batches, summed over every layer — the per-expert load signal
    /// the re-sharding monitor reads.
    pub(crate) fn expert_token_counts(&self, experts: usize) -> Vec<u64> {
        let mut counts = vec![0u64; experts];
        for batch in &self.batches {
            for tok in &batch.tokens {
                for layer in &tok.selections {
                    for &e in layer {
                        counts[e as usize] += 1;
                    }
                }
            }
        }
        counts
    }
}

/// Everything a serving run produced.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Per-request records and the queue-depth timeline.
    pub tracker: SloTracker,
    /// Batches dispatched.
    pub batches: usize,
    /// Times the estimator was re-profiled online.
    pub reestimations: usize,
}

impl ServeOutcome {
    /// Summarizes the run (see [`SloTracker::report`]).
    pub fn report(&self) -> SloReport {
        self.tracker.report()
    }
}

/// The serving simulator. Holds the model/cluster/workload context and
/// a [`ServeConfig`]; [`ServeEngine::run`] is deterministic in all of
/// them.
pub struct ServeEngine<'a> {
    pub(crate) cost: &'a CostModel,
    pub(crate) topo: &'a Topology,
    pub(crate) spec: &'a WorkloadSpec,
    pub(crate) config: ServeConfig,
}

impl<'a> ServeEngine<'a> {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`ServeConfig::validate`]).
    pub fn new(
        cost: &'a CostModel,
        topo: &'a Topology,
        spec: &'a WorkloadSpec,
        config: ServeConfig,
    ) -> Self {
        config.validate();
        ServeEngine {
            cost,
            topo,
            spec,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Scheduling overheads scaled from the paper's measurement scale
    /// down to this engine's full-batch size.
    pub(crate) fn two_phase_config(&self) -> TwoPhaseConfig {
        let devices = self.topo.devices();
        let full_tokens_per_device = (self.config.batcher.max_batch_requests
            * self.config.tokens_per_request)
            .div_ceil(devices)
            .max(1);
        let factor =
            (full_tokens_per_device as f64 / PAPER_TOKENS_PER_DEVICE).clamp(1.0 / 512.0, 1.0);
        let mut cfg = TwoPhaseConfig::paper_defaults(devices);
        cfg.top_k = self.config.top_k;
        cfg.max_experts_per_device = self.config.max_experts_per_device;
        cfg.schedule_time = cfg.schedule_time.mul_f64(factor);
        cfg.resume_time = cfg.resume_time.mul_f64(factor);
        cfg
    }

    pub(crate) fn needs_scheduler(&self) -> bool {
        matches!(
            self.config.scheme,
            InferScheme::Lina | InferScheme::LinaNoEstimation | InferScheme::LinaNoFinetune
        )
    }

    pub(crate) fn estimates(&self) -> bool {
        matches!(
            self.config.scheme,
            InferScheme::Lina | InferScheme::LinaNoFinetune
        )
    }

    /// Builds the offline-profiled scheduler, as the paper's profiling
    /// stage does: training-distribution batches, no drift.
    pub(crate) fn offline_scheduler(&self, profile_seed: u64) -> TwoPhaseScheduler {
        let devices = self.topo.devices();
        let mut src = TokenSource::new(self.spec, self.config.top_k, profile_seed);
        let profile: Vec<TokenBatch> = (0..8)
            .map(|_| src.sample_batch(devices, 1024, Mode::Train))
            .collect();
        let estimator = PopularityEstimator::profile(&profile, self.config.path_length);
        TwoPhaseScheduler::new(self.two_phase_config(), estimator)
    }

    /// Streams the open-loop request trace lazily: arrival instants
    /// from the arrival process, tokens from the workload's gating
    /// model, with the popular-class ranking rotated every
    /// `drift_period` requests. Yields exactly
    /// [`ServeConfig::n_requests`] requests in `(arrival, id)` order
    /// without materializing them, so a million-request diurnal run
    /// holds only the in-flight backlog in memory. Because every
    /// substream (arrivals, sizes, tokens) draws from its own seeded
    /// rng, the streamed trace is bit-identical to the eager one.
    pub fn request_stream(&self) -> RequestStream<'_> {
        let seeds = self.config.seeds();
        let nominal = self.config.tokens_per_request as f64;
        let size_lo = ((nominal * (1.0 - self.config.token_spread)).round() as u64).max(1);
        let size_hi = ((nominal * (1.0 + self.config.token_spread)).round() as u64).max(size_lo);
        RequestStream {
            arrivals: self.config.arrival.stream(seeds.arrival),
            source: TokenSource::new(self.spec, self.config.top_k, seeds.token),
            sizes: seeds.sizes,
            drift_period: self.config.drift_period,
            size_lo,
            size_hi,
            next_id: 0,
            remaining: self.config.n_requests,
        }
    }

    /// Pre-generates the open-loop request trace eagerly — the
    /// collecting wrapper over [`ServeEngine::request_stream`].
    pub fn generate_requests(&self) -> Vec<Request> {
        self.request_stream().collect()
    }

    /// Upper bound on sustainable throughput (requests/s): a full batch
    /// of nominal-size requests served back-to-back with no queueing.
    /// Load sweeps express offered load as a fraction of this.
    pub fn capacity(&self) -> f64 {
        let seeds = self.config.seeds();
        let scheduler = self
            .needs_scheduler()
            .then(|| self.offline_scheduler(seeds.profile));
        let mut source = TokenSource::new(self.spec, self.config.top_k, seeds.token);
        let per_batch = self.config.batcher.max_batch_requests;
        let tokens: Vec<TokenPath> = (0..per_batch)
            .flat_map(|_| {
                source
                    .sample_batch(1, self.config.tokens_per_request, Mode::Inference)
                    .tokens
            })
            .collect();
        let batch = TokenBatch {
            tokens,
            devices: self.topo.devices(),
            experts: self.spec.experts,
        };
        let infer = InferenceConfig {
            scheme: self.config.scheme,
            top_k: self.config.top_k,
        };
        let report = run_inference_batch(self.cost, self.topo, &infer, scheduler.as_ref(), &batch);
        per_batch as f64 / report.total.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Runs the full serving simulation.
    ///
    /// The single-server timeline is a one-replica [`ClusterEngine`]:
    /// round-robin routing, no faults, no controllers.
    pub fn run(&self) -> ServeOutcome {
        let single = ClusterConfig {
            serve: self.config.clone(),
            replicas: 1,
            balancer: BalancerKind::RoundRobin,
            sharing: EstimatorSharing::Shared,
            faults: FaultPlan::none(),
            autoscale: None,
            resharding: None,
            placement: None,
            locality: false,
            health: HealthConfig::oracle(),
            hedging: None,
        };
        let outcome = ClusterEngine::new(self.cost, self.topo, self.spec, single).run();
        ServeOutcome {
            tracker: outcome.tracker,
            batches: outcome.batches,
            reestimations: outcome.reestimations,
        }
    }
}

/// The lazy request trace: an iterator yielding the engine's
/// open-loop requests one at a time, in `(arrival, id)` order. See
/// [`ServeEngine::request_stream`].
pub struct RequestStream<'a> {
    arrivals: ArrivalStream<'a>,
    source: TokenSource,
    sizes: Rng,
    drift_period: Option<usize>,
    size_lo: u64,
    size_hi: u64,
    next_id: usize,
    remaining: usize,
}

impl Iterator for RequestStream<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let id = self.next_id;
        self.next_id += 1;
        let arrival = self.arrivals.next().expect("arrival streams are infinite");
        if let Some(period) = self.drift_period {
            self.source.set_class_rotation(id / period);
        }
        let size = self.sizes.range_inclusive(self.size_lo, self.size_hi) as usize;
        // Sampling each request as a tiny batch keeps the per-batch
        // topic burstiness: a request is "about" a few topics, like
        // the paper's skewed batches.
        let tokens = self.source.sample_batch(1, size, Mode::Inference).tokens;
        Some(Request {
            id,
            arrival,
            tokens,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Convenience wrapper: build a [`ServeEngine`] and run it.
pub fn serve(
    cost: &CostModel,
    topo: &Topology,
    spec: &WorkloadSpec,
    config: ServeConfig,
) -> ServeOutcome {
    ServeEngine::new(cost, topo, spec, config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_model::{DeviceSpec, MoeModelConfig};
    use lina_netsim::ClusterSpec;
    use lina_simcore::SimTime;

    fn world() -> (CostModel, Topology, WorkloadSpec) {
        let model = MoeModelConfig::transformer_xl(6, 8).for_inference();
        let topo = Topology::new(ClusterSpec::with_total_gpus(8));
        let cost = CostModel::new(DeviceSpec::a100_inference(), model);
        let spec = WorkloadSpec::enwik8(8, 6);
        (cost, topo, spec)
    }

    fn config(scheme: InferScheme, rate: f64) -> ServeConfig {
        ServeConfig {
            scheme,
            top_k: 1,
            path_length: 3,
            max_experts_per_device: 2,
            arrival: ArrivalProcess::Poisson { rate },
            batcher: BatcherConfig {
                max_batch_requests: 4,
                max_wait: SimDuration::from_millis(2),
            },
            slo: SimDuration::from_millis(50),
            n_requests: 64,
            tokens_per_request: 64,
            token_spread: 0.0,
            drift_period: Some(16),
            reestimate_every: Some(4),
            reestimate_window: 8,
            network: NetworkMode::Solo,
            max_inflight: 1,
            seed: 0x5EED,
            perf: (),
        }
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let (cost, topo, spec) = world();
        let out = serve(&cost, &topo, &spec, config(InferScheme::Lina, 400.0));
        let mut ids: Vec<usize> = out.tracker.records().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());
        assert!(out.batches >= 64 / 4);
        assert!(out.reestimations > 0);
    }

    #[test]
    fn dispatch_respects_arrival_and_server_order() {
        let (cost, topo, spec) = world();
        let out = serve(&cost, &topo, &spec, config(InferScheme::Baseline, 1000.0));
        let records = out.tracker.records();
        for r in records {
            assert!(
                r.dispatched >= r.arrival,
                "request {} dispatched early",
                r.id
            );
            assert!(r.completed > r.dispatched);
        }
        // Batches never overlap on the single server.
        let mut spans: Vec<(SimTime, SimTime)> = records
            .iter()
            .map(|r| (r.dispatched, r.completed))
            .collect();
        spans.sort();
        spans.dedup();
        for w in spans.windows(2) {
            assert!(w[1].0 >= w[0].1, "overlapping batches: {w:?}");
        }
    }

    #[test]
    fn capacity_is_positive_and_finite() {
        let (cost, topo, spec) = world();
        let engine = ServeEngine::new(&cost, &topo, &spec, config(InferScheme::Baseline, 100.0));
        let c = engine.capacity();
        assert!(c.is_finite() && c > 0.0);
    }

    #[test]
    fn drift_rotates_request_classes() {
        let (cost, topo, spec) = world();
        let engine = ServeEngine::new(&cost, &topo, &spec, config(InferScheme::Lina, 100.0));
        let requests = engine.generate_requests();
        let modal = |rs: &[Request]| {
            let mut counts = vec![0usize; spec.classes];
            for r in rs {
                for t in &r.tokens {
                    counts[t.class] += 1;
                }
            }
            counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .expect("nonempty")
                .0
        };
        // Drift period 16 with 64 requests: four rotation epochs. The
        // first and last epochs see different modal classes.
        assert_ne!(modal(&requests[..16]), modal(&requests[48..]));
    }

    #[test]
    fn reestimation_disabled_for_non_estimating_schemes() {
        let (cost, topo, spec) = world();
        let out = serve(
            &cost,
            &topo,
            &spec,
            config(InferScheme::LinaNoEstimation, 400.0),
        );
        assert_eq!(out.reestimations, 0);
    }

    #[test]
    fn token_spread_varies_request_sizes_within_bounds() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 100.0);
        c.token_spread = 0.5;
        let engine = ServeEngine::new(&cost, &topo, &spec, c);
        let sizes: Vec<usize> = engine
            .generate_requests()
            .iter()
            .map(|r| r.tokens.len())
            .collect();
        assert!(sizes.iter().all(|&s| (32..=96).contains(&s)));
        let distinct: std::collections::HashSet<usize> = sizes.iter().copied().collect();
        assert!(distinct.len() > 1, "spread must actually vary sizes");
        // And the same config reproduces the same sizes.
        assert_eq!(
            sizes,
            engine
                .generate_requests()
                .iter()
                .map(|r| r.tokens.len())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_spread_keeps_sizes_fixed() {
        let (cost, topo, spec) = world();
        let engine = ServeEngine::new(&cost, &topo, &spec, config(InferScheme::Baseline, 100.0));
        assert!(engine
            .generate_requests()
            .iter()
            .all(|r| r.tokens.len() == 64));
    }

    #[test]
    #[should_panic(expected = "token_spread")]
    fn out_of_range_spread_rejected() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 100.0);
        c.token_spread = 1.0;
        ServeEngine::new(&cost, &topo, &spec, c);
    }

    #[test]
    #[should_panic(expected = "n_requests")]
    fn zero_requests_rejected() {
        let (cost, topo, spec) = world();
        let mut c = config(InferScheme::Baseline, 100.0);
        c.n_requests = 0;
        ServeEngine::new(&cost, &topo, &spec, c);
    }
}
