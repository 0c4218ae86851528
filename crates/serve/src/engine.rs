//! The per-replica serving context.
//!
//! A [`ServeEngine`] holds what every replica of a serving run shares:
//! the cost model, topology, workload and [`ServeConfig`]. It streams
//! the open-loop request trace (arrival process + per-request tokens),
//! builds the offline-profiled two-phase scheduler, and probes a
//! replica's capacity. It does not run:
//! [`ClusterEngine`](crate::ClusterEngine) is the one serving loop,
//! and a single server is its one-replica case
//! ([`ClusterConfig::single`](crate::ClusterConfig::single)).
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
use std::sync::Arc;

use lina_baselines::InferScheme;
use lina_core::{PopularityEstimator, TwoPhaseConfig, TwoPhaseScheduler};
use lina_model::CostModel;
use lina_netsim::{SoloTimer, Topology};
use lina_runner::inference::InferenceConfig;
use lina_runner::{execute_plan_solo, plan_batch, NetworkMode};
use lina_simcore::{Rng, SimDuration};
use lina_workload::{Mode, TokenBatch, TokenPath, TokenSource, WorkloadSpec};

use crate::arrival::{ArrivalProcess, ArrivalStream};
use crate::batcher::BatcherConfig;
use crate::request::Request;

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
    /// [`NetworkMode::Solo`] prices each collective alone on an idle
    /// network (the historical behaviour, bit-identical to the
    /// pre-event-loop engine), [`NetworkMode::Contended`] runs every in-flight batch's
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
/// probing, and the serving loop can never drift apart in derivation
/// order.
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
    /// The serving defaults: top-1 gating, path length 3, at most 2
    /// experts per device, batches of up to 8 requests or 2 ms, a 60 ms
    /// SLO, 256-token requests without spread, stationary popularity,
    /// no re-estimation (window 8 if armed), solo pricing and one batch
    /// in flight. Configs that differ in a few fields spell only those
    /// and fill the rest with `..ServeConfig::new(scheme, arrival,
    /// n_requests, seed)`.
    pub fn new(scheme: InferScheme, arrival: ArrivalProcess, n_requests: usize, seed: u64) -> Self {
        ServeConfig {
            scheme,
            top_k: 1,
            path_length: 3,
            max_experts_per_device: 2,
            arrival,
            batcher: BatcherConfig {
                max_batch_requests: 8,
                max_wait: SimDuration::from_millis(2),
            },
            slo: SimDuration::from_millis(60),
            n_requests,
            tokens_per_request: 256,
            token_spread: 0.0,
            drift_period: None,
            reestimate_every: None,
            reestimate_window: 8,
            network: NetworkMode::Solo,
            max_inflight: 1,
            seed,
            perf: (),
        }
    }

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

/// The per-replica serving context: the model/cluster/workload and a
/// [`ServeConfig`]. Its trace, offline profile and capacity probe are
/// deterministic in all of them.
pub struct ServeEngine<'a> {
    pub(crate) cost: &'a CostModel,
    pub(crate) topo: &'a Topology,
    pub(crate) spec: &'a WorkloadSpec,
    pub(crate) config: ServeConfig,
}

impl<'a> ServeEngine<'a> {
    /// Creates an engine; [`ClusterEngine::new`](crate::ClusterEngine::new)
    /// is the public way to build one.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid (see [`ServeConfig::validate`]),
    /// or if the workload's expert or layer count differs from the
    /// model's.
    pub(crate) fn new(
        cost: &'a CostModel,
        topo: &'a Topology,
        spec: &'a WorkloadSpec,
        config: ServeConfig,
    ) -> Self {
        config.validate();
        assert_eq!(
            spec.experts, cost.model.experts,
            "serve: workload expert count must match the model"
        );
        assert_eq!(
            spec.layers, cost.model.layers,
            "serve: workload layer count must match the model"
        );
        ServeEngine {
            cost,
            topo,
            spec,
            config,
        }
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

    /// Builds the offline-profiled scheduler of the schemes that plan
    /// with one (`None` for the others), as the paper's profiling stage
    /// does: training-distribution batches, no drift.
    pub(crate) fn offline_scheduler(&self) -> Option<TwoPhaseScheduler> {
        if !self.config.scheme.needs_scheduler() {
            return None;
        }
        let devices = self.topo.devices();
        let mut src = TokenSource::new(self.spec, self.config.top_k, self.config.seeds().profile);
        let profile: Vec<TokenBatch> = (0..8)
            .map(|_| src.sample_batch(devices, 1024, Mode::Train))
            .collect();
        let estimator = PopularityEstimator::profile(&profile, self.config.path_length);
        Some(TwoPhaseScheduler::new(self.two_phase_config(), estimator))
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
    pub(crate) fn capacity(&self) -> f64 {
        self.capacity_with(self.offline_scheduler().as_ref())
    }

    /// [`capacity`](Self::capacity) planned with an offline scheduler
    /// the caller already built, so a run that probes its capacity
    /// profiles once.
    pub(crate) fn capacity_with(&self, scheduler: Option<&TwoPhaseScheduler>) -> f64 {
        let mut source = TokenSource::new(self.spec, self.config.top_k, self.config.seeds().token);
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
        let plan = plan_batch(self.cost, self.topo, &infer, scheduler, &batch);
        let report = execute_plan_solo(&plan, &mut SoloTimer::new(self.topo));
        per_batch as f64 / report.total.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

/// A popularity-estimator re-profiling window and the scheduler last
/// built from it: one per cluster run under shared sharing, one per
/// replica otherwise.
pub(crate) struct Estimate {
    /// The most recently served batches, oldest first, at most `cap`.
    /// Each is shared with the flight that dispatched it, so windowing
    /// a batch copies no token. Flushed whenever the shard map changes
    /// (device loss, recovery, re-sharding): samples observed under the
    /// old placement would otherwise blend into the new profile.
    window: VecDeque<Arc<TokenBatch>>,
    cap: usize,
    /// Re-profile every this many windowed batches; `None` (no period,
    /// or a scheme that never estimates) windows nothing.
    every: Option<usize>,
    scheduler: Option<TwoPhaseScheduler>,
    /// Batches pushed into the window over the run.
    observed: usize,
}

impl Estimate {
    /// Starts from `scheduler` (the offline profile) with an empty
    /// window, re-profiling as `config` says.
    pub(crate) fn new(scheduler: Option<TwoPhaseScheduler>, config: &ServeConfig) -> Self {
        Estimate {
            window: VecDeque::new(),
            cap: config.reestimate_window,
            every: config
                .reestimate_every
                .filter(|_| config.scheme.estimates()),
            scheduler,
            observed: 0,
        }
    }

    /// The scheduler batches are planned with.
    pub(crate) fn scheduler(&self) -> Option<&TwoPhaseScheduler> {
        self.scheduler.as_ref()
    }

    /// Rebuilds the scheduler from the windowed batches.
    fn reprofile(&mut self, engine: &ServeEngine) {
        let estimator = PopularityEstimator::profile(
            self.window.iter().map(Arc::as_ref),
            engine.config.path_length,
        );
        self.scheduler = Some(TwoPhaseScheduler::new(engine.two_phase_config(), estimator));
    }

    /// Windows a served batch and re-profiles every `every` batches;
    /// true when it did.
    pub(crate) fn observe(&mut self, batch: Arc<TokenBatch>, engine: &ServeEngine) -> bool {
        let Some(every) = self.every else {
            return false;
        };
        self.window.push_back(batch);
        if self.window.len() > self.cap {
            self.window.pop_front();
        }
        self.observed += 1;
        let due = self.observed.is_multiple_of(every);
        if due {
            self.reprofile(engine);
        }
        due
    }

    /// Drops the windowed samples: their shard map no longer holds.
    pub(crate) fn flush(&mut self) {
        self.window.clear();
    }

    /// An out-of-cycle rebuild (a device loss): re-profiles from a
    /// non-empty window, then flushes it.
    pub(crate) fn rebuild(&mut self, engine: &ServeEngine) {
        if !self.window.is_empty() {
            self.reprofile(engine);
            self.flush();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, ClusterEngine};
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
            batcher: BatcherConfig {
                max_batch_requests: 4,
                max_wait: SimDuration::from_millis(2),
            },
            slo: SimDuration::from_millis(50),
            tokens_per_request: 64,
            drift_period: Some(16),
            reestimate_every: Some(4),
            ..ServeConfig::new(scheme, ArrivalProcess::Poisson { rate }, 64, 0x5EED)
        }
    }

    #[test]
    fn serves_every_request_exactly_once() {
        let (cost, topo, spec) = world();
        let single = ClusterConfig::single(config(InferScheme::Lina, 400.0));
        let out = ClusterEngine::new(&cost, &topo, &spec, single).run();
        let mut ids: Vec<usize> = out.tracker.records().iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());
        assert!(out.batches >= 64 / 4);
        assert!(out.reestimations > 0);
    }

    #[test]
    fn dispatch_respects_arrival_and_server_order() {
        let (cost, topo, spec) = world();
        let single = ClusterConfig::single(config(InferScheme::Baseline, 1000.0));
        let out = ClusterEngine::new(&cost, &topo, &spec, single).run();
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
        let single = ClusterConfig::single(config(InferScheme::LinaNoEstimation, 400.0));
        let out = ClusterEngine::new(&cost, &topo, &spec, single).run();
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

    #[test]
    #[should_panic(expected = "workload expert count must match the model")]
    fn workload_with_other_expert_count_rejected() {
        let (cost, topo, _) = world();
        let spec = WorkloadSpec::enwik8(16, 6);
        ServeEngine::new(&cost, &topo, &spec, config(InferScheme::Baseline, 100.0));
    }

    #[test]
    #[should_panic(expected = "workload layer count must match the model")]
    fn workload_with_other_layer_count_rejected() {
        let (cost, topo, _) = world();
        let spec = WorkloadSpec::enwik8(8, 4);
        ServeEngine::new(&cost, &topo, &spec, config(InferScheme::Baseline, 100.0));
    }
}
