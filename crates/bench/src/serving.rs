//! The harness the `serve_*` scenarios share: the simulated world a
//! serving run needs, the tier sizing of its trace, and the probe that
//! an armed-but-inert controller reproduces the plain run.

use lina_model::{CostModel, MoeModelConfig};
use lina_netsim::Topology;
use lina_serve::{ClusterConfig, ClusterEngine, ClusterOutcome, ServeConfig};
use lina_simcore::{SimDuration, SimTime};
use lina_workload::WorkloadSpec;

use crate::{ScenarioCtx, Tier};

/// A serving run's cost model, topology and workload.
pub(crate) struct ServeWorld {
    pub cost: CostModel,
    pub topo: Topology,
    pub spec: WorkloadSpec,
}

impl ServeWorld {
    /// Transformer-XL inference with `layers` MoE layers of `experts`
    /// experts, one device per expert, on its enwik8 workload.
    pub fn new(layers: usize, experts: usize) -> ServeWorld {
        let model = MoeModelConfig::transformer_xl(layers, experts);
        ServeWorld {
            topo: crate::topo(experts),
            spec: crate::workload_for(&model, experts, model.layers),
            cost: crate::infer_cost(model),
        }
    }

    /// The run `config` describes in this world.
    pub fn engine(&self, config: ClusterConfig) -> ClusterEngine<'_> {
        ClusterEngine::new(&self.cost, &self.topo, &self.spec, config)
    }

    /// Runs `config` to completion.
    pub fn run(&self, config: ClusterConfig) -> ClusterOutcome {
        self.engine(config).run()
    }

    /// `config`'s aggregate capacity (req/s), the anchor of offered load.
    pub fn capacity(&self, config: ClusterConfig) -> f64 {
        self.engine(config).capacity()
    }

    /// The last arrival of `serve`'s trace: the span a healthy run's
    /// arrivals cover, streamed without holding the trace.
    pub fn span(&self, serve: ServeConfig) -> SimDuration {
        self.engine(ClusterConfig::single(serve))
            .engine()
            .request_stream()
            .last()
            .expect("nonempty request trace")
            .arrival
            .saturating_since(SimTime::ZERO)
    }
}

/// Requests per run and tokens per request at the context's tier:
/// `full` requests of 8,192 tokens, or `smoke` requests of 2,048.
pub(crate) fn sized(ctx: &ScenarioCtx, full: usize, smoke: usize) -> (usize, usize) {
    match ctx.tier {
        Tier::Full => (full, 8192),
        Tier::Smoke => (smoke, 2048),
    }
}

/// 1.0 when two runs produced the same outcome, every counter, record,
/// failure and depth sample included; 0.0 otherwise.
pub(crate) fn identical(a: &ClusterOutcome, b: &ClusterOutcome) -> f64 {
    if format!("{a:?}") == format!("{b:?}") {
        1.0
    } else {
        0.0
    }
}
