//! Lina's expert-packing controller (§4.2, §6.1).
//!
//! Pipelining is only efficient when an expert-FFN micro-op takes about
//! as long as its all-to-all micro-op; with one expert per device the
//! FFN is far shorter. The controller starts at one expert per device
//! and doubles the packing while the measured FFN micro-op time stays
//! below the all-to-all micro-op time, stopping at the expert count and
//! falling back to DRAM-offloading when the packed weights exceed GPU
//! memory.

use lina_model::{CostModel, ExpertPlacement};
use lina_netsim::Topology;
use lina_simcore::SimDuration;

/// One measurement window's observations (the controller samples the
/// completion times of FFN and all-to-all micro-ops in the forward
/// pass).
#[derive(Clone, Copy, Debug)]
pub struct PackingObservation {
    /// Mean expert-FFN micro-op completion time.
    pub ffn_micro: SimDuration,
    /// Mean all-to-all micro-op completion time.
    pub a2a_micro: SimDuration,
}

/// The controller's decision after a measurement window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackingDecision {
    /// Keep the current packing.
    Keep,
    /// Double the number of experts per device.
    Grow,
}

/// Outcome of a full packing search.
#[derive(Clone, Debug)]
pub struct PackingPlan {
    /// Experts hosted per device.
    pub experts_per_device: usize,
    /// The resulting placement.
    pub placement: ExpertPlacement,
    /// True if packed expert weights exceed device memory and
    /// DRAM-offloading is required.
    pub dram_offloading: bool,
}

/// The expert-packing controller.
#[derive(Clone, Debug)]
pub struct PackingController {
    experts: usize,
    experts_per_device: usize,
}

impl PackingController {
    /// Starts at one expert per device.
    ///
    /// # Panics
    ///
    /// Panics if `experts` is zero.
    pub fn new(experts: usize) -> Self {
        assert!(experts > 0, "PackingController::new: zero experts");
        PackingController {
            experts,
            experts_per_device: 1,
        }
    }

    /// Current packing degree.
    pub fn experts_per_device(&self) -> usize {
        self.experts_per_device
    }

    /// Applies the paper's rule to one observation: grow while the FFN
    /// micro-op is shorter than the all-to-all micro-op and more
    /// packing is possible.
    pub fn decide(&mut self, obs: PackingObservation) -> PackingDecision {
        if obs.ffn_micro < obs.a2a_micro && self.experts_per_device < self.experts {
            self.experts_per_device = (self.experts_per_device * 2).min(self.experts);
            PackingDecision::Grow
        } else {
            PackingDecision::Keep
        }
    }

    /// Builds the placement for the current packing degree and checks
    /// device memory (model weights resident per device: non-expert
    /// replica plus `experts_per_device` experts per layer, doubled for
    /// gradients and optimizer state).
    pub fn plan(&self, cost: &CostModel, topo: &Topology) -> PackingPlan {
        let placement = ExpertPlacement::packed(self.experts, topo, self.experts_per_device);
        let model = &cost.model;
        let resident = (model.non_expert_params()
            + model.layers * model.expert_params() * self.experts_per_device)
            as f64
            * model.dtype_bytes as f64;
        // Parameters + gradients + optimizer state + activation head
        // room; 3x is the usual fp16-training floor.
        let needed = 3.0 * resident;
        let dram_offloading = needed > topo.spec().device_memory;
        PackingPlan {
            experts_per_device: self.experts_per_device,
            placement,
            dram_offloading,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lina_model::{DeviceSpec, MoeModelConfig};
    use lina_netsim::ClusterSpec;

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_secs_f64(v / 1e3)
    }

    #[test]
    fn grows_while_ffn_shorter() {
        let mut c = PackingController::new(16);
        assert_eq!(
            c.decide(PackingObservation {
                ffn_micro: ms(0.5),
                a2a_micro: ms(2.0)
            }),
            PackingDecision::Grow
        );
        assert_eq!(c.experts_per_device(), 2);
        assert_eq!(
            c.decide(PackingObservation {
                ffn_micro: ms(1.0),
                a2a_micro: ms(2.0)
            }),
            PackingDecision::Grow
        );
        assert_eq!(c.experts_per_device(), 4);
        assert_eq!(
            c.decide(PackingObservation {
                ffn_micro: ms(2.5),
                a2a_micro: ms(2.0)
            }),
            PackingDecision::Keep
        );
        assert_eq!(c.experts_per_device(), 4);
    }

    #[test]
    fn never_exceeds_expert_count() {
        let mut c = PackingController::new(2);
        c.decide(PackingObservation {
            ffn_micro: ms(0.1),
            a2a_micro: ms(10.0),
        });
        assert_eq!(c.experts_per_device(), 2);
        assert_eq!(
            c.decide(PackingObservation {
                ffn_micro: ms(0.1),
                a2a_micro: ms(10.0)
            }),
            PackingDecision::Keep
        );
    }

    #[test]
    fn search_converges_with_doubling_ffn_cost() {
        // FFN micro-op time doubles with packing; crosses a2a at 4.
        let cost = CostModel::new(DeviceSpec::a100(), MoeModelConfig::transformer_xl(12, 16));
        let topo = Topology::new(ClusterSpec::paper_testbed());
        let mut c = PackingController::new(16);
        while c.decide(PackingObservation {
            ffn_micro: ms(0.6 * c.experts_per_device() as f64),
            a2a_micro: ms(2.0),
        }) == PackingDecision::Grow
        {}
        let plan = c.plan(&cost, &topo);
        assert_eq!(plan.experts_per_device, 4);
        assert!(plan.placement.is_complete());
    }

    #[test]
    fn memory_check_flags_offloading() {
        let cost = CostModel::new(DeviceSpec::a100(), MoeModelConfig::transformer_xl(36, 16));
        let topo = Topology::new(ClusterSpec::paper_testbed());
        let mut tight = PackingController::new(16);
        tight.experts_per_device = 16;
        let plan_full = tight.plan(&cost, &topo);
        let light = PackingController::new(16);
        let plan_one = light.plan(&cost, &topo);
        // Hosting all 16 experts of a 36-layer model needs more memory
        // than hosting one.
        assert!(!plan_one.dram_offloading);
        assert!(
            plan_full.experts_per_device == 16
                && (plan_full.dram_offloading || !plan_one.dram_offloading)
        );
    }
}
