//! "Solo" collective pricing: one collective alone on an idle network.
//!
//! Many drivers want the duration a collective would take if it ran
//! *alone* on the wire — the paper's inference model prices every
//! all-to-all this way, and the training metrics use it as the
//! no-contention baseline. There is no closed form: [`SoloTimer`]
//! replays the collective through the same fluid event loop
//! ([`CollectiveEngine`] over [`Network`]) that prices contended runs,
//! so solo and contended prices come from one engine. Building a fresh
//! [`Network`] (and cloning the [`Topology`] inside it) per query is
//! wasteful in hot loops that price one collective per layer per
//! batch, so [`SoloTimer`] clones the topology once and replays every
//! query on the same engine.
//!
//! Reuse is exact, not approximate: the float arithmetic in [`Network`]
//! is duration-based (segment lengths, byte drains and drain offsets
//! never involve the absolute clock), and a latency deadline is the
//! start instant plus an integer-nanosecond latency, compared with
//! segment ends in integer nanoseconds. So a collective started at any
//! instant on an otherwise idle network completes after the same
//! integer-nanosecond duration it would starting at t = 0. A unit test
//! below pins that equivalence.
//!
//! Each completion inside a collective costs one re-solve and one
//! division pass. The re-solve replays the solver's logged rounds up to
//! the first one that froze a finished flow, and returns at once when
//! those froze every live flow. The division pass is the pinned 1 ns
//! drain segment that follows the completion: it finds the next event
//! on its way through the flows, the step into it needs none, and the
//! segment that ends the next flow skips it. No segment scans the
//! flows still in their latency phase unless one of their deadlines
//! falls inside it: a serving all-to-all takes about 90 segments, and
//! about 2 of them end latency phases (see [`crate::network`]).

use std::sync::Arc;

use lina_simcore::SimDuration;

use crate::collectives::{CollectiveEngine, CollectiveSpec};
use crate::network::Network;
use crate::topology::Topology;

/// Prices collectives as if each ran alone on an idle network.
///
/// The constructor clones the topology once; every
/// [`SoloTimer::time`] call reuses the same engine, advancing its
/// private clock past the finished collective.
#[derive(Clone, Debug)]
pub struct SoloTimer {
    engine: CollectiveEngine,
}

impl SoloTimer {
    /// Builds a timer over (a clone of) the topology.
    pub fn new(topo: &Topology) -> Self {
        SoloTimer::new_shared(Arc::new(topo.clone()))
    }

    /// Builds a timer over a shared topology handle — no topology clone
    /// at all, for callers that already hold an `Arc<Topology>`.
    pub fn new_shared(topo: Arc<Topology>) -> Self {
        SoloTimer {
            engine: CollectiveEngine::new(Network::new_shared(topo)),
        }
    }

    /// The topology collectives are priced against.
    pub fn topology(&self) -> &Topology {
        self.engine.network().topology()
    }

    /// Scales the priced network's link capacities (fault injection:
    /// 1.0 = healthy, < 1.0 = degraded). Subsequent [`SoloTimer::time`]
    /// queries price collectives on the degraded links.
    pub fn set_capacity_scale(&mut self, scale: f64) {
        self.engine.set_capacity_scale(scale);
    }

    /// The current link-capacity multiplier (1.0 when healthy).
    pub fn capacity_scale(&self) -> f64 {
        self.engine.network().capacity_scale()
    }

    /// Duration of `spec` run alone on the idle network.
    ///
    /// # Panics
    ///
    /// Panics if the collective can never finish (a flow on its path
    /// crosses a zero-capacity link).
    pub fn time(&mut self, spec: &CollectiveSpec) -> SimDuration {
        assert_eq!(
            self.engine.active(),
            0,
            "SoloTimer: engine must be idle between queries"
        );
        self.engine.start(spec, 0);
        let done = self.engine.run_to_idle();
        let Some(d) = done.first() else {
            panic!("SoloTimer: collective never finishes (zero-capacity link on its path)")
        };
        d.at - d.started
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::tests::one_flow;
    use crate::collectives::AllToAllAlgo;
    use crate::topology::{ClusterSpec, DeviceId};

    fn specs() -> Vec<CollectiveSpec> {
        let devs: Vec<DeviceId> = (0..16).map(DeviceId).collect();
        let mut unequal = vec![vec![0.0; 16]; 16];
        for (i, row) in unequal.iter_mut().enumerate() {
            if i != 3 {
                row[3] = 1e6 + i as f64 * 1e5;
            }
        }
        vec![
            CollectiveSpec::uniform_all_to_all(devs.clone(), 2e6, AllToAllAlgo::Flat),
            CollectiveSpec::AllToAll {
                participants: devs.clone(),
                sizes: unequal,
                algo: AllToAllAlgo::Flat,
            },
            CollectiveSpec::uniform_all_to_all(devs.clone(), 5e5, AllToAllAlgo::Hierarchical),
            CollectiveSpec::AllReduce {
                participants: devs,
                bytes: 1e7,
            },
            one_flow(0, 9, 3e6),
        ]
    }

    /// Engine reuse must be bit-exact against a fresh engine per query,
    /// in any query order.
    #[test]
    fn reused_engine_matches_fresh_engine_bit_for_bit() {
        let topo = Topology::new(ClusterSpec::paper_testbed());
        let mut timer = SoloTimer::new(&topo);
        for round in 0..3 {
            for (i, spec) in specs().iter().enumerate() {
                let reused = timer.time(spec);
                let mut fresh = SoloTimer::new(&topo);
                let once = fresh.time(spec);
                assert_eq!(reused, once, "round {round}, spec {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "collective never finishes")]
    fn stalled_collective_panics() {
        let mut spec = ClusterSpec::paper_testbed();
        spec.nic_bw = 0.0;
        let mut timer = SoloTimer::new(&Topology::new(spec));
        timer.time(&one_flow(0, 4, 1e6));
    }

    #[test]
    fn empty_collective_prices_at_zero_bytes_latency() {
        let topo = Topology::new(ClusterSpec::paper_testbed());
        let mut timer = SoloTimer::new(&topo);
        let d = timer.time(&CollectiveSpec::AllReduce {
            participants: vec![DeviceId(0)],
            bytes: 1e9,
        });
        // Single participant: completes immediately.
        assert!(d.as_secs_f64() < 1e-3);
    }
}
