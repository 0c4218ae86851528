//! Training communication policies.
//!
//! The execution engine keeps NCCL-like stream semantics: at most one
//! collective of each class (all-to-all / allreduce / control) is in
//! flight, and a launched collective cannot be preempted — precisely
//! the constraint §4.1 identifies. Whenever a stream could launch
//! something, every policy runs the same sequence: the oldest pending
//! all-to-all if its stream is free, then the oldest pending allreduce
//! if its stream is free and the policy admits it, then control
//! traffic. The policies differ only in when an allreduce may launch;
//! every scheme in the paper is one of them plus a choice of
//! graph-construction options.

/// When a gradient allreduce may launch during a training step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommPolicy {
    /// DeepSpeed/Tutel: the expert- and data-parallel process groups
    /// launch on independent streams with no coordination, so
    /// allreduce overlaps all-to-all and fair-shares its bandwidth (the
    /// Figure 5 pathology).
    FairShare,
    /// Strict priority without partitioning (§4.1's strawman and
    /// Figure 14's "priority" bar): allreduce only while no all-to-all
    /// is pending or in flight. Gradients stay fused in large buckets,
    /// so an admitted allreduce still blocks a later all-to-all.
    NaivePriority,
    /// Figure 14's fixed heuristic: as [`CommPolicy::NaivePriority`],
    /// and only at an MoE-layer boundary of the backward pass, that is
    /// after a non-zero, even number of backward all-to-alls completed.
    Fixed,
    /// Lina's micro-op scheduler (§4.2, §6.1): as
    /// [`CommPolicy::NaivePriority`], and also not while an all-to-all
    /// is imminent (every unmet dependency of some all-to-all is
    /// running: the combine computation of the next MoE layer's
    /// backward has started), since a micro-op launched now would
    /// collide with it. Partitioned micro-ops then slot into the gaps
    /// between all-to-alls (Figure 8a).
    Lina,
}

impl CommPolicy {
    /// Whether the oldest pending allreduce may launch now, given
    /// whether any all-to-all is pending or in flight and how many
    /// backward all-to-alls have completed. `a2a_imminent` scans for an
    /// imminent all-to-all; only [`CommPolicy::Lina`] calls it, and only
    /// when no all-to-all is present.
    pub fn admits_allreduce(
        self,
        a2a_present: bool,
        backward_a2a_done: usize,
        a2a_imminent: impl FnOnce() -> bool,
    ) -> bool {
        match self {
            CommPolicy::FairShare => true,
            CommPolicy::NaivePriority => !a2a_present,
            CommPolicy::Fixed => {
                !a2a_present && backward_a2a_done > 0 && backward_a2a_done.is_multiple_of(2)
            }
            CommPolicy::Lina => !a2a_present && !a2a_imminent(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_scan() -> bool {
        unreachable!("the imminence scan must not run")
    }

    #[test]
    fn allreduce_deferred_while_a2a_pending() {
        assert!(!CommPolicy::Lina.admits_allreduce(true, 2, no_scan));
        assert!(CommPolicy::Lina.admits_allreduce(false, 2, || false));
    }

    #[test]
    fn allreduce_deferred_when_a2a_imminent() {
        assert!(!CommPolicy::Lina.admits_allreduce(false, 0, || true));
        // The baselines never look ahead.
        assert!(CommPolicy::FairShare.admits_allreduce(false, 0, no_scan));
        assert!(CommPolicy::NaivePriority.admits_allreduce(false, 0, no_scan));
    }

    #[test]
    fn naive_priority_defers_allreduce() {
        assert!(!CommPolicy::NaivePriority.admits_allreduce(true, 0, no_scan));
        // Once the all-to-all is gone, allreduce launches.
        assert!(CommPolicy::NaivePriority.admits_allreduce(false, 0, no_scan));
    }

    #[test]
    fn fixed_waits_for_layer_boundary() {
        let fixed = |done| CommPolicy::Fixed.admits_allreduce(false, done, no_scan);
        assert!(!fixed(0));
        assert!(!fixed(1));
        assert!(fixed(2));
        assert!(!fixed(3));
        assert!(!CommPolicy::Fixed.admits_allreduce(true, 2, no_scan));
    }
}
