//! Weighted max-min fair bandwidth allocation.
//!
//! When the active flow set changes, the network recomputes every flow's
//! rate with progressive filling (water-filling): repeatedly find the most
//! constrained link, freeze the flows it bottlenecks at their fair share,
//! subtract, and continue. This is the standard fluid model of how
//! concurrent NCCL/TCP-like transfers share links, and it is what produces
//! the all-to-all slowdown distribution of Figure 3 without any hard-coded
//! slowdown factor.
//!
//! Flows carry *weights*: a collective that fans out into `k` parallel
//! flows over the same link assigns each weight `1/k`, so two overlapping
//! collectives split a link roughly evenly regardless of how many flows
//! each decomposes into — matching how two NCCL communicators share a NIC.
//!
//! [`max_min_rates`] is a one-shot wrapper over the solver a
//! [`crate::Network`] keeps for its whole life. That solver holds, per
//! link, the flows crossing it in key order, their weight sum, and the
//! ascending list of links some flow crosses, so a solve touches only
//! those links: it sets their capacity (re-summing a link's weight only
//! after its flows changed), then repeats one compacting pass over the
//! links still in play (which stores each one's fair level) and a
//! first-minimum pass over the levels, until every flow is frozen.
//! Capacities are checked `>= 0` by the owner, once, rather than on
//! every solve.
//!
//! The solver also logs its last solve: the flows each round froze, in
//! order. When only departures happened since, the next solve replays
//! the rounds before the earliest one that froze a departed flow,
//! charging their flows at their logged rates instead of rescanning the
//! links, and runs the bottleneck loop from there. If those rounds froze
//! every live flow, nothing is left to solve and the solve returns at
//! once. A join, a `clear` or a change of scaled capacity solves from
//! round one.

/// A flow presented to the allocator: a weight and the links it traverses.
#[derive(Clone, Debug)]
pub struct FlowDemand<'a> {
    /// Relative weight (> 0). Rates on a bottleneck link are proportional
    /// to weights.
    pub weight: f64,
    /// Links the flow traverses. A flow with no links is unconstrained
    /// and receives `f64::INFINITY`.
    pub links: &'a [u32],
}

/// Computes weighted max-min fair rates.
///
/// `capacities[l]` is the capacity of link `l` in bytes/s. Returns one
/// rate per flow, in the input order.
///
/// # Panics
///
/// Panics if any weight is non-positive, any referenced link is out of
/// range, or any capacity is negative or NaN.
pub fn max_min_rates(capacities: &[f64], flows: &[FlowDemand<'_>]) -> Vec<f64> {
    check_capacities(capacities);
    let mut solver = FairShare::new(capacities.len());
    let slots: Vec<u32> = flows
        .iter()
        .zip(0..)
        .map(|(f, key)| solver.join(key, f.weight, f.links.iter().copied()))
        .collect();
    solver.solve(capacities, 1.0);
    slots.into_iter().map(|s| solver.rate(s)).collect()
}

/// Asserts every capacity is `>= 0` (so none is NaN either), which
/// [`FairShare::solve`] relies on and does not check.
pub(crate) fn check_capacities(capacities: &[f64]) {
    for &c in capacities {
        assert!(c >= 0.0, "max_min_rates: negative capacity {c}");
    }
}

/// [`FairShare::round`] of a slot the last solve did not freeze.
const UNFROZEN: u32 = u32::MAX;

/// The water-filling solver behind [`max_min_rates`], kept alive across
/// solves so a long-lived owner (the [`crate::Network`]) allocates
/// nothing in steady state.
///
/// A flow [`FairShare::join`]s the problem once and holds a slot until
/// it [`FairShare::leave`]s; between the two, every [`FairShare::solve`]
/// prices it. The solver keeps, per link, the slots crossing it in
/// ascending key order, and joining or leaving keeps that order. So a
/// solve only resets the per-link state of the links some flow crosses
/// and runs the bottleneck loop: the scan visits those links, ascending,
/// and freezing visits only the bottleneck's own flows, in key order.
/// Both walks keep the order of the textbook loop over flows in key
/// order, so every sum and subtraction happens in the same order and
/// the rates are the same bits. The loop stops once every flow is
/// frozen: later rounds could only pick links whose flows are all
/// frozen, which changes no rate.
///
/// A departure changes no round before the one that froze the departed
/// flow. Its links only lose weight (a float sum of positive weights in
/// key order never grows when a term is dropped), so their levels only
/// rise, and none of them was a bottleneck before that round, or the
/// flow would have frozen earlier. Every other link's level is the same
/// bits, so each earlier round picks the same first minimum, freezes
/// the same flows at the same rates and charges the same links. A solve
/// after departures alone therefore replays those rounds from the log
/// (charging each flow its logged rate, in logged order) and scans only
/// from the first round that may differ. Starting that round's scan
/// from every active link is exact: a link the old scan had compacted
/// away still weighs `1e-12` or less.
#[derive(Clone, Debug, Default)]
pub(crate) struct FairShare {
    /// Per slot: ordering key, weight and path. A free slot keeps its
    /// path buffer for the next flow that takes it.
    keys: Vec<u64>,
    weights: Vec<f64>,
    paths: Vec<Vec<u32>>,
    /// Slots no flow holds.
    free: Vec<u32>,
    /// Per link: the slots crossing it, in ascending key order (once
    /// per occurrence of the link in a path).
    members: Vec<Vec<u32>>,
    /// Per link: the weight sum of its members in key order, valid
    /// unless `stale` (its members changed since the last solve).
    member_weight: Vec<f64>,
    stale: Vec<bool>,
    /// Live flows with a non-empty path: the ones a solve freezes.
    constrained: usize,
    /// Links with at least one member, ascending.
    active: Vec<u32>,
    /// Per solve: links still in the bottleneck scan, ascending, and
    /// their fair levels in the current round.
    scan: Vec<u32>,
    levels: Vec<f64>,
    /// Per link, set for active links only: the scaled capacity, the
    /// capacity left and the total weight of the unfrozen flows.
    capacity: Vec<f64>,
    remaining: Vec<f64>,
    link_weight: Vec<f64>,
    /// The log of the last solve: the slots it froze, in freezing
    /// order, and per round the end of the round's slots in `order`.
    order: Vec<u32>,
    round_ends: Vec<u32>,
    /// Per slot: the round of the last solve that froze it, or
    /// [`UNFROZEN`]. Exactly the slots in `order` are frozen.
    round: Vec<u32>,
    /// How many logged rounds still hold: those before the earliest
    /// round that froze a flow which left since. Zero after a join or a
    /// clear.
    valid_rounds: u32,
    /// Some rate of the last solve may be infinite (a frozen flow's
    /// rate was; a solve that returns at once keeps the flag).
    unbounded: bool,
    /// Per slot: the rate of the last solve, set at join for a flow no
    /// solve has priced yet.
    rates: Vec<f64>,
}

impl FairShare {
    /// An empty solver over `links` links.
    pub(crate) fn new(links: usize) -> Self {
        FairShare {
            members: vec![Vec::new(); links],
            member_weight: vec![0.0; links],
            stale: vec![false; links],
            capacity: vec![0.0; links],
            remaining: vec![0.0; links],
            link_weight: vec![0.0; links],
            ..FairShare::default()
        }
    }

    /// Adds a flow with the given ordering key, weight and path;
    /// returns the slot it holds until [`FairShare::leave`]. Flows are
    /// summed and frozen in ascending key order.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not finite and positive, or a link is
    /// out of range.
    pub(crate) fn join(
        &mut self,
        key: u64,
        weight: f64,
        links: impl IntoIterator<Item = u32>,
    ) -> u32 {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "max_min_rates: bad weight {weight}"
        );
        let slot = self.free.pop().unwrap_or_else(|| {
            self.keys.push(0);
            self.weights.push(0.0);
            self.paths.push(Vec::new());
            self.round.push(UNFROZEN);
            self.rates.push(0.0);
            self.keys.len() as u32 - 1
        });
        // A new flow can take any round's bottleneck share.
        self.valid_rounds = 0;
        let s = slot as usize;
        self.keys[s] = key;
        self.weights[s] = weight;
        let path = &mut self.paths[s];
        path.clear();
        path.extend(links);
        for &l in path.iter() {
            let Some(members) = self.members.get_mut(l as usize) else {
                panic!("max_min_rates: link {l} out of range");
            };
            if members.is_empty() {
                let at = self.active.partition_point(|&a| a < l);
                self.active.insert(at, l);
            }
            let keys = &self.keys;
            let at = members.partition_point(|&m| keys[m as usize] <= key);
            members.insert(at, slot);
            self.stale[l as usize] = true;
        }
        // A flow with an empty path is unconstrained; the rest read 0
        // until a solve prices them.
        self.rates[s] = if path.is_empty() {
            f64::INFINITY
        } else {
            self.constrained += 1;
            0.0
        };
        slot
    }

    /// Removes the flow holding `slot`; the slot becomes free.
    pub(crate) fn leave(&mut self, slot: u32) {
        // Rounds before the one that froze this flow stay valid.
        self.valid_rounds = self.valid_rounds.min(self.round[slot as usize]);
        let path = &self.paths[slot as usize];
        self.constrained -= usize::from(!path.is_empty());
        for &l in path {
            self.stale[l as usize] = true;
            let members = &mut self.members[l as usize];
            let at = members
                .iter()
                .position(|&m| m == slot)
                .expect("a flow is a member of every link on its path");
            members.remove(at);
            if members.is_empty() {
                let at = self
                    .active
                    .binary_search(&l)
                    .expect("a link with members is active");
                self.active.remove(at);
            }
        }
        self.free.push(slot);
    }

    /// Removes every flow (keeping the buffers).
    pub(crate) fn clear(&mut self) {
        for &l in &self.active {
            self.members[l as usize].clear();
        }
        self.active.clear();
        self.constrained = 0;
        self.valid_rounds = 0;
        self.free.clear();
        self.free.extend(0..self.keys.len() as u32);
    }

    /// The rate the last [`FairShare::solve`] gave the flow holding
    /// `slot`.
    pub(crate) fn rate(&self, slot: u32) -> f64 {
        self.rates[slot as usize]
    }

    /// False only when every constrained flow's rate from the last
    /// [`FairShare::solve`] is finite.
    pub(crate) fn unbounded(&self) -> bool {
        self.unbounded
    }

    /// Solves the problem over `capacities` (one per link), each
    /// multiplied by `scale`. A flow with an empty path is unconstrained
    /// and gets `f64::INFINITY`.
    ///
    /// The capacities must all be `>= 0` and `scale` positive; the owner
    /// checks that once ([`check_capacities`]), not every solve.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` has the wrong length.
    pub(crate) fn solve(&mut self, capacities: &[f64], scale: f64) {
        assert_eq!(
            capacities.len(),
            self.members.len(),
            "max_min_rates: one capacity per link"
        );
        // The logged rounds that still hold, unless a live link's scaled
        // capacity changed. Unfreeze the flows of every later round.
        let mut replay = self.valid_rounds as usize;
        if replay > 0
            && self.active.iter().any(|&l| {
                (capacities[l as usize] * scale).to_bits() != self.capacity[l as usize].to_bits()
            })
        {
            replay = 0;
        }
        let cut = replay
            .checked_sub(1)
            .map_or(0, |k| self.round_ends[k] as usize);
        for &m in &self.order[cut..] {
            self.round[m as usize] = UNFROZEN;
        }
        self.order.truncate(cut);
        self.round_ends.truncate(replay);
        self.valid_rounds = replay as u32;
        if cut == self.constrained {
            // The kept rounds froze every live flow: the rates stand.
            return;
        }

        // Per-link capacity and total weight of unfrozen flows, summed
        // in key order. Only links some flow crosses are ever read.
        for &l in &self.active {
            let l = l as usize;
            self.capacity[l] = capacities[l] * scale;
            self.remaining[l] = self.capacity[l];
            if std::mem::take(&mut self.stale[l]) {
                let mut w = 0.0;
                for &m in &self.members[l] {
                    w += self.weights[m as usize];
                }
                self.member_weight[l] = w;
            }
            self.link_weight[l] = self.member_weight[l];
        }
        // Replay the kept rounds: the same flows at the same rates,
        // charged in the same order.
        self.unbounded = false;
        for &m in &self.order {
            let i = m as usize;
            let rate = self.rates[i];
            self.unbounded |= rate == f64::INFINITY;
            charge(
                &mut self.remaining,
                &mut self.link_weight,
                &self.paths[i],
                self.weights[i],
                rate,
            );
        }

        self.scan.clear();
        self.scan.extend_from_slice(&self.active);
        self.levels.resize(self.scan.len(), 0.0);
        while self.order.len() < self.constrained {
            // Find the bottleneck: the link with the smallest fair level
            // remaining / weight among links with unfrozen flows. A link
            // whose weight fell to 1e-12 or below never qualifies again
            // this solve (weights only shrink), so it leaves the scan;
            // the rest keep their ascending order for the tie rule. The
            // compaction writes every link and counts only the ones
            // kept, so the pass has no branch on the data.
            let mut kept = 0;
            for k in 0..self.scan.len() {
                let l = self.scan[k];
                let w = self.link_weight[l as usize];
                self.scan[kept] = l;
                self.levels[kept] = self.remaining[l as usize] / w;
                kept += usize::from(w > 1e-12);
            }
            self.scan.truncate(kept);
            let Some(&first) = self.levels[..kept].first() else {
                break;
            };
            // The first minimum: no level is NaN (capacities are >= 0
            // and weights > 1e-12), so a strict `<` keeps the lowest
            // link among equal levels.
            let (mut best, mut level) = (0, first);
            for (k, &v) in self.levels[..kept].iter().enumerate().skip(1) {
                if v < level {
                    (best, level) = (k, v);
                }
            }
            let bl = self.scan[best] as usize;
            let level = level.max(0.0);
            // Freeze every unfrozen flow crossing the bottleneck at its
            // proportional share, charge its links and log it.
            let round = self.round_ends.len() as u32;
            for &m in &self.members[bl] {
                let i = m as usize;
                if self.round[i] != UNFROZEN {
                    continue;
                }
                let weight = self.weights[i];
                let rate = weight * level;
                self.rates[i] = rate;
                self.round[i] = round;
                self.order.push(m);
                self.unbounded |= rate == f64::INFINITY;
                charge(
                    &mut self.remaining,
                    &mut self.link_weight,
                    &self.paths[i],
                    weight,
                    rate,
                );
            }
            // Every flow on the bottleneck is frozen now, so no later
            // round charges it. Its weight needs no clamp: a negative
            // rounding residue fails the scan's `w > 1e-12` as 0 would.
            self.round_ends.push(self.order.len() as u32);
        }
        self.valid_rounds = self.round_ends.len() as u32;
        // A flow whose every link fell to weight 1e-12 or below before
        // a bottleneck froze it gets no bandwidth, whatever rate an
        // earlier solve gave it.
        if self.order.len() < self.constrained {
            for &l in &self.active {
                for &m in &self.members[l as usize] {
                    if self.round[m as usize] == UNFROZEN {
                        self.rates[m as usize] = 0.0;
                    }
                }
            }
        }
    }
}

/// Charges a flow of `weight` frozen at `rate` to every link on its
/// path.
fn charge(remaining: &mut [f64], link_weight: &mut [f64], path: &[u32], weight: f64, rate: f64) {
    for &l in path {
        let l = l as usize;
        remaining[l] = (remaining[l] - rate).max(0.0);
        link_weight[l] -= weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(weight: f64, links: &[u32]) -> FlowDemand<'_> {
        FlowDemand { weight, links }
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = max_min_rates(&[10.0], &[demand(1.0, &[0])]);
        assert!((rates[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn equal_flows_split_evenly() {
        let links = [0u32];
        let flows = vec![demand(1.0, &links); 4];
        let rates = max_min_rates(&[8.0], &flows);
        for r in rates {
            assert!((r - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn weights_bias_the_split() {
        let rates = max_min_rates(&[9.0], &[demand(2.0, &[0]), demand(1.0, &[0])]);
        assert!((rates[0] - 6.0).abs() < 1e-9);
        assert!((rates[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_frees_capacity_elsewhere() {
        // Flow A crosses links 0 and 1; flow B crosses link 0 only.
        // Link 1 is the bottleneck for A (cap 2); B then gets the rest
        // of link 0 (cap 10): 8.
        let rates = max_min_rates(&[10.0, 2.0], &[demand(1.0, &[0, 1]), demand(1.0, &[0])]);
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn classic_three_flow_parking_lot() {
        // Two links of capacity 1. Flow 0 crosses both; flows 1 and 2
        // cross one each. Max-min: everyone gets 1/2.
        let rates = max_min_rates(
            &[1.0, 1.0],
            &[demand(1.0, &[0, 1]), demand(1.0, &[0]), demand(1.0, &[1])],
        );
        for r in rates {
            assert!((r - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_path_is_unconstrained() {
        let rates = max_min_rates(&[1.0], &[demand(1.0, &[])]);
        assert!(rates[0].is_infinite());
    }

    #[test]
    fn no_flows_no_rates() {
        assert!(max_min_rates(&[5.0], &[]).is_empty());
    }

    #[test]
    fn collective_weighting_splits_link_between_collectives() {
        // Collective A fans out into 4 flows of weight 1/4 on link 0;
        // collective B is a single flow of weight 1. Each collective
        // should get half the link in aggregate.
        let mut flows = vec![demand(0.25, &[0u32]); 4];
        flows.push(demand(1.0, &[0]));
        let rates = max_min_rates(&[8.0], &flows);
        let a_total: f64 = rates[..4].iter().sum();
        assert!((a_total - 4.0).abs() < 1e-9, "a_total {a_total}");
        assert!((rates[4] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_link_gives_zero_rate() {
        let rates = max_min_rates(&[0.0], &[demand(1.0, &[0])]);
        assert_eq!(rates[0], 0.0);
    }

    #[test]
    fn never_exceeds_capacity() {
        // Random-ish mesh checked against the capacity invariant.
        let caps = [3.0, 7.0, 2.0, 11.0];
        let paths: Vec<Vec<u32>> = vec![
            vec![0, 1],
            vec![1, 2],
            vec![0, 3],
            vec![2, 3],
            vec![1],
            vec![3],
        ];
        let flows: Vec<FlowDemand<'_>> = paths.iter().map(|p| demand(1.0, p)).collect();
        let rates = max_min_rates(&caps, &flows);
        for (l, &cap) in caps.iter().enumerate() {
            let load: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.links.contains(&(l as u32)))
                .map(|(_, &r)| r)
                .sum();
            assert!(load <= cap + 1e-6, "link {l}: load {load} > cap {cap}");
        }
        // Work conservation: every flow is bottlenecked somewhere, i.e.
        // for each flow at least one of its links is (nearly) full.
        for (f, _r) in flows.iter().zip(&rates) {
            let saturated = f.links.iter().any(|&l| {
                let load: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(g, _)| g.links.contains(&l))
                    .map(|(_, &r)| r)
                    .sum();
                load >= caps[l as usize] - 1e-6
            });
            assert!(saturated, "flow with path {:?} not bottlenecked", f.links);
        }
    }

    /// The live flows of a test script, in key order: key, slot in the
    /// kept solver, weight and path.
    type Live = Vec<(u64, u32, f64, Vec<u32>)>;

    fn join_live(kept: &mut FairShare, live: &mut Live, key: u64, weight: f64, path: Vec<u32>) {
        let slot = kept.join(key, weight, path.iter().copied());
        let at = live.partition_point(|f| f.0 <= key);
        live.insert(at, (key, slot, weight, path));
    }

    /// Asserts the kept solver gave every live flow the same bits as a
    /// fresh solver over the same flows.
    fn assert_matches_fresh(kept: &FairShare, live: &Live, caps: &[f64], scale: f64, what: &str) {
        let mut fresh = FairShare::new(caps.len());
        let slots: Vec<u32> = live
            .iter()
            .map(|(key, _, w, p)| fresh.join(*key, *w, p.iter().copied()))
            .collect();
        fresh.solve(caps, scale);
        for ((key, slot, _, _), fs) in live.iter().zip(slots) {
            assert_eq!(
                kept.rate(*slot).to_bits(),
                fresh.rate(fs).to_bits(),
                "{what}: flow {key}"
            );
        }
    }

    /// One solver kept across joins, leaves, clears and solves must give
    /// the same bits as a fresh solver over the live flows: no state
    /// leaks through freed slots or the per-link index.
    #[test]
    fn persistent_solver_matches_fresh_solver() {
        let mut rng = lina_simcore::Rng::new(7);
        for problem in 0..200 {
            let links = 1 + rng.index(12);
            let mut kept = FairShare::new(links);
            let mut live = Live::new();
            let mut next_key = 0;
            for step in 0..40 {
                match rng.index(8) {
                    0..=3 => {
                        let path: Vec<u32> =
                            (0..rng.index(4)).map(|_| rng.index(links) as u32).collect();
                        let weight = rng.uniform(0.05, 3.0);
                        // Keys need not arrive in order (a flow whose
                        // latency ran out late joins late).
                        let key = next_key + rng.below(3) * 1000;
                        next_key += 1;
                        join_live(&mut kept, &mut live, key, weight, path);
                    }
                    4..=5 if !live.is_empty() => {
                        let (_, slot, _, _) = live.remove(rng.index(live.len()));
                        kept.leave(slot);
                    }
                    6 if rng.bernoulli(0.1) => {
                        kept.clear();
                        live.clear();
                    }
                    _ => {}
                }
                let caps: Vec<f64> = (0..links)
                    .map(|_| match rng.index(6) {
                        0 => 0.0,
                        _ => rng.uniform(1.0, 100.0),
                    })
                    .collect();
                let scale = if rng.bernoulli(0.3) { 0.5 } else { 1.0 };
                kept.solve(&caps, scale);
                let what = format!("problem {problem} step {step}");
                assert_matches_fresh(&kept, &live, &caps, scale, &what);
            }
        }
    }

    /// Solves after departures alone replay the logged rounds before the
    /// earliest departed flow's round, or return at once, and must still
    /// give a fresh solver's bits. Capacities and scale hold for runs of
    /// steps (a change of either solves from round one) and most steps
    /// are departures, so both shortcuts run often; joins, clears and
    /// flows too light to ever freeze (they read 0) are mixed in.
    #[test]
    fn replayed_solves_match_fresh_solver() {
        let mut rng = lina_simcore::Rng::new(11);
        let (mut replays, mut returns) = (0, 0);
        for problem in 0..300 {
            let links = 1 + rng.index(10);
            let draw_caps = |rng: &mut lina_simcore::Rng| -> Vec<f64> {
                (0..links)
                    .map(|_| match rng.index(8) {
                        0 => 0.0,
                        1 => 12.0,
                        _ => rng.uniform(1.0, 100.0),
                    })
                    .collect()
            };
            let mut kept = FairShare::new(links);
            let mut live = Live::new();
            let mut caps = draw_caps(&mut rng);
            let mut scale = 1.0;
            let mut next_key = 0;
            for step in 0..60 {
                if rng.bernoulli(0.08) {
                    caps = draw_caps(&mut rng);
                }
                if rng.bernoulli(0.04) {
                    scale = *rng.choose(&[1.0, 0.5, 0.8]).expect("non-empty");
                }
                let (joins, leaves) = match rng.index(10) {
                    0..=1 => (1 + rng.index(6), 0),
                    2..=7 => (0, 1 + rng.index(3)),
                    8 => (0, 0),
                    _ => {
                        if rng.bernoulli(0.1) {
                            kept.clear();
                            live.clear();
                        }
                        (0, 0)
                    }
                };
                for _ in 0..joins {
                    // Paths may be empty and may repeat a link.
                    let path: Vec<u32> =
                        (0..rng.index(4)).map(|_| rng.index(links) as u32).collect();
                    let weight = match rng.index(12) {
                        0 => 1e-13,
                        1..=5 => 1.0 / (1 + rng.index(8)) as f64,
                        _ => rng.uniform(0.05, 3.0),
                    };
                    let key = next_key + rng.below(3) * 1000;
                    next_key += 1;
                    join_live(&mut kept, &mut live, key, weight, path);
                }
                for _ in 0..leaves.min(live.len()) {
                    let (_, slot, _, _) = live.remove(rng.index(live.len()));
                    kept.leave(slot);
                }
                // Which way the solve will go, read off the log: rounds
                // stay valid unless a capacity changed.
                let valid = kept.valid_rounds as usize;
                let same_caps = kept.active.iter().all(|&l| {
                    (caps[l as usize] * scale).to_bits() == kept.capacity[l as usize].to_bits()
                });
                if valid > 0 && same_caps {
                    if kept.round_ends[valid - 1] as usize == kept.constrained {
                        returns += 1;
                    } else {
                        replays += 1;
                    }
                }
                kept.solve(&caps, scale);
                let what = format!("problem {problem} step {step}");
                assert_matches_fresh(&kept, &live, &caps, scale, &what);
            }
        }
        assert!(replays > 600, "only {replays} replayed solves");
        assert!(returns > 1200, "only {returns} solves returned at once");
    }

    /// Four flows frozen one per round: `a` (round 1, on link 0), `b`
    /// (round 2, link 1), `c` (round 3, link 2) and `d` (round 4, link
    /// 3, which all four cross), plus two flows on link 4 too light to
    /// be frozen, which read 0. Each case makes some of them leave and
    /// checks how many logged rounds stay valid and that the next solve
    /// gives a fresh solver's bits.
    #[test]
    fn departures_replay_exactly_the_rounds_before_them() {
        let caps = [1.0, 2.0, 4.0, 100.0, 10.0];
        let flows: [(&str, f64, &[u32]); 6] = [
            ("a", 1.0, &[0, 3]),
            ("b", 1.0, &[1, 3]),
            ("c", 1.0, &[2, 3]),
            ("d", 1.0, &[3]),
            ("e", 1e-13, &[4]),
            ("f", 1e-13, &[4]),
        ];
        for (leaving, valid) in [
            // Frozen in the last round: the other three stand as they are.
            (&["d"][..], 3),
            // Frozen in round 1: nothing to replay.
            (&["a"], 0),
            // From rounds 2 and 4 in one go: replay round 1 only.
            (&["d", "b"], 1),
            // Read 0: every round stays valid.
            (&["e"], 4),
            (&["e", "f"], 4),
        ] {
            let mut kept = FairShare::new(caps.len());
            let mut live = Live::new();
            for (key, (_, weight, path)) in (0..).zip(flows) {
                join_live(&mut kept, &mut live, key, weight, path.to_vec());
            }
            kept.solve(&caps, 1.0);
            assert_eq!(kept.round_ends.len(), 4);
            assert_matches_fresh(&kept, &live, &caps, 1.0, "before");
            for name in leaving {
                let key = flows.iter().position(|f| f.0 == *name).expect("a flow") as u64;
                let at = live.iter().position(|f| f.0 == key).expect("live");
                kept.leave(live.remove(at).1);
            }
            assert_eq!(kept.valid_rounds, valid, "{leaving:?} leave");
            kept.solve(&caps, 1.0);
            assert_matches_fresh(&kept, &live, &caps, 1.0, &format!("{leaving:?} left"));
        }
    }

    /// The one way a live flow ends a solve unfrozen: a flow of weight
    /// under 1e-12 is frozen at a share while a link-mate holds its
    /// link's weight up; once the mate leaves, the link's weight is too
    /// small to bottleneck and the flow must read 0, as on a fresh
    /// solver, not the share an earlier solve gave it.
    #[test]
    fn an_unfrozen_flow_reads_zero_after_its_link_mate_leaves() {
        let mut kept = FairShare::new(2);
        let tiny = kept.join(0, 1e-13, [0, 1]);
        let mate = kept.join(1, 1.0, [0]);
        kept.solve(&[10.0, 10.0], 1.0);
        assert!(kept.rate(tiny) > 0.0, "frozen at a share while shared");
        kept.leave(mate);
        kept.solve(&[10.0, 10.0], 1.0);
        let mut fresh = FairShare::new(2);
        let alone = fresh.join(0, 1e-13, [0, 1]);
        fresh.solve(&[10.0, 10.0], 1.0);
        assert_eq!(fresh.rate(alone), 0.0);
        assert_eq!(kept.rate(tiny).to_bits(), fresh.rate(alone).to_bits());
        // A later mate prices it again.
        kept.join(2, 1.0, [1]);
        kept.solve(&[10.0, 10.0], 1.0);
        assert!(kept.rate(tiny) > 0.0);
    }

    #[test]
    #[should_panic(expected = "bad weight")]
    fn zero_weight_panics() {
        max_min_rates(&[1.0], &[demand(0.0, &[0])]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_link_panics() {
        max_min_rates(&[1.0], &[demand(1.0, &[3])]);
    }
}
