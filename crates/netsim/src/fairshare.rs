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
/// range, or any capacity is negative.
pub fn max_min_rates(capacities: &[f64], flows: &[FlowDemand<'_>]) -> Vec<f64> {
    let path_links = flows.iter().map(|f| f.links.len()).sum();
    let mut solver = FairShare::with_capacity(flows.len(), path_links);
    for f in flows {
        solver.push_flow(f.weight, f.links);
    }
    solver.solve(capacities, 1.0);
    solver.rates
}

/// The water-filling solver behind [`max_min_rates`], with every buffer
/// kept across solves so a long-lived owner (the [`crate::Network`])
/// allocates nothing in steady state.
///
/// Load a problem with [`FairShare::clear`] and [`FairShare::push_flow`],
/// then call [`FairShare::solve`]. Each solve indexes the flows by link
/// (CSR), so a bottleneck scan visits only links some flow crosses and
/// freezing visits only the bottleneck's own flows. Both walks keep the
/// ascending link / flow order of the textbook loop, so every sum and
/// subtraction happens in the same order and the rates are the same
/// bits.
#[derive(Clone, Debug, Default)]
pub(crate) struct FairShare {
    /// Per-flow weight, in push order.
    weights: Vec<f64>,
    /// `flow_links[flow_start[i]..flow_start[i + 1]]` is flow `i`'s path.
    flow_start: Vec<u32>,
    flow_links: Vec<u32>,
    /// CSR link -> flows: `members[link_start[l]..link_start[l + 1]]`
    /// lists, in flow order, every flow crossing link `l` (once per
    /// occurrence of `l` in its path).
    link_start: Vec<u32>,
    members: Vec<u32>,
    /// Links crossed by at least one flow, ascending.
    touched: Vec<u32>,
    remaining: Vec<f64>,
    link_weight: Vec<f64>,
    frozen: Vec<bool>,
    rates: Vec<f64>,
}

impl FairShare {
    /// A solver sized for `flows` flows crossing `path_links` links in
    /// total, so a one-shot solve does not regrow its buffers.
    fn with_capacity(flows: usize, path_links: usize) -> Self {
        FairShare {
            weights: Vec::with_capacity(flows),
            flow_start: Vec::with_capacity(flows + 1),
            flow_links: Vec::with_capacity(path_links),
            frozen: Vec::with_capacity(flows),
            rates: Vec::with_capacity(flows),
            ..FairShare::default()
        }
    }

    /// Forgets the loaded flows (keeping the buffers).
    pub(crate) fn clear(&mut self) {
        self.weights.clear();
        self.flow_links.clear();
        self.flow_start.clear();
    }

    /// Adds a flow with the given weight and path.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not finite and positive.
    pub(crate) fn push_flow(&mut self, weight: f64, links: &[u32]) {
        assert!(
            weight > 0.0 && weight.is_finite(),
            "max_min_rates: bad weight {weight}"
        );
        if self.flow_start.is_empty() {
            self.flow_start.push(0);
        }
        self.weights.push(weight);
        self.flow_links.extend_from_slice(links);
        self.flow_start.push(self.flow_links.len() as u32);
    }

    /// Solves the loaded problem over `capacities`, each multiplied by
    /// `scale` unless `scale` is exactly 1.0. Returns one rate per flow,
    /// in push order.
    ///
    /// # Panics
    ///
    /// Panics if any referenced link is out of range or any capacity is
    /// negative.
    pub(crate) fn solve(&mut self, capacities: &[f64], scale: f64) -> &[f64] {
        let n = self.weights.len();
        let links = capacities.len();
        for &l in &self.flow_links {
            assert!((l as usize) < links, "max_min_rates: link {l} out of range");
        }
        self.remaining.clear();
        if scale == 1.0 {
            self.remaining.extend_from_slice(capacities);
        } else {
            self.remaining.extend(capacities.iter().map(|c| c * scale));
        }
        for &c in &self.remaining {
            assert!(c >= 0.0, "max_min_rates: negative capacity {c}");
        }

        // Unconstrained flows complete instantly (device-local copies).
        self.rates.clear();
        self.frozen.clear();
        for i in 0..n {
            let empty = self.flow_start[i] == self.flow_start[i + 1];
            self.rates.push(if empty { f64::INFINITY } else { 0.0 });
            self.frozen.push(empty);
        }

        // Per-link running state: total weight of unfrozen flows crossing
        // it (summed in flow order), and the CSR link -> flows index.
        // `link_start[l]` first counts link `l`'s crossings, then holds
        // its end offset, and after the reverse fill its start offset.
        self.link_weight.clear();
        self.link_weight.resize(links, 0.0);
        self.link_start.clear();
        self.link_start.resize(links + 1, 0);
        for i in 0..n {
            let w = self.weights[i];
            for &l in &self.flow_links[self.flow_start[i] as usize..self.flow_start[i + 1] as usize]
            {
                self.link_weight[l as usize] += w;
                self.link_start[l as usize] += 1;
            }
        }
        self.touched.clear();
        let mut end = 0;
        for l in 0..links {
            if self.link_start[l] > 0 {
                self.touched.push(l as u32);
            }
            end += self.link_start[l];
            self.link_start[l] = end;
        }
        self.link_start[links] = end;
        self.members.clear();
        self.members.resize(end as usize, 0);
        for i in (0..n).rev() {
            for &l in self.flow_links[self.flow_start[i] as usize..self.flow_start[i + 1] as usize]
                .iter()
                .rev()
            {
                self.link_start[l as usize] -= 1;
                self.members[self.link_start[l as usize] as usize] = i as u32;
            }
        }

        loop {
            // Find the bottleneck: the link with the smallest fair level
            // remaining / weight among links with unfrozen flows.
            let mut bottleneck: Option<(usize, f64)> = None;
            for &l in &self.touched {
                let l = l as usize;
                let w = self.link_weight[l];
                if w > 1e-12 {
                    let level = self.remaining[l] / w;
                    match bottleneck {
                        Some((_, best)) if level >= best => {}
                        _ => bottleneck = Some((l, level)),
                    }
                }
            }
            let Some((bl, level)) = bottleneck else { break };
            let level = level.max(0.0);
            // Freeze every unfrozen flow crossing the bottleneck at its
            // proportional share, and charge its links.
            for m in self.link_start[bl] as usize..self.link_start[bl + 1] as usize {
                let i = self.members[m] as usize;
                if self.frozen[i] {
                    continue;
                }
                let weight = self.weights[i];
                let rate = weight * level;
                self.rates[i] = rate;
                self.frozen[i] = true;
                for k in self.flow_start[i] as usize..self.flow_start[i + 1] as usize {
                    let l = self.flow_links[k] as usize;
                    self.remaining[l] = (self.remaining[l] - rate).max(0.0);
                    self.link_weight[l] -= weight;
                }
            }
            // Numerical cleanup: a link whose weight underflowed to a tiny
            // negative must not be selected again.
            self.link_weight[bl] = self.link_weight[bl].max(0.0);
        }
        &self.rates
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

    /// One solver reused across problems of varying size must give the
    /// same bits as a fresh solver per problem: no state leaks between
    /// solves through the reused buffers.
    #[test]
    fn reused_solver_matches_fresh_solver() {
        let mut rng = lina_simcore::Rng::new(7);
        let mut reused = FairShare::default();
        for problem in 0..1000 {
            let links = 1 + rng.index(12);
            let caps: Vec<f64> = (0..links)
                .map(|_| match rng.index(6) {
                    0 => 0.0,
                    _ => rng.uniform(1.0, 100.0),
                })
                .collect();
            let paths: Vec<Vec<u32>> = (0..rng.index(20))
                .map(|_| (0..rng.index(4)).map(|_| rng.index(links) as u32).collect())
                .collect();
            let weights: Vec<f64> = paths.iter().map(|_| rng.uniform(0.05, 3.0)).collect();
            let scale = if rng.bernoulli(0.3) { 0.5 } else { 1.0 };
            let mut fresh = FairShare::default();
            reused.clear();
            for (w, p) in weights.iter().zip(&paths) {
                reused.push_flow(*w, p);
                fresh.push_flow(*w, p);
            }
            let a: Vec<u64> = reused
                .solve(&caps, scale)
                .iter()
                .map(|r| r.to_bits())
                .collect();
            let b: Vec<u64> = fresh
                .solve(&caps, scale)
                .iter()
                .map(|r| r.to_bits())
                .collect();
            assert_eq!(a, b, "problem {problem}");
        }
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
