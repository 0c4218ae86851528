//! Open-loop arrival processes.
//!
//! Arrivals are generated ahead of the serving loop (open loop: the
//! offered load does not react to server backlog, so saturation shows
//! up as unbounded queueing delay rather than as a throttled client).
//! All randomness comes from a caller-provided [`Rng`], so a seed
//! pins the whole arrival trace.
//!
//! Arrivals **stream**: [`ArrivalProcess::stream`] returns an infinite
//! lazy iterator over arrival instants, so a million-request diurnal
//! trace costs O(1) memory instead of materializing a `Vec<SimTime>`.

use lina_simcore::{Rng, SimDuration, SimTime};

/// An open-loop arrival process.
#[derive(Clone, Debug)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate` requests per second.
    Poisson {
        /// Mean arrival rate (requests/s).
        rate: f64,
    },
    /// Bursty arrivals: a two-state Markov-modulated Poisson process
    /// alternating between a calm and a burst phase, with
    /// exponentially distributed dwell times. Mean rate is the
    /// dwell-weighted mix of the two phase rates.
    Mmpp {
        /// Arrival rate in the calm phase (requests/s).
        calm_rate: f64,
        /// Arrival rate in the burst phase (requests/s).
        burst_rate: f64,
        /// Mean dwell time in the calm phase (seconds).
        mean_calm: f64,
        /// Mean dwell time in the burst phase (seconds).
        mean_burst: f64,
    },
    /// Replays a recorded gap sequence, cycling if more arrivals are
    /// requested than the trace holds.
    Trace {
        /// Successive inter-arrival gaps.
        inter_arrivals: Vec<SimDuration>,
    },
    /// Production-shaped traffic: a sinusoidal diurnal envelope with a
    /// seeded MMPP flash-crowd overlay. The instantaneous rate is
    ///
    /// `base_rate · (1 + amplitude · sin(2π t / period)) · m(t)`
    ///
    /// where `m(t)` is 1 in the calm overlay phase and `flash_mult`
    /// while a flash crowd is active; flash onsets arrive memorylessly
    /// every `flash_every` seconds on average and last `flash_mean`
    /// seconds on average. Sampled exactly by Lewis–Shedler thinning
    /// against the envelope peak, so the trace is deterministic in the
    /// seed like every other process.
    Diurnal {
        /// Mean rate of the diurnal envelope (requests/s); the
        /// sinusoid averages back to this over whole periods.
        base_rate: f64,
        /// Relative swing of the envelope, in [0, 1]: the rate ranges
        /// over `base_rate · (1 ± amplitude)`.
        amplitude: f64,
        /// Length of one diurnal cycle.
        period: SimDuration,
        /// Mean calm gap between flash-crowd onsets (seconds). Only
        /// read when `flash_mult > 1`.
        flash_every: f64,
        /// Mean flash-crowd duration (seconds). Only read when
        /// `flash_mult > 1`.
        flash_mean: f64,
        /// Rate multiplier while a flash crowd is active; 1.0 disables
        /// the overlay entirely (no overlay draws are made).
        flash_mult: f64,
    },
}

/// Samples an exponential variate with the given rate (per second).
fn exponential(rng: &mut Rng, rate: f64) -> f64 {
    assert!(
        rate > 0.0 && rate.is_finite(),
        "exponential: bad rate {rate}"
    );
    // 1 - f64() is in (0, 1], so ln() is finite.
    -(1.0 - rng.f64()).ln() / rate
}

/// The lazy arrival iterator: an infinite stream of nondecreasing
/// arrival instants. Owns its [`Rng`], so interleaving draws from
/// other substreams (request sizes, token sampling) cannot perturb
/// the arrival sequence.
pub struct ArrivalStream<'a> {
    process: &'a ArrivalProcess,
    rng: Rng,
    /// Last emitted arrival instant.
    t: SimTime,
    /// Modulating-phase flag: MMPP burst phase, or an active flash
    /// crowd for the diurnal overlay.
    bursting: bool,
    /// Instant the current modulating phase ends ([`SimTime::MAX`]
    /// when the process has no modulation).
    phase_end: SimTime,
    /// Cursor into the recorded gap list (trace replay only).
    trace_idx: usize,
}

impl<'a> ArrivalStream<'a> {
    fn new(process: &'a ArrivalProcess, mut rng: Rng) -> Self {
        let t = SimTime::ZERO;
        // Modulated processes draw their first phase boundary up
        // front, exactly as the eager generator always has (the draw
        // happens even when zero arrivals are consumed).
        let phase_end = match process {
            ArrivalProcess::Mmpp {
                mean_calm,
                mean_burst,
                ..
            } => {
                assert!(
                    *mean_calm > 0.0 && *mean_burst > 0.0,
                    "Mmpp: dwell times must be positive"
                );
                t + SimDuration::from_secs_f64(exponential(&mut rng, 1.0 / mean_calm))
            }
            ArrivalProcess::Diurnal {
                base_rate,
                amplitude,
                period,
                flash_every,
                flash_mean,
                flash_mult,
            } => {
                assert!(
                    *base_rate > 0.0 && base_rate.is_finite(),
                    "Diurnal: base_rate must be positive"
                );
                assert!(
                    (0.0..=1.0).contains(amplitude),
                    "Diurnal: amplitude must be in [0, 1]"
                );
                assert!(*period > SimDuration::ZERO, "Diurnal: period must be > 0");
                assert!(*flash_mult >= 1.0, "Diurnal: flash_mult must be >= 1");
                if *flash_mult > 1.0 {
                    assert!(
                        *flash_every > 0.0 && *flash_mean > 0.0,
                        "Diurnal: flash dwell times must be positive"
                    );
                    t + SimDuration::from_secs_f64(exponential(&mut rng, 1.0 / flash_every))
                } else {
                    SimTime::MAX
                }
            }
            _ => SimTime::MAX,
        };
        ArrivalStream {
            process,
            rng,
            t,
            bursting: false,
            phase_end,
            trace_idx: 0,
        }
    }
}

impl Iterator for ArrivalStream<'_> {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        match self.process {
            ArrivalProcess::Poisson { rate } => {
                self.t += SimDuration::from_secs_f64(exponential(&mut self.rng, *rate));
                Some(self.t)
            }
            ArrivalProcess::Mmpp {
                calm_rate,
                burst_rate,
                mean_calm,
                mean_burst,
            } => loop {
                let rate = if self.bursting {
                    *burst_rate
                } else {
                    *calm_rate
                };
                let next = self.t + SimDuration::from_secs_f64(exponential(&mut self.rng, rate));
                if next <= self.phase_end {
                    self.t = next;
                    return Some(self.t);
                }
                // The candidate falls past the phase boundary: discard
                // it and redraw from the boundary under the next
                // phase's rate (memorylessness makes the restart exact
                // for the exponential gap).
                self.t = self.phase_end;
                self.bursting = !self.bursting;
                let dwell = if self.bursting {
                    *mean_burst
                } else {
                    *mean_calm
                };
                self.phase_end =
                    self.t + SimDuration::from_secs_f64(exponential(&mut self.rng, 1.0 / dwell));
            },
            ArrivalProcess::Trace { inter_arrivals } => {
                assert!(
                    !inter_arrivals.is_empty(),
                    "Trace: empty inter-arrival list"
                );
                self.t += inter_arrivals[self.trace_idx % inter_arrivals.len()];
                self.trace_idx += 1;
                Some(self.t)
            }
            ArrivalProcess::Diurnal {
                base_rate,
                amplitude,
                period,
                flash_every,
                flash_mean,
                flash_mult,
            } => {
                let peak = base_rate * (1.0 + amplitude);
                let period_s = period.as_secs_f64();
                loop {
                    // Homogeneous candidates at the envelope peak times
                    // the current overlay multiplier; the overlay phase
                    // switches like the MMPP above.
                    let mult = if self.bursting { *flash_mult } else { 1.0 };
                    let cand = self.t
                        + SimDuration::from_secs_f64(exponential(&mut self.rng, peak * mult));
                    if cand > self.phase_end {
                        self.t = self.phase_end;
                        self.bursting = !self.bursting;
                        let dwell = if self.bursting {
                            *flash_mean
                        } else {
                            *flash_every
                        };
                        self.phase_end = self.t
                            + SimDuration::from_secs_f64(exponential(&mut self.rng, 1.0 / dwell));
                        continue;
                    }
                    self.t = cand;
                    // Thin against the sinusoid (the overlay multiplier
                    // cancels: it scales candidate and target alike).
                    let phase = 2.0 * std::f64::consts::PI * self.t.as_secs_f64() / period_s;
                    let lambda = base_rate * (1.0 + amplitude * phase.sin());
                    if self.rng.f64() * peak < lambda {
                        return Some(self.t);
                    }
                }
            }
        }
    }
}

impl ArrivalProcess {
    /// Streams arrivals lazily: an infinite iterator of nondecreasing
    /// instants, deterministic in the given rng, which the stream owns.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate or dwell time, an empty trace, or
    /// an out-of-range diurnal amplitude / flash multiplier.
    pub fn stream(&self, rng: Rng) -> ArrivalStream<'_> {
        ArrivalStream::new(self, rng)
    }

    /// The long-run mean arrival rate (requests/s). For the diurnal
    /// process this is exact over whole periods (the sinusoid averages
    /// out) with the overlay's dwell-weighted multiplier applied; a
    /// finite trace truncated mid-period converges to it as the span
    /// grows.
    pub fn mean_rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate } => *rate,
            ArrivalProcess::Mmpp {
                calm_rate,
                burst_rate,
                mean_calm,
                mean_burst,
            } => (calm_rate * mean_calm + burst_rate * mean_burst) / (mean_calm + mean_burst),
            ArrivalProcess::Trace { inter_arrivals } => {
                let total: SimDuration = inter_arrivals.iter().copied().sum();
                if total == SimDuration::ZERO {
                    0.0
                } else {
                    inter_arrivals.len() as f64 / total.as_secs_f64()
                }
            }
            ArrivalProcess::Diurnal {
                base_rate,
                flash_every,
                flash_mean,
                flash_mult,
                ..
            } => {
                let overlay = if *flash_mult > 1.0 {
                    (flash_every + flash_mean * flash_mult) / (flash_every + flash_mean)
                } else {
                    1.0
                };
                base_rate * overlay
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diurnal(flash_mult: f64) -> ArrivalProcess {
        ArrivalProcess::Diurnal {
            base_rate: 200.0,
            amplitude: 0.75,
            period: SimDuration::from_secs_f64(4.0),
            flash_every: 2.0,
            flash_mean: 0.25,
            flash_mult,
        }
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let p = ArrivalProcess::Poisson { rate: 100.0 };
        let times: Vec<SimTime> = p.stream(Rng::new(7)).take(20_000).collect();
        assert_eq!(times.len(), 20_000);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let span = times.last().expect("nonempty").as_secs_f64();
        let rate = times.len() as f64 / span;
        assert!((rate - 100.0).abs() < 3.0, "empirical rate {rate}");
    }

    #[test]
    fn mmpp_mixes_the_two_rates() {
        let p = ArrivalProcess::Mmpp {
            calm_rate: 50.0,
            burst_rate: 500.0,
            mean_calm: 1.0,
            mean_burst: 0.25,
        };
        let times: Vec<SimTime> = p.stream(Rng::new(3)).take(20_000).collect();
        let span = times.last().expect("nonempty").as_secs_f64();
        let rate = times.len() as f64 / span;
        let mean = p.mean_rate();
        assert!(
            (rate - mean).abs() / mean < 0.2,
            "rate {rate} vs mean {mean}"
        );
        // Burstier than Poisson at the same mean: the squared
        // coefficient of variation of the gaps exceeds 1.
        let gaps: Vec<f64> = times
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - m).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(var / (m * m) > 1.2, "cv2 {}", var / (m * m));
    }

    #[test]
    fn trace_replays_and_cycles() {
        let p = ArrivalProcess::Trace {
            inter_arrivals: vec![SimDuration::from_millis(1), SimDuration::from_millis(3)],
        };
        let times: Vec<SimTime> = p.stream(Rng::new(1)).take(4).collect();
        assert_eq!(
            times,
            vec![
                SimTime::from_millis(1),
                SimTime::from_millis(4),
                SimTime::from_millis(5),
                SimTime::from_millis(8),
            ]
        );
        assert!((p.mean_rate() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn same_seed_same_trace() {
        let p = ArrivalProcess::Poisson { rate: 10.0 };
        assert_eq!(
            p.stream(Rng::new(9)).take(100).collect::<Vec<_>>(),
            p.stream(Rng::new(9)).take(100).collect::<Vec<_>>()
        );
    }

    #[test]
    fn diurnal_mean_rate_matches_empirical() {
        let p = diurnal(2.5);
        // (2.0 + 0.25·2.5) / 2.25 = 1.1666…: the overlay lifts the
        // 200/s envelope to 233.3/s.
        let mean = p.mean_rate();
        assert!((mean - 200.0 * (2.0 + 0.625) / 2.25).abs() < 1e-9);
        let mut stream = p.stream(Rng::new(0xD1));
        let n = 200_000;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = stream.next().expect("infinite");
        }
        let rate = n as f64 / last.as_secs_f64();
        assert!(
            (rate - mean).abs() / mean < 0.1,
            "empirical {rate} vs analytic {mean}"
        );
    }

    #[test]
    fn diurnal_rate_tracks_the_sinusoid() {
        // No flash overlay: arrivals in the rising half-period (where
        // sin > 0) must clearly outnumber the falling half.
        let p = ArrivalProcess::Diurnal {
            base_rate: 100.0,
            amplitude: 0.9,
            period: SimDuration::from_secs_f64(10.0),
            flash_every: 0.0,
            flash_mean: 0.0,
            flash_mult: 1.0,
        };
        let times: Vec<SimTime> = p.stream(Rng::new(5)).take(5_000).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "nondecreasing");
        let in_phase = |t: &SimTime, lo: f64, hi: f64| {
            let frac = (t.as_secs_f64() / 10.0).fract();
            frac >= lo && frac < hi
        };
        let crest = times.iter().filter(|t| in_phase(t, 0.0, 0.5)).count();
        let trough = times.iter().filter(|t| in_phase(t, 0.5, 1.0)).count();
        assert!(
            crest as f64 > 1.5 * trough as f64,
            "crest {crest} vs trough {trough}"
        );
    }

    #[test]
    fn flash_crowds_lift_the_rate_in_bursts() {
        let calm: Vec<SimTime> = diurnal(1.0).stream(Rng::new(11)).take(20_000).collect();
        let flashy: Vec<SimTime> = diurnal(3.0).stream(Rng::new(11)).take(20_000).collect();
        let rate = |ts: &[SimTime]| ts.len() as f64 / ts.last().expect("nonempty").as_secs_f64();
        assert!(
            rate(&flashy) > 1.1 * rate(&calm),
            "overlay must lift the mean rate: {} vs {}",
            rate(&flashy),
            rate(&calm)
        );
        assert!(rate(&flashy) < diurnal(3.0).mean_rate() * 1.15);
    }

    #[test]
    fn million_request_diurnal_trace_streams_in_constant_memory() {
        // The point of the streaming API: fold over a million arrivals
        // without ever materializing them. (With the eager path this
        // run would allocate an 8 MB Vec; the stream holds one
        // instant.)
        let p = diurnal(2.0);
        let n = 1_000_000usize;
        let (count, last) =
            p.stream(Rng::new(0xBEEF))
                .take(n)
                .fold((0usize, SimTime::ZERO), |(c, prev), t| {
                    assert!(t >= prev, "arrivals must be nondecreasing");
                    (c + 1, t)
                });
        assert_eq!(count, n);
        let rate = n as f64 / last.as_secs_f64();
        let mean = p.mean_rate();
        assert!(
            (rate - mean).abs() / mean < 0.05,
            "1M-request empirical rate {rate} vs {mean}"
        );
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn out_of_range_amplitude_rejected() {
        let p = ArrivalProcess::Diurnal {
            base_rate: 10.0,
            amplitude: 1.5,
            period: SimDuration::from_secs_f64(1.0),
            flash_every: 0.0,
            flash_mean: 0.0,
            flash_mult: 1.0,
        };
        let _ = p.stream(Rng::new(1)).next();
    }
}
