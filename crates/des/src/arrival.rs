//! Stochastic open-loop traffic: arrival processes and service-time
//! distributions (DESIGN.md §13).
//!
//! An open-loop client issues calls on a *schedule* that does not wait
//! for completions — exactly the regime where overload happens and the
//! admission plane earns its keep. Everything here draws from the
//! workspace's one seeded PRNG ([`SplitMix64`]), so a single `u64` seed
//! reproduces an entire offered-load trace byte-identically, and no
//! wall clock or OS entropy is ever consulted.
//!
//! Times are in cycles of the modelled CPU, like the rest of the DES.

use serde::{Deserialize, Serialize};
use switchless_core::rand::SplitMix64;

/// When the next call arrives, relative to the previous arrival.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Poisson arrivals: exponential gaps with the given mean.
    Poisson {
        /// Mean inter-arrival gap in cycles (rate = 1/mean).
        mean_gap_cycles: u64,
    },
    /// Two-state Markov-modulated Poisson process: calm periods of
    /// sparse arrivals alternating with bursts of dense ones. Dwell
    /// times in each state are themselves exponential, so bursts arrive
    /// unpredictably and last unpredictably — the canonical "bursty"
    /// open-loop load.
    Mmpp {
        /// Mean gap while calm.
        calm_gap_cycles: u64,
        /// Mean gap while bursting (smaller = denser).
        burst_gap_cycles: u64,
        /// Mean dwell in the calm state.
        calm_dwell_cycles: u64,
        /// Mean dwell in the burst state.
        burst_dwell_cycles: u64,
    },
}

impl ArrivalProcess {
    /// Mean gap once dwell-weighted (the long-run offered rate is
    /// roughly one call per this many cycles). Used by the overload
    /// sweep to turn "2× saturation" into process parameters.
    #[must_use]
    pub fn mean_gap_cycles(&self) -> u64 {
        match *self {
            ArrivalProcess::Poisson { mean_gap_cycles } => mean_gap_cycles.max(1),
            ArrivalProcess::Mmpp {
                calm_gap_cycles,
                burst_gap_cycles,
                calm_dwell_cycles,
                burst_dwell_cycles,
            } => {
                // Arrivals per dwell-weighted cycle: time-average the
                // two rates.
                let calm_rate = 1.0 / calm_gap_cycles.max(1) as f64;
                let burst_rate = 1.0 / burst_gap_cycles.max(1) as f64;
                let total = (calm_dwell_cycles + burst_dwell_cycles).max(1) as f64;
                let rate = (calm_rate * calm_dwell_cycles as f64
                    + burst_rate * burst_dwell_cycles as f64)
                    / total;
                if rate <= 0.0 {
                    u64::MAX
                } else {
                    (1.0 / rate) as u64
                }
            }
        }
    }
}

/// How long the host function of each call runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServiceDist {
    /// Every call takes exactly this long (the template's own
    /// `host_cycles` when 0).
    Fixed {
        /// Host-function cycles per call.
        cycles: u64,
    },
    /// Exponential service times with the given mean.
    Exponential {
        /// Mean host-function cycles.
        mean_cycles: u64,
    },
}

impl ServiceDist {
    /// Draw one service time.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match *self {
            ServiceDist::Fixed { cycles } => cycles,
            ServiceDist::Exponential { mean_cycles } => exp_cycles(rng, mean_cycles),
        }
    }
}

/// Exponential draw with the given mean, clamped to ≥ 1 cycle (arrival
/// times must strictly increase) and ≤ 64 × mean (one astronomically
/// unlucky draw must not stall a deterministic trace for a virtual
/// hour).
fn exp_cycles(rng: &mut SplitMix64, mean: u64) -> u64 {
    let mean = mean.max(1);
    let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
    let x = -u.ln() * mean as f64;
    (x as u64).clamp(1, mean.saturating_mul(64))
}

/// Generator state: walks an [`ArrivalProcess`] forward, producing the
/// absolute arrival clock (cycles since workload start) one call at a
/// time.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: SplitMix64,
    /// Absolute cycle of the last arrival produced.
    t: u64,
    /// MMPP: currently bursting?
    bursting: bool,
    /// MMPP: cycles left in the current dwell.
    dwell_left: u64,
}

impl ArrivalGen {
    /// Generator for `process` seeded with `seed`.
    #[must_use]
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let dwell_left = match process {
            ArrivalProcess::Mmpp {
                calm_dwell_cycles, ..
            } => exp_cycles(&mut rng, calm_dwell_cycles),
            _ => 0,
        };
        ArrivalGen {
            process,
            rng,
            t: 0,
            bursting: false,
            dwell_left,
        }
    }

    /// Absolute cycle of the next arrival (strictly increasing).
    pub fn next_arrival(&mut self) -> u64 {
        let gap = match self.process {
            ArrivalProcess::Poisson { mean_gap_cycles } => {
                exp_cycles(&mut self.rng, mean_gap_cycles)
            }
            ArrivalProcess::Mmpp {
                calm_gap_cycles,
                burst_gap_cycles,
                calm_dwell_cycles,
                burst_dwell_cycles,
            } => {
                // Competing clocks: draw a gap at the current state's
                // scale; if the dwell expires first, burn the dwell,
                // flip state and re-draw from the boundary. For
                // exponential gaps the re-draw is exact (memoryless),
                // not an approximation. The flip count is bounded so a
                // degenerate parameterisation (dwell ≪ gap) cannot spin.
                let mut gap_total = 0u64;
                for _ in 0..64 {
                    let scale = if self.bursting {
                        burst_gap_cycles
                    } else {
                        calm_gap_cycles
                    };
                    let draw = exp_cycles(&mut self.rng, scale);
                    if draw < self.dwell_left {
                        self.dwell_left -= draw;
                        gap_total += draw;
                        break;
                    }
                    gap_total += self.dwell_left;
                    self.bursting = !self.bursting;
                    self.dwell_left = exp_cycles(
                        &mut self.rng,
                        if self.bursting {
                            burst_dwell_cycles
                        } else {
                            calm_dwell_cycles
                        },
                    );
                }
                gap_total.max(1)
            }
        };
        self.t = self.t.saturating_add(gap.max(1));
        self.t
    }

    /// The process this generator walks.
    #[must_use]
    pub fn process(&self) -> ArrivalProcess {
        self.process
    }
}

/// Seeded service-time sampler (its own substream, so arrival and
/// service draws never interleave-perturb each other).
#[derive(Debug, Clone)]
pub struct ServiceSampler {
    dist: ServiceDist,
    rng: SplitMix64,
}

impl ServiceSampler {
    /// Sampler for `dist` seeded with `seed`.
    #[must_use]
    pub fn new(dist: ServiceDist, seed: u64) -> Self {
        ServiceSampler {
            dist,
            rng: SplitMix64::new(seed),
        }
    }

    /// Draw the next call's host-function cycles.
    pub fn next_cycles(&mut self) -> u64 {
        self.dist.sample(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut g: ArrivalGen, n: usize) -> Vec<u64> {
        (0..n).map(|_| g.next_arrival()).collect()
    }

    #[test]
    fn same_seed_same_trace() {
        for process in [
            ArrivalProcess::Poisson {
                mean_gap_cycles: 1_000,
            },
            ArrivalProcess::Mmpp {
                calm_gap_cycles: 2_000,
                burst_gap_cycles: 100,
                calm_dwell_cycles: 50_000,
                burst_dwell_cycles: 20_000,
            },
        ] {
            let a = drain(ArrivalGen::new(process, 42), 500);
            let b = drain(ArrivalGen::new(process, 42), 500);
            assert_eq!(a, b);
            let c = drain(ArrivalGen::new(process, 43), 500);
            assert_ne!(a, c, "different seeds must diverge: {process:?}");
        }
    }

    #[test]
    fn arrivals_strictly_increase() {
        let g = ArrivalGen::new(
            ArrivalProcess::Mmpp {
                calm_gap_cycles: 500,
                burst_gap_cycles: 10,
                calm_dwell_cycles: 5_000,
                burst_dwell_cycles: 2_000,
            },
            7,
        );
        let ts = drain(g, 2_000);
        for w in ts.windows(2) {
            assert!(w[1] > w[0], "{} then {}", w[0], w[1]);
        }
    }

    #[test]
    fn poisson_mean_gap_is_about_right() {
        let ts = drain(
            ArrivalGen::new(
                ArrivalProcess::Poisson {
                    mean_gap_cycles: 1_000,
                },
                9,
            ),
            20_000,
        );
        let mean = *ts.last().unwrap() as f64 / ts.len() as f64;
        assert!(
            (800.0..1_200.0).contains(&mean),
            "empirical mean gap {mean}"
        );
    }

    #[test]
    fn mmpp_bursts_are_denser_than_calm() {
        // Gap histogram must be bimodal-ish: plenty of gaps near the
        // burst scale AND plenty near the calm scale.
        let g = ArrivalGen::new(
            ArrivalProcess::Mmpp {
                calm_gap_cycles: 10_000,
                burst_gap_cycles: 100,
                calm_dwell_cycles: 200_000,
                burst_dwell_cycles: 100_000,
            },
            11,
        );
        let ts = drain(g, 5_000);
        let gaps: Vec<u64> = ts.windows(2).map(|w| w[1] - w[0]).collect();
        let short = gaps.iter().filter(|&&g| g < 1_000).count();
        let long = gaps.iter().filter(|&&g| g > 3_000).count();
        assert!(short > 500, "burst gaps present: {short}");
        assert!(long > 100, "calm gaps present: {long}");
    }

    #[test]
    fn exponential_service_times_have_the_right_mean() {
        let mut s = ServiceSampler::new(ServiceDist::Exponential { mean_cycles: 5_000 }, 17);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| s.next_cycles()).sum();
        let mean = total as f64 / n as f64;
        assert!((4_000.0..6_000.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn fixed_service_is_fixed() {
        let mut s = ServiceSampler::new(ServiceDist::Fixed { cycles: 123 }, 1);
        assert!((0..100).all(|_| s.next_cycles() == 123));
    }

    #[test]
    fn mean_gap_estimates_are_sane() {
        assert_eq!(
            ArrivalProcess::Poisson {
                mean_gap_cycles: 500
            }
            .mean_gap_cycles(),
            500
        );
        // Equal dwells, rates 1/100 and 1/10_000: the time-averaged
        // rate is dominated by the burst state.
        let m = ArrivalProcess::Mmpp {
            calm_gap_cycles: 10_000,
            burst_gap_cycles: 100,
            calm_dwell_cycles: 1_000,
            burst_dwell_cycles: 1_000,
        }
        .mean_gap_cycles();
        assert!((150..300).contains(&m), "dwell-weighted mean gap {m}");
    }
}
