//! Open-loop arrival processes: *when* requests reach the server.
//!
//! An **open-loop** trace fixes send times ahead of time from an arrival
//! process, so a stalled server would accumulate lag instead of slowing the
//! generator down. [`ArrivalProcess::Poisson`] — memoryless steady load at
//! a constant rate, the classic independent-users model — is the one
//! process, and a single seeded RNG stream fully determines it: same seed,
//! byte-identical timestamps.

use rand::Rng;
use std::time::Duration;

/// A seeded, deterministic arrival-time generator (see the [module
/// docs](self)). Rates are events per second and must be positive.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Constant-rate memoryless arrivals: exponential inter-arrival times
    /// with mean `1 / rate_per_sec`.
    Poisson {
        /// Mean arrival rate, events per second.
        rate_per_sec: f64,
    },
}

impl ArrivalProcess {
    /// Generates every arrival timestamp in `[0, horizon)`, ascending.
    ///
    /// Inter-arrival times are exponential at the rate. Each arrival also
    /// draws a uniform `keep` — the thinning draw (Lewis & Shedler) of a
    /// variable-rate process, which a constant rate always passes. The draw
    /// stays: dropping it would shift the RNG stream and with it every
    /// trace generated from a seed, the query sets of the benchmark's hot
    /// workloads included (`trace`'s `perf_hotspot_trace_is_pinned` pins
    /// one). The whole timestamp vector is a pure function of `(self,
    /// horizon, rng stream)`.
    ///
    /// # Panics
    /// Panics if the rate is not positive or the horizon is zero.
    pub fn timestamps<R: Rng + ?Sized>(&self, horizon: Duration, rng: &mut R) -> Vec<Duration> {
        let Self::Poisson { rate_per_sec: rate } = *self;
        assert!(rate > 0.0, "Poisson rate must be positive");
        assert!(horizon > Duration::ZERO, "horizon must be positive");
        let horizon_s = horizon.as_secs_f64();
        let mut out = Vec::with_capacity((rate * horizon_s) as usize + 16);
        let mut t = 0.0f64;
        loop {
            // Exponential inter-arrival at the rate. `1 - u` keeps the
            // argument of ln strictly positive for u in [0, 1).
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -(1.0 - u).ln() / rate;
            if t >= horizon_s {
                return out;
            }
            let _keep: f64 = rng.gen_range(0.0..1.0);
            out.push(Duration::from_secs_f64(t));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha20Rng;

    #[test]
    fn poisson_mean_inter_arrival_is_calibrated() {
        let process = ArrivalProcess::Poisson {
            rate_per_sec: 1000.0,
        };
        let mut rng = ChaCha20Rng::seed_from_u64(1);
        let stamps = process.timestamps(Duration::from_secs(10), &mut rng);
        // ~10k events; the mean inter-arrival must sit near 1ms.
        assert!(stamps.len() > 8_000, "got only {} events", stamps.len());
        let mean_ns = stamps.last().unwrap().as_nanos() as f64 / stamps.len() as f64;
        let expected_ns = 1e6;
        assert!(
            (mean_ns - expected_ns).abs() < expected_ns * 0.1,
            "mean inter-arrival {mean_ns}ns far from {expected_ns}ns"
        );
    }

    #[test]
    fn timestamps_are_sorted_and_inside_the_horizon() {
        let horizon = Duration::from_millis(500);
        let process = ArrivalProcess::Poisson {
            rate_per_sec: 500.0,
        };
        let mut rng = ChaCha20Rng::seed_from_u64(2);
        let stamps = process.timestamps(horizon, &mut rng);
        assert!(!stamps.is_empty(), "no events");
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "must be sorted");
        assert!(*stamps.last().unwrap() < horizon);
    }

    #[test]
    fn same_seed_same_timestamps() {
        let process = ArrivalProcess::Poisson {
            rate_per_sec: 700.0,
        };
        let horizon = Duration::from_millis(300);
        let a = process.timestamps(horizon, &mut ChaCha20Rng::seed_from_u64(9));
        let b = process.timestamps(horizon, &mut ChaCha20Rng::seed_from_u64(9));
        let c = process.timestamps(horizon, &mut ChaCha20Rng::seed_from_u64(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Poisson calibration as a property: for any rate and seed,
            /// the empirical mean inter-arrival stays within 15% of `1/λ`
            /// over a horizon long enough for ~4000 events.
            #[test]
            fn poisson_mean_within_tolerance(
                rate_int in 200u32..20_000,
                seed in any::<u64>(),
            ) {
                let rate = rate_int as f64;
                let horizon = Duration::from_secs_f64(4_000.0 / rate);
                let process = ArrivalProcess::Poisson { rate_per_sec: rate };
                let stamps = process.timestamps(horizon, &mut ChaCha20Rng::seed_from_u64(seed));
                prop_assert!(stamps.len() > 2_000);
                let mean_s = stamps.last().unwrap().as_secs_f64() / stamps.len() as f64;
                let expected_s = 1.0 / rate;
                prop_assert!(
                    (mean_s - expected_s).abs() < expected_s * 0.15,
                    "rate {rate}: mean inter-arrival {mean_s}s vs expected {expected_s}s"
                );
            }
        }
    }
}
