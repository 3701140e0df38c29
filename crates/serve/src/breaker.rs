//! Per-shard circuit breakers: a shard that keeps failing stops being
//! probed at all, so one dead disk degrades the queries that need it into
//! fast typed failures instead of burning every query's retry budget.
//!
//! Classic three-state machine, tracked independently per shard:
//!
//! ```text
//!            consecutive failures >= threshold
//!   Closed ────────────────────────────────────▶ Open
//!     ▲                                            │ cooldown elapsed
//!     │ trial probe succeeds                       ▼
//!     └──────────────────────────────────────── HalfOpen
//!                    trial probe fails: back to Open (cooldown restarts)
//! ```
//!
//! While `Open` (and while a `HalfOpen` trial is in flight) every other
//! probe of the shard is refused without touching storage. All transitions
//! take the caller's [`Clock`](crate::clock::Clock) reading as an argument
//! (admission lazily — a closed breaker never reads the clock), so breaker
//! timing is exactly testable against a virtual clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Circuit-breaker tuning.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive probe failures of one shard that open its breaker.
    pub failure_threshold: u32,
    /// How long an open breaker refuses probes before letting one trial
    /// probe through.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 5,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// A shard breaker's externally visible state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: probes proceed.
    Closed,
    /// Tripped: probes fail fast until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one trial probe is deciding the shard's fate.
    HalfOpen,
}

/// Internal per-shard state.
#[derive(Debug)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { since: Duration },
    HalfOpen { since: Duration },
}

/// The admission verdict for one probe.
#[derive(Debug, PartialEq, Eq)]
pub enum Admit {
    /// Breaker closed: probe normally.
    Proceed,
    /// Breaker half-open: this probe is the trial — its outcome closes or
    /// reopens the breaker.
    Trial,
    /// Breaker open (or trial in flight): fail fast, don't touch storage.
    FailFast {
        /// How long the breaker has been open.
        open_for: Duration,
    },
}

/// Health tracking for every shard of one index: breaker state per shard
/// plus aggregate transition counters.
#[derive(Debug)]
pub struct ShardHealth {
    config: BreakerConfig,
    states: Vec<Mutex<State>>,
    opened: AtomicU64,
    reclosed: AtomicU64,
    trials: AtomicU64,
    fail_fast: AtomicU64,
}

impl ShardHealth {
    /// Health tracking for `shards` shards, all starting closed.
    pub fn new(shards: usize, config: BreakerConfig) -> Self {
        Self {
            config,
            states: (0..shards.max(1))
                .map(|_| {
                    Mutex::new(State::Closed {
                        consecutive_failures: 0,
                    })
                })
                .collect(),
            opened: AtomicU64::new(0),
            reclosed: AtomicU64::new(0),
            trials: AtomicU64::new(0),
            fail_fast: AtomicU64::new(0),
        }
    }

    fn state(&self, shard: u32) -> &Mutex<State> {
        &self.states[shard as usize % self.states.len()]
    }

    /// Decides whether a probe of `shard` may proceed. The instant is taken
    /// lazily: `now` is only read when the breaker is open or half-open, so
    /// a closed breaker — every probe of a healthy shard — costs no clock
    /// read.
    pub fn admit(&self, shard: u32, now: impl FnOnce() -> Duration) -> Admit {
        let mut state = self.state(shard).lock().expect("breaker lock");
        match *state {
            State::Closed { .. } => Admit::Proceed,
            State::Open { since } => {
                let now = now();
                if now.saturating_sub(since) >= self.config.cooldown {
                    *state = State::HalfOpen { since };
                    self.trials.fetch_add(1, Ordering::Relaxed);
                    Admit::Trial
                } else {
                    self.fail_fast.fetch_add(1, Ordering::Relaxed);
                    Admit::FailFast {
                        open_for: now.saturating_sub(since),
                    }
                }
            }
            State::HalfOpen { since } => {
                // A trial is already in flight; everyone else fails fast.
                self.fail_fast.fetch_add(1, Ordering::Relaxed);
                Admit::FailFast {
                    open_for: now().saturating_sub(since),
                }
            }
        }
    }

    /// Records a successful probe of `shard`: resets the failure streak,
    /// and a successful trial re-closes the breaker.
    pub fn record_success(&self, shard: u32) {
        let mut state = self.state(shard).lock().expect("breaker lock");
        match *state {
            State::Closed { .. } => {
                *state = State::Closed {
                    consecutive_failures: 0,
                }
            }
            State::HalfOpen { .. } => {
                self.reclosed.fetch_add(1, Ordering::Relaxed);
                *state = State::Closed {
                    consecutive_failures: 0,
                };
            }
            // A stale success racing with an open breaker: leave the
            // breaker to its cooldown-and-trial protocol.
            State::Open { .. } => {}
        }
    }

    /// Records a failed probe of `shard` at time `now`: extends the
    /// failure streak (opening the breaker at the threshold), and a failed
    /// trial reopens it with a fresh cooldown.
    pub fn record_failure(&self, shard: u32, now: Duration) {
        let mut state = self.state(shard).lock().expect("breaker lock");
        match *state {
            State::Closed {
                consecutive_failures,
            } => {
                let streak = consecutive_failures + 1;
                if streak >= self.config.failure_threshold {
                    self.opened.fetch_add(1, Ordering::Relaxed);
                    *state = State::Open { since: now };
                } else {
                    *state = State::Closed {
                        consecutive_failures: streak,
                    };
                }
            }
            State::HalfOpen { .. } => {
                self.opened.fetch_add(1, Ordering::Relaxed);
                *state = State::Open { since: now };
            }
            State::Open { .. } => {}
        }
    }

    /// The breaker state of `shard`.
    pub fn state_of(&self, shard: u32) -> BreakerState {
        match *self.state(shard).lock().expect("breaker lock") {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Total open transitions (including trial-failure reopens).
    pub fn opened(&self) -> u64 {
        self.opened.load(Ordering::Relaxed)
    }

    /// Total half-open trials admitted.
    pub fn trials(&self) -> u64 {
        self.trials.load(Ordering::Relaxed)
    }

    /// Total successful trials that re-closed a breaker.
    pub fn reclosed(&self) -> u64 {
        self.reclosed.load(Ordering::Relaxed)
    }

    /// Total probes refused without touching storage.
    pub fn fail_fast(&self) -> u64 {
        self.fail_fast.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn opens_at_threshold_and_fails_fast_until_cooldown() {
        let health = ShardHealth::new(
            4,
            BreakerConfig {
                failure_threshold: 3,
                cooldown: ms(100),
            },
        );
        for _ in 0..2 {
            assert_eq!(health.admit(1, || ms(0)), Admit::Proceed);
            health.record_failure(1, ms(0));
        }
        assert_eq!(health.state_of(1), BreakerState::Closed);
        health.record_failure(1, ms(10));
        assert_eq!(health.state_of(1), BreakerState::Open);
        assert_eq!(health.opened(), 1);
        assert_eq!(
            health.admit(1, || ms(50)),
            Admit::FailFast { open_for: ms(40) }
        );
        // Other shards stay healthy.
        assert_eq!(health.admit(0, || ms(50)), Admit::Proceed);
        assert_eq!(health.fail_fast(), 1);
    }

    #[test]
    fn half_open_trial_recloses_on_success() {
        let health = ShardHealth::new(
            2,
            BreakerConfig {
                failure_threshold: 1,
                cooldown: ms(100),
            },
        );
        health.record_failure(0, ms(0));
        assert_eq!(health.state_of(0), BreakerState::Open);
        assert_eq!(health.admit(0, || ms(100)), Admit::Trial);
        assert_eq!(health.state_of(0), BreakerState::HalfOpen);
        // Concurrent probes during the trial still fail fast.
        assert!(matches!(
            health.admit(0, || ms(101)),
            Admit::FailFast { .. }
        ));
        health.record_success(0);
        assert_eq!(health.state_of(0), BreakerState::Closed);
        assert_eq!(health.reclosed(), 1);
        assert_eq!(health.admit(0, || ms(102)), Admit::Proceed);
    }

    #[test]
    fn failed_trial_reopens_with_fresh_cooldown() {
        let health = ShardHealth::new(
            2,
            BreakerConfig {
                failure_threshold: 1,
                cooldown: ms(100),
            },
        );
        health.record_failure(0, ms(0));
        assert_eq!(health.admit(0, || ms(120)), Admit::Trial);
        health.record_failure(0, ms(120));
        assert_eq!(health.state_of(0), BreakerState::Open);
        assert_eq!(health.opened(), 2);
        // Cooldown restarts from the failed trial, not the original open.
        assert!(matches!(
            health.admit(0, || ms(150)),
            Admit::FailFast { .. }
        ));
        assert_eq!(health.admit(0, || ms(220)), Admit::Trial);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let health = ShardHealth::new(
            1,
            BreakerConfig {
                failure_threshold: 3,
                cooldown: ms(100),
            },
        );
        for round in 0..10 {
            health.record_failure(0, ms(round));
            health.record_failure(0, ms(round));
            health.record_success(0);
        }
        assert_eq!(
            health.state_of(0),
            BreakerState::Closed,
            "interleaved successes must keep the breaker closed"
        );
        assert_eq!(health.opened(), 0);
    }
}
