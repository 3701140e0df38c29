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
//!
//! Each shard's state sits behind its own mutex, with one atomic flag
//! beside it mirroring "closed, no failure on the streak" (pristine), and
//! one counter over the whole table of the shards that are not. That is the
//! state of every healthy shard at every probe, so a healthy index skips
//! both per-probe calls: the serving loop reads
//! [`ShardHealth::all_pristine`] once and, while it holds, goes straight to
//! storage. [`ShardHealth::admit`] and [`ShardHealth::record_success`] run
//! only once a shard has failed, still answering from one load of the
//! shard's flag and taking the lock only for a shard that has failed.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// The state [`ShardBreaker::pristine`] mirrors.
const PRISTINE: State = State::Closed {
    consecutive_failures: 0,
};

/// One shard's breaker.
#[derive(Debug)]
struct ShardBreaker {
    /// Whether `state` is [`PRISTINE`]. Written only under the `state`
    /// lock, with `Release`: cleared before a failure changes the state,
    /// set after a success or a passed trial restored it. The lock-free
    /// readers pair with an `Acquire` load, so a probe that starts after
    /// `record_failure` returned cannot still read `true`. Every flip is a
    /// `swap` whose result moves [`ShardHealth::off_pristine`] by one.
    pristine: AtomicBool,
    state: Mutex<State>,
}

/// Health tracking for every shard of one index: breaker state per shard
/// plus aggregate transition counters.
#[derive(Debug)]
pub struct ShardHealth {
    config: BreakerConfig,
    shards: Vec<ShardBreaker>,
    /// How many shards' `pristine` flag is clear. Moved only under the
    /// flipping shard's lock, with `Release`, so every increment has its
    /// matching decrement and a failure is counted before its
    /// `record_failure` returns.
    off_pristine: AtomicUsize,
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
            shards: (0..shards.max(1))
                .map(|_| ShardBreaker {
                    pristine: AtomicBool::new(true),
                    state: Mutex::new(PRISTINE),
                })
                .collect(),
            off_pristine: AtomicUsize::new(0),
            opened: AtomicU64::new(0),
            reclosed: AtomicU64::new(0),
            trials: AtomicU64::new(0),
            fail_fast: AtomicU64::new(0),
        }
    }

    fn shard(&self, shard: u32) -> &ShardBreaker {
        debug_assert!(
            (shard as usize) < self.shards.len(),
            "shard {shard} out of range for {} breakers",
            self.shards.len()
        );
        &self.shards[shard as usize]
    }

    /// Whether no shard has a failure on its streak — every breaker closed
    /// and pristine, so [`admit`](Self::admit) would answer
    /// [`Admit::Proceed`] and [`record_success`](Self::record_success) do
    /// nothing for any shard. One `Acquire` load: a probe that starts after
    /// a [`record_failure`](Self::record_failure) returned reads `false`.
    #[inline]
    pub fn all_pristine(&self) -> bool {
        self.off_pristine.load(Ordering::Acquire) == 0
    }

    /// Decides whether a probe of `shard` may proceed. The instant is taken
    /// lazily: `now` is only read when the breaker is open or half-open, so
    /// a closed breaker — every probe of a healthy shard — costs no clock
    /// read, and one that has no failure on its streak no lock either.
    pub fn admit(&self, shard: u32, now: impl FnOnce() -> Duration) -> Admit {
        let shard = self.shard(shard);
        if shard.pristine.load(Ordering::Acquire) {
            return Admit::Proceed;
        }
        let mut state = shard.state.lock().expect("breaker lock");
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
        let shard = self.shard(shard);
        if shard.pristine.load(Ordering::Acquire) {
            return;
        }
        let mut state = shard.state.lock().expect("breaker lock");
        match *state {
            State::Closed { .. } => {}
            State::HalfOpen { .. } => {
                self.reclosed.fetch_add(1, Ordering::Relaxed);
            }
            // A stale success racing with an open breaker: leave the
            // breaker to its cooldown-and-trial protocol.
            State::Open { .. } => return,
        }
        *state = PRISTINE;
        if !shard.pristine.swap(true, Ordering::Release) {
            self.off_pristine.fetch_sub(1, Ordering::Release);
        }
    }

    /// Records a failed probe of `shard` at time `now`: extends the
    /// failure streak (opening the breaker at the threshold), and a failed
    /// trial reopens it with a fresh cooldown.
    pub fn record_failure(&self, shard: u32, now: Duration) {
        let shard = self.shard(shard);
        let mut state = shard.state.lock().expect("breaker lock");
        if shard.pristine.swap(false, Ordering::Release) {
            self.off_pristine.fetch_add(1, Ordering::Release);
        }
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
        match *self.shard(shard).state.lock().expect("breaker lock") {
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

    /// Whether `shard`'s lock-free mirror equals what it mirrors.
    fn mirror_agrees(health: &ShardHealth, shard: u32) -> bool {
        let shard = health.shard(shard);
        let state = shard.state.lock().unwrap();
        shard.pristine.load(Ordering::Acquire)
            == matches!(
                *state,
                State::Closed {
                    consecutive_failures: 0
                }
            )
    }

    /// Whether the table-wide count equals the number of shards whose
    /// locked state is not [`PRISTINE`] (every lock held while counting).
    fn count_agrees(health: &ShardHealth) -> bool {
        let states: Vec<_> = health
            .shards
            .iter()
            .map(|shard| shard.state.lock().unwrap())
            .collect();
        let off = states
            .iter()
            .filter(|state| {
                !matches!(
                    ***state,
                    State::Closed {
                        consecutive_failures: 0
                    }
                )
            })
            .count();
        health.off_pristine.load(Ordering::Acquire) == off
    }

    /// The serving loop's per-probe decision: the early-out, else admission.
    fn guarded_admit(health: &ShardHealth, shard: u32, now: Duration) -> Admit {
        if health.all_pristine() {
            Admit::Proceed
        } else {
            health.admit(shard, || now)
        }
    }

    #[test]
    fn the_mirror_follows_the_state_through_every_transition() {
        let health = ShardHealth::new(
            1,
            BreakerConfig {
                failure_threshold: 3,
                cooldown: ms(100),
            },
        );
        let step = |what: &str, admitted: Option<Admit>, state: BreakerState| {
            assert_eq!(health.state_of(0), state, "after {what}");
            assert!(mirror_agrees(&health, 0), "mirror stale after {what}");
            assert!(count_agrees(&health), "count stale after {what}");
            admitted
        };
        // Closed and pristine: both per-probe calls take the fast path.
        let admitted = step("new", Some(health.admit(0, || ms(0))), BreakerState::Closed);
        assert_eq!(admitted, Some(Admit::Proceed));
        health.record_success(0);
        step("a success while pristine", None, BreakerState::Closed);
        // A streak: closed, but no longer pristine — then reset by a success.
        health.record_failure(0, ms(1));
        step("one failure", None, BreakerState::Closed);
        assert!(!health.shard(0).pristine.load(Ordering::Acquire));
        let admitted = step(
            "admit on a streak",
            Some(health.admit(0, || ms(1))),
            BreakerState::Closed,
        );
        assert_eq!(admitted, Some(Admit::Proceed));
        health.record_success(0);
        step("the streak reset", None, BreakerState::Closed);
        assert!(health.shard(0).pristine.load(Ordering::Acquire));
        // Open at the threshold; a stale success leaves it open.
        for i in 0..3 {
            health.record_failure(0, ms(10 + i));
        }
        step("the threshold", None, BreakerState::Open);
        health.record_success(0);
        step("a stale success", None, BreakerState::Open);
        let admitted = step(
            "admit while open",
            Some(health.admit(0, || ms(50))),
            BreakerState::Open,
        );
        assert!(matches!(admitted, Some(Admit::FailFast { .. })));
        // Half-open; the trial fails, reopening; the next trial passes.
        let admitted = step(
            "the cooldown",
            Some(health.admit(0, || ms(112))),
            BreakerState::HalfOpen,
        );
        assert_eq!(admitted, Some(Admit::Trial));
        health.record_failure(0, ms(113));
        step("a failed trial", None, BreakerState::Open);
        let admitted = step(
            "the second cooldown",
            Some(health.admit(0, || ms(213))),
            BreakerState::HalfOpen,
        );
        assert_eq!(admitted, Some(Admit::Trial));
        health.record_success(0);
        step("a passed trial", None, BreakerState::Closed);
        assert_eq!(health.admit(0, || ms(214)), Admit::Proceed);
        assert_eq!((health.opened(), health.reclosed()), (2, 1));
    }

    /// A seeded script of `admit` / `record_success` / `record_failure`
    /// calls over several shards, on a clock that only moves forward: after
    /// every call, each shard's flag mirrors its state and the table-wide
    /// count equals the shards off pristine — so `all_pristine` holds
    /// exactly when every breaker would wave a probe through untouched.
    #[test]
    fn the_count_follows_every_shard_through_a_random_script() {
        use rand::{Rng, SeedableRng};
        const SHARDS: u32 = 5;
        let mut rng = rand_chacha::ChaCha20Rng::seed_from_u64(23);
        let health = ShardHealth::new(
            SHARDS as usize,
            BreakerConfig {
                failure_threshold: 3,
                cooldown: ms(20),
            },
        );
        let mut now = ms(0);
        // Times the whole table came back to pristine after a failure.
        let (mut heals, mut off) = (0, false);
        for step in 0..20_000 {
            now += ms(rng.gen_range(0..3));
            let shard = rng.gen_range(0..SHARDS);
            let what = match rng.gen_range(0..3) {
                0 => {
                    health.admit(shard, || now);
                    "admit"
                }
                1 => {
                    health.record_success(shard);
                    "record_success"
                }
                _ => {
                    health.record_failure(shard, now);
                    assert!(!health.all_pristine(), "step {step}: a failure counts");
                    "record_failure"
                }
            };
            for shard in 0..SHARDS {
                assert!(
                    mirror_agrees(&health, shard),
                    "step {step}: shard {shard}'s mirror stale after {what}"
                );
            }
            assert!(
                count_agrees(&health),
                "step {step}: count stale after {what}"
            );
            let pristine = health.all_pristine();
            heals += usize::from(off && pristine);
            off = !pristine;
        }
        assert!(heals > 0, "the script heals the table");
        assert!(health.opened() > 0 && health.reclosed() > 0);
    }

    /// One thread fails, succeeds, opens and re-closes the breaker, round
    /// after round; another admits throughout, both through `admit` and
    /// through the serving loop's early-out. Once the `record_failure` that
    /// opened the breaker has returned (published through `opened`), no
    /// probe may still take a fast path — neither the shard's flag nor the
    /// table-wide count — while another shard's probes still proceed.
    #[test]
    fn no_probe_proceeds_once_the_opening_failure_has_returned() {
        const ROUNDS: u64 = 200;
        let health = ShardHealth::new(
            2,
            BreakerConfig {
                failure_threshold: 2,
                cooldown: ms(100),
            },
        );
        // Round `r` is open from the moment `opened` reads `r` until
        // `checked` reads `r` too.
        let (opened, checked) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for round in 1..=ROUNDS {
                    // A streak and a reset race the other thread's fast
                    // path; then the threshold opens the breaker.
                    health.record_failure(0, ms(0));
                    health.record_success(0);
                    health.record_failure(0, ms(0));
                    health.record_failure(0, ms(0));
                    opened.store(round, Ordering::Release);
                    while checked.load(Ordering::Acquire) != round {
                        std::thread::yield_now();
                    }
                    // Only this thread's clock is past the cooldown.
                    assert_eq!(health.admit(0, || ms(100)), Admit::Trial);
                    health.record_success(0);
                }
            });
            scope.spawn(|| {
                for round in 1..=ROUNDS {
                    while opened.load(Ordering::Acquire) != round {
                        // Racing the writer: either verdict is legal here.
                        let admitted = health.admit(0, || ms(0));
                        assert_ne!(admitted, Admit::Trial);
                        assert_ne!(guarded_admit(&health, 0, ms(0)), Admit::Trial);
                    }
                    for _ in 0..8 {
                        assert!(!health.all_pristine(), "round {round}: early-out taken");
                        for admitted in
                            [health.admit(0, || ms(0)), guarded_admit(&health, 0, ms(0))]
                        {
                            assert!(
                                matches!(admitted, Admit::FailFast { .. }),
                                "round {round}: {admitted:?} from an open breaker"
                            );
                        }
                        assert_eq!(guarded_admit(&health, 1, ms(0)), Admit::Proceed);
                    }
                    checked.store(round, Ordering::Release);
                }
            });
        });
        assert!(mirror_agrees(&health, 0));
        assert!(count_agrees(&health) && health.all_pristine());
        assert_eq!(health.state_of(0), BreakerState::Closed);
        assert_eq!((health.opened(), health.reclosed()), (ROUNDS, ROUNDS));
    }
}
