//! Budgeted, jittered retries.
//!
//! A failed probe is retried only while a **global retry budget** allows
//! it: a token pool shared by every query a server answers, credited per
//! admitted query (so sustained load earns sustained repair capacity, up to
//! a cap) and drained one token per retry. The budget bounds how much
//! retrying a degraded disk can trigger, and its counters make it visible.
//! When the pool is dry, failures surface immediately as typed errors — a
//! sick storage layer degrades the service gracefully instead of
//! multiplying its own load with retry storms.
//!
//! Retries happen at **probe granularity** (see `ResilientServer`): under a
//! 10% per-probe fault rate a whole-query retry would itself fail with
//! probability `1 − 0.9^P` for a `P`-probe query — rerunning everything to
//! re-roll one probe — while a per-probe retry re-reads just the failed
//! block. Backoff uses decorrelated jitter (bounded exponential growth with
//! a seeded uniform draw) so concurrent retriers spread out instead of
//! thundering in lockstep; the RNG is seeded, so tests are deterministic.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha20Rng;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Retry tuning.
#[derive(Clone, Debug)]
pub struct RetryConfig {
    /// Attempts per probe, including the first (so `1` disables retries).
    pub max_attempts: u32,
    /// Tokens in the budget at server start.
    pub initial_tokens: u64,
    /// Tokens credited per admitted query.
    pub tokens_per_query: u64,
    /// Budget cap: crediting never raises the pool above this.
    pub max_tokens: u64,
    /// Lower bound (and growth base) of the backoff sleep.
    pub backoff_base: Duration,
    /// Upper bound of any backoff sleep.
    pub backoff_cap: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            initial_tokens: 64,
            tokens_per_query: 2,
            max_tokens: 512,
            backoff_base: Duration::from_micros(500),
            backoff_cap: Duration::from_millis(50),
        }
    }
}

/// The shared retry state of one server: the token pool, the seeded jitter
/// source, and the observability counters.
#[derive(Debug)]
pub struct RetryPolicy {
    config: RetryConfig,
    /// Remaining retry tokens (clamped to `0..=max_tokens`).
    tokens: AtomicI64,
    /// Seeded jitter source for backoff draws.
    rng: Mutex<ChaCha20Rng>,
    /// Retries performed.
    retries: AtomicU64,
    /// Times a retry was denied because the pool was dry.
    denied: AtomicU64,
}

impl RetryPolicy {
    /// A policy with the given tuning, drawing jitter from `seed`.
    pub fn new(config: RetryConfig, seed: u64) -> Self {
        let tokens =
            i64::try_from(config.initial_tokens.min(config.max_tokens)).unwrap_or(i64::MAX);
        Self {
            config,
            tokens: AtomicI64::new(tokens),
            rng: Mutex::new(ChaCha20Rng::seed_from_u64(seed)),
            retries: AtomicU64::new(0),
            denied: AtomicU64::new(0),
        }
    }

    /// The tuning this policy runs under.
    pub fn config(&self) -> &RetryConfig {
        &self.config
    }

    /// Credits the budget for one admitted query (clamped at the cap). A
    /// pool already at the cap — a healthy server's normal state — is left
    /// untouched: the credit would be clamped away, so it takes effect at
    /// the load instead of in a compare-and-swap loop.
    pub fn credit_query(&self) {
        let cap = i64::try_from(self.config.max_tokens).unwrap_or(i64::MAX);
        if self.tokens.load(Ordering::SeqCst) >= cap {
            return;
        }
        let credit = i64::try_from(self.config.tokens_per_query).unwrap_or(i64::MAX);
        let _ = self
            .tokens
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| {
                Some((t.saturating_add(credit)).min(cap))
            });
    }

    /// Takes one retry token; `false` (and a denial count) if the pool is
    /// dry.
    pub fn try_consume(&self) -> bool {
        let taken = self
            .tokens
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| {
                (t > 0).then_some(t - 1)
            })
            .is_ok();
        if taken {
            self.retries.fetch_add(1, Ordering::Relaxed);
        } else {
            self.denied.fetch_add(1, Ordering::Relaxed);
        }
        taken
    }

    /// The backoff before retry number `attempt` (1 = first retry):
    /// a uniform draw from `[base, min(cap, base·3^attempt)]` — bounded
    /// exponential growth with decorrelating jitter.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self.config.backoff_base.max(Duration::from_nanos(1));
        let ceiling = base
            .saturating_mul(3u32.saturating_pow(attempt.min(12)))
            .min(self.config.backoff_cap)
            .max(base);
        let lo = base.as_nanos() as u64;
        let hi = ceiling.as_nanos() as u64;
        let nanos = if hi > lo {
            self.rng.lock().expect("rng lock").gen_range(lo..=hi)
        } else {
            lo
        };
        Duration::from_nanos(nanos)
    }

    /// Remaining tokens in the pool.
    pub fn tokens_remaining(&self) -> u64 {
        self.tokens.load(Ordering::SeqCst).max(0) as u64
    }

    /// Retries performed so far.
    pub fn retries_performed(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Retry denials (dry pool) so far.
    pub fn denials(&self) -> u64 {
        self.denied.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_drains_and_credits_up_to_cap() {
        let policy = RetryPolicy::new(
            RetryConfig {
                initial_tokens: 2,
                tokens_per_query: 3,
                max_tokens: 4,
                ..RetryConfig::default()
            },
            1,
        );
        assert!(policy.try_consume());
        assert!(policy.try_consume());
        assert!(!policy.try_consume(), "pool must run dry");
        assert_eq!(policy.denials(), 1);
        policy.credit_query();
        assert_eq!(policy.tokens_remaining(), 3);
        policy.credit_query();
        assert_eq!(policy.tokens_remaining(), 4, "credit clamps at the cap");
        assert_eq!(policy.retries_performed(), 2);
        policy.credit_query();
        assert_eq!(policy.tokens_remaining(), 4, "a full pool stays full");
        assert!(policy.try_consume());
        policy.credit_query();
        assert_eq!(policy.tokens_remaining(), 4, "one below the cap refills");
    }

    #[test]
    fn backoff_is_jittered_within_growing_bounds() {
        let policy = RetryPolicy::new(
            RetryConfig {
                backoff_base: Duration::from_micros(100),
                backoff_cap: Duration::from_millis(2),
                ..RetryConfig::default()
            },
            7,
        );
        for attempt in 1..8 {
            for _ in 0..16 {
                let sleep = policy.backoff(attempt);
                assert!(sleep >= Duration::from_micros(100));
                assert!(sleep <= Duration::from_millis(2));
            }
        }
        // Same seed, same draws: deterministic.
        let again = RetryPolicy::new(policy.config().clone(), 7);
        let a: Vec<Duration> = (1..6).map(|n| policy.backoff(n)).collect();
        let b: Vec<Duration> = (1..6).map(|n| again.backoff(n)).collect();
        assert_ne!(a, b, "policy already consumed draws, streams diverge");
        let c = RetryPolicy::new(policy.config().clone(), 7);
        let d: Vec<Duration> = (1..6).map(|n| c.backoff(n)).collect();
        assert_eq!(b, d, "fresh policies with one seed draw identically");
    }
}
