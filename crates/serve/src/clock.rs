//! Time as a capability: the serving layer never calls `Instant::now()` or
//! `thread::sleep` directly — it asks a [`Clock`]. Production servers use
//! the monotonic [`SystemClock`]; the deterministic tests use a
//! [`VirtualClock`] that only moves when something sleeps against it (or
//! when injected storage latency is routed into it through
//! [`VirtualClock::delay_hook`]), so deadline and breaker-cooldown behavior
//! is pinned by exact arithmetic instead of real-time sleeps.

use rsse_sse::DelayHook;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A monotonic time source plus a sleep primitive.
///
/// `now()` is an opaque monotonic reading (duration since an arbitrary
/// per-clock origin) — only differences between readings are meaningful.
pub trait Clock: Send + Sync {
    /// Monotonic reading: time elapsed since this clock's origin.
    fn now(&self) -> Duration;
    /// Blocks (or virtually advances) for `duration`.
    fn sleep(&self, duration: Duration);
}

/// The production clock: monotonic [`Instant`]s and real `thread::sleep`.
#[derive(Debug)]
pub struct SystemClock {
    origin: Instant,
}

impl SystemClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }
}

/// A manually advanced clock for deterministic tests: `sleep` advances the
/// reading instead of blocking, and injected storage latency can be routed
/// into it through [`delay_hook`](Self::delay_hook) — a test asserting
/// "a 1 ms/probe disk blows a 4.5 ms deadline after exactly 5 probes" runs
/// in microseconds of wall time.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: Mutex<Duration>,
}

impl VirtualClock {
    /// A virtual clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `duration`.
    pub fn advance(&self, duration: Duration) {
        *self.now.lock().expect("clock lock") += duration;
    }

    /// An [`rsse_sse::DelayHook`] that advances this clock — hand it to
    /// `rsse_sse::formats::arm_faults` so injected probe latency consumes
    /// virtual (not wall) time.
    pub fn delay_hook(self: &Arc<Self>) -> DelayHook {
        let clock = Arc::clone(self);
        Arc::new(move |d| clock.advance(d))
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        *self.now.lock().expect("clock lock")
    }

    fn sleep(&self, duration: Duration) {
        self.advance(duration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_advances_only_on_demand() {
        let clock = Arc::new(VirtualClock::new());
        assert_eq!(clock.now(), Duration::ZERO);
        clock.sleep(Duration::from_millis(5));
        clock.advance(Duration::from_millis(3));
        assert_eq!(clock.now(), Duration::from_millis(8));
        let hook = clock.delay_hook();
        hook(Duration::from_millis(2));
        assert_eq!(clock.now(), Duration::from_millis(10));
    }
}
