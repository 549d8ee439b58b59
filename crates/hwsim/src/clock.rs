//! A shareable virtual clock for simulated time.

use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

/// Virtual time in nanoseconds since simulation start.
///
/// The clock is advanced explicitly by simulation drivers; components holding
/// a clone observe the same timeline. Cloning is cheap (the state is shared).
///
/// # Example
///
/// ```
/// use hwsim::SimClock;
///
/// let clock = SimClock::new();
/// let view = clock.clone();
/// clock.advance_ns(1_500_000_000);
/// assert_eq!(view.now_ns(), 1_500_000_000);
/// assert!((view.now_secs() - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ns: Arc<Mutex<u64>>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        *self.now_ns.lock()
    }

    /// Current simulated time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }

    /// Advances the clock by `delta` nanoseconds, returning the new time.
    pub fn advance_ns(&self, delta: u64) -> u64 {
        let mut t = self.now_ns.lock();
        *t += delta;
        *t
    }
}

impl fmt::Display for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.now_secs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_time() {
        let c = SimClock::new();
        let v = c.clone();
        c.advance_ns(10);
        assert_eq!(v.now_ns(), 10);
        v.advance_ns(5);
        assert_eq!(c.now_ns(), 15);
    }

    #[test]
    fn clock_is_send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<SimClock>();
    }
}
