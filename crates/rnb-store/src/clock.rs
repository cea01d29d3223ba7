//! Injected time source for the store.
//!
//! TTL expiry is observable behaviour (an expired entry answers like a
//! miss), so it must be testable without real waiting and reproducible
//! under the deterministic discipline the simulator (`rnb-sim`) already
//! enforces for randomness. The rule, recorded in INVARIANTS.md: **expiry
//! is a pure function of injected time** — given the same sequence of
//! operations and clock readings, a shard answers identically, with no
//! hidden wall-clock reads.
//!
//! The abstraction is deliberately minimal (two variants, one method):
//!
//! * [`Clock::real`] anchors an [`Instant`] once and reports nanoseconds
//!   elapsed since that anchor — production behaviour, one monotonic
//!   clock read per call, exactly what `Shard` did before injection.
//! * A [`TestClock`] is a shared atomic nanosecond counter that only
//!   moves when a test calls [`TestClock::advance`]; cloning the handle
//!   (or the [`Clock`] wrapping it) shares the timeline, so a test can
//!   hold one handle while the store (and its server threads) read the
//!   other.
//!
//! This module is the **one sanctioned wall-clock read** in `rnb-store`:
//! xtask lint rule R2 allowlists `clock.rs` alone, so any
//! `Instant::now()` reintroduced in `shard.rs` (or anywhere else on the
//! serving path) fails the lint.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A point on a [`Clock`]'s timeline: nanoseconds since the clock's
/// epoch (construction for a real clock, zero for a test clock).
///
/// Ticks are plain integers so expiry deadlines can be stored, compared
/// and replayed without any hidden clock access.
pub type Tick = u64;

/// One transaction's tick, read from its clock the first time it is
/// needed. Only an entry with a deadline needs the time to be judged
/// alive, so a read over TTL-free entries reads no clock at all, and
/// every expiry decision of one transaction sees the same tick.
#[derive(Debug)]
pub(crate) struct LazyTick<'c> {
    /// The clock still to read; `None` once `tick` holds the reading.
    clock: Option<&'c Clock>,
    tick: Tick,
}

impl<'c> LazyTick<'c> {
    /// A tick `clock` will supply when first asked.
    pub(crate) fn new(clock: &'c Clock) -> Self {
        LazyTick {
            clock: Some(clock),
            tick: 0,
        }
    }

    /// A tick already read.
    pub(crate) fn at(tick: Tick) -> Self {
        LazyTick { clock: None, tick }
    }

    /// The transaction's tick, reading the clock on the first call.
    pub(crate) fn get(&mut self) -> Tick {
        if let Some(clock) = self.clock.take() {
            self.tick = clock.now();
        }
        self.tick
    }
}

/// `Duration` → ticks, saturating at the end of the timeline (a `u64` of
/// nanoseconds spans ~584 years, far past any real deadline).
pub fn duration_to_ticks(d: Duration) -> Tick {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The store's time source. Cloning shares the underlying timeline.
#[derive(Debug, Clone)]
pub enum Clock {
    /// Monotonic wall-clock time (production).
    Real(RealClock),
    /// Manually advanced virtual time (deterministic tests).
    Test(TestClock),
}

impl Clock {
    /// A wall-clock-backed clock anchored at the moment of the call.
    pub fn real() -> Self {
        Clock::Real(RealClock::new())
    }

    /// The current tick on this clock's timeline.
    pub fn now(&self) -> Tick {
        match self {
            Clock::Real(c) => c.now(),
            Clock::Test(c) => c.now(),
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::real()
    }
}

impl From<TestClock> for Clock {
    fn from(test: TestClock) -> Self {
        Clock::Test(test)
    }
}

/// Monotonic wall-clock time, reported as nanoseconds since the anchor
/// captured at construction.
#[derive(Debug, Clone, Copy)]
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// Anchor a new timeline at the present instant.
    pub fn new() -> Self {
        RealClock {
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since construction.
    pub fn now(&self) -> Tick {
        duration_to_ticks(self.epoch.elapsed())
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

/// Virtual time under manual control: starts at tick 0 and moves only
/// when [`advance`](TestClock::advance) is called. Clones share the
/// timeline (it is an `Arc` around one atomic counter), so the handle a
/// test keeps advances the clock inside a `Store` on other threads.
#[derive(Debug, Clone, Default)]
pub struct TestClock {
    nanos: Arc<AtomicU64>,
}

impl TestClock {
    /// A fresh timeline at tick 0.
    pub fn new() -> Self {
        TestClock::default()
    }

    /// The current virtual tick.
    pub fn now(&self) -> Tick {
        self.nanos.load(Ordering::SeqCst)
    }

    /// Move virtual time forward by `d`. Saturates at the end of the
    /// timeline rather than wrapping back past live deadlines.
    pub fn advance(&self, d: Duration) {
        let step = duration_to_ticks(d);
        let mut current = self.nanos.load(Ordering::SeqCst);
        loop {
            let next = current.saturating_add(step);
            match self.nanos.compare_exchange_weak(
                current,
                next,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_starts_at_zero_and_advances_exactly() {
        let clock = TestClock::new();
        assert_eq!(clock.now(), 0);
        clock.advance(Duration::from_millis(5));
        assert_eq!(clock.now(), 5_000_000);
        clock.advance(Duration::from_nanos(1));
        assert_eq!(clock.now(), 5_000_001);
    }

    #[test]
    fn test_clock_clones_share_the_timeline() {
        let a = TestClock::new();
        let b = a.clone();
        let wrapped = Clock::from(a.clone());
        b.advance(Duration::from_secs(1));
        assert_eq!(a.now(), 1_000_000_000);
        assert_eq!(wrapped.now(), 1_000_000_000);
    }

    #[test]
    fn test_clock_advance_saturates() {
        let clock = TestClock::new();
        clock.advance(Duration::from_nanos(u64::MAX));
        clock.advance(Duration::from_secs(1));
        assert_eq!(clock.now(), u64::MAX, "must saturate, not wrap");
    }

    #[test]
    fn real_clock_is_monotonic_and_is_the_default() {
        let clock = Clock::default();
        assert!(matches!(clock, Clock::Real(_)));
        let t1 = clock.now();
        let t2 = clock.now();
        assert!(t2 >= t1);
    }

    #[test]
    fn lazy_tick_reads_its_clock_once_and_only_when_asked() {
        let clock = TestClock::new();
        let wrapped = Clock::from(clock.clone());
        let mut tick = LazyTick::new(&wrapped);
        clock.advance(Duration::from_nanos(5));
        assert_eq!(tick.get(), 5, "read on first use, not on creation");
        clock.advance(Duration::from_nanos(5));
        assert_eq!(tick.get(), 5, "one reading per transaction");
        assert_eq!(LazyTick::at(7).get(), 7);
    }

    #[test]
    fn duration_conversion_saturates() {
        assert_eq!(duration_to_ticks(Duration::from_secs(1)), 1_000_000_000);
        assert_eq!(duration_to_ticks(Duration::MAX), u64::MAX);
    }
}
