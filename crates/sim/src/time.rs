//! Virtual time, and the [`TimeSource`] abstraction that unifies it with
//! wall-clock deadlines.
//!
//! The simulator advances a millisecond-resolution virtual clock; integer
//! ticks keep event ordering exact and runs bit-reproducible. External
//! crowd backends measure the same `VirtualTime` ticks against a real
//! epoch instead ([`WallClock`]), so one scheduler — ordering work by
//! earliest [`crate::CrowdBackend::next_event_time`] and waiting through
//! [`TimeSource::wait_until`] — drives both without knowing which kind of
//! time it is on.

/// A point in virtual time, in milliseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(pub u64);

impl VirtualTime {
    /// Simulation start.
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// The end of virtual time; no event can be scheduled at or past it.
    /// Polling completions until `MAX` drains the whole event queue.
    pub const MAX: VirtualTime = VirtualTime(u64::MAX);

    /// Advances by a duration.
    #[must_use]
    pub fn after(self, d: SimDuration) -> VirtualTime {
        VirtualTime(self.0.saturating_add(d.0))
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    #[must_use]
    pub fn since(self, earlier: VirtualTime) -> SimDuration {
        assert!(earlier <= self, "time went backwards");
        SimDuration(self.0 - earlier.0)
    }

    /// Time in fractional hours (for paper-style reporting).
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }
}

/// A span of virtual time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds from whole seconds.
    #[must_use]
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1000)
    }

    /// Builds from fractional seconds (sub-millisecond truncated; negative
    /// inputs clamp to zero).
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            SimDuration::ZERO
        } else {
            SimDuration((s * 1000.0) as u64)
        }
    }

    /// Duration in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

/// A clock the event loop schedules against: "what time is it" plus "block
/// until this deadline". The two implementations encode the two execution
/// regimes:
///
/// * [`VirtualClock`] — simulated time. The real clocks live *inside* the
///   backends (each simulator platform advances its own `now` as it
///   processes events), so the scheduler never waits: polling the earliest
///   backend is what makes time pass.
/// * [`WallClock`] — physical time, shared by every backend of a run. A
///   deadline in the future is a real [`std::thread::sleep`].
///
/// `wait_until` may wake early (spurious wake-ups are allowed; the event
/// loop re-polls and re-sorts), but must never wake meaningfully late on
/// purpose.
pub trait TimeSource: Send + Sync {
    /// The current time on this clock. Virtual sources return
    /// [`VirtualTime::ZERO`] — their time is per-backend state, not a
    /// global clock.
    fn now(&self) -> VirtualTime;

    /// Blocks the calling scheduler thread until `t`. No-op on virtual
    /// sources and for deadlines already past.
    fn wait_until(&self, t: VirtualTime);
}

/// The [`TimeSource`] of simulated runs: never waits, because polling a
/// simulator backend is what advances its virtual clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct VirtualClock;

impl TimeSource for VirtualClock {
    fn now(&self) -> VirtualTime {
        VirtualTime::ZERO
    }

    fn wait_until(&self, _t: VirtualTime) {}
}

/// Wall-clock time as `VirtualTime` milliseconds since the clock's
/// creation (the job's epoch). Every backend of a run must share one
/// `WallClock` so their timestamps are comparable.
#[derive(Debug)]
pub struct WallClock {
    epoch: std::time::Instant,
}

impl WallClock {
    /// A wall clock whose epoch (time zero) is now.
    #[must_use]
    pub fn new() -> Self {
        Self { epoch: std::time::Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSource for WallClock {
    fn now(&self) -> VirtualTime {
        VirtualTime(u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX))
    }

    fn wait_until(&self, t: VirtualTime) {
        let now = self.now();
        if t > now && t != VirtualTime::MAX {
            std::thread::sleep(std::time::Duration::from_millis(t.0 - now.0));
        }
    }
}

impl std::fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t+{:.2}h", self.as_hours())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = VirtualTime::ZERO.after(SimDuration::from_secs(90));
        assert_eq!(t, VirtualTime(90_000));
        assert_eq!(t.since(VirtualTime::ZERO), SimDuration(90_000));
        assert_eq!(t.after(SimDuration::from_secs(60)), VirtualTime(150_000));
    }

    #[test]
    fn hours_conversion() {
        let t = VirtualTime::ZERO.after(SimDuration::from_secs(90 * 60));
        assert!((t.as_hours() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5), SimDuration(1500));
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn since_rejects_future() {
        let _ = VirtualTime(5).since(VirtualTime(10));
    }

    #[test]
    fn virtual_clock_never_waits() {
        let clock = VirtualClock;
        assert_eq!(clock.now(), VirtualTime::ZERO);
        let start = std::time::Instant::now();
        clock.wait_until(VirtualTime(3_600_000));
        assert!(start.elapsed() < std::time::Duration::from_millis(100), "must not sleep");
    }

    #[test]
    fn wall_clock_advances_and_waits() {
        let clock = WallClock::new();
        let t0 = clock.now();
        clock.wait_until(t0.after(SimDuration(20)));
        let t1 = clock.now();
        assert!(t1 >= t0.after(SimDuration(20)), "waited to the deadline: {t0} → {t1}");
        // Past deadlines and the sentinel never block.
        clock.wait_until(VirtualTime::ZERO);
        clock.wait_until(VirtualTime::MAX);
        assert!(clock.now() >= t1, "monotone");
    }
}
