//! One-shot and periodic timers.
//!
//! TSCH simulations are slot-synchronous: the engine advances one timeslot
//! at a time and, at each boundary, asks which timers fired. [`Timer`] is
//! the single-timer primitive; each node holds one for its Enhanced
//! Beacons and one for its scheduling function's period.

use crate::time::{SimDuration, SimTime};

/// A timer that can be one-shot or periodic.
///
/// # Example
///
/// ```
/// use gtt_sim::{Timer, SimTime, SimDuration};
///
/// let mut eb = Timer::periodic(SimTime::ZERO, SimDuration::from_secs(2));
/// assert!(!eb.fire_due(SimTime::from_secs(1)));
/// assert!(eb.fire_due(SimTime::from_secs(2)));
/// // After firing, it re-arms one period later.
/// assert!(!eb.fire_due(SimTime::from_secs(3)));
/// assert!(eb.fire_due(SimTime::from_secs(4)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timer {
    deadline: SimTime,
    period: Option<SimDuration>,
    armed: bool,
}

impl Timer {
    /// Creates a one-shot timer firing at `deadline`.
    pub fn one_shot(deadline: SimTime) -> Self {
        Timer {
            deadline,
            period: None,
            armed: true,
        }
    }

    /// Creates a periodic timer whose first deadline is `start + period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn periodic(start: SimTime, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "periodic timer needs a non-zero period");
        Timer {
            deadline: start + period,
            period: Some(period),
            armed: true,
        }
    }

    /// Creates a disarmed timer; arm it later with [`Timer::arm`].
    pub fn disarmed() -> Self {
        Timer {
            deadline: SimTime::MAX,
            period: None,
            armed: false,
        }
    }

    /// True if the timer is armed.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// The next deadline, or `None` if disarmed.
    pub fn deadline(&self) -> Option<SimTime> {
        self.armed.then_some(self.deadline)
    }

    /// (Re-)arms the timer as a one-shot at `deadline`, clearing any period.
    pub fn arm(&mut self, deadline: SimTime) {
        self.deadline = deadline;
        self.period = None;
        self.armed = true;
    }

    /// (Re-)arms the timer to fire every `period` starting from `now`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn arm_periodic(&mut self, now: SimTime, period: SimDuration) {
        assert!(!period.is_zero(), "periodic timer needs a non-zero period");
        self.deadline = now + period;
        self.period = Some(period);
        self.armed = true;
    }

    /// Disarms the timer.
    pub fn cancel(&mut self) {
        self.armed = false;
        self.deadline = SimTime::MAX;
    }

    /// Checks the timer against `now`. Returns `true` if it fired.
    ///
    /// A periodic timer re-arms itself one period after its *deadline* (not
    /// after `now`), so firing cadence does not drift even when the caller
    /// polls coarsely. If several whole periods were skipped, it fires once
    /// and re-arms past `now` (coalescing), which matches how Contiki
    /// etimers behave when the CPU was busy.
    pub fn fire_due(&mut self, now: SimTime) -> bool {
        if !self.armed || now < self.deadline {
            return false;
        }
        match self.period {
            Some(p) => {
                let mut next = self.deadline + p;
                while next <= now {
                    next += p;
                }
                self.deadline = next;
            }
            None => self.cancel(),
        }
        true
    }
}

impl Default for Timer {
    fn default() -> Self {
        Timer::disarmed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_fires_once() {
        let mut t = Timer::one_shot(SimTime::from_millis(10));
        assert!(!t.fire_due(SimTime::from_millis(9)));
        assert!(t.fire_due(SimTime::from_millis(10)));
        assert!(!t.fire_due(SimTime::from_millis(11)));
        assert!(!t.is_armed());
    }

    #[test]
    fn periodic_does_not_drift() {
        let p = SimDuration::from_millis(100);
        let mut t = Timer::periodic(SimTime::ZERO, p);
        // Poll late by 30ms each time; deadlines stay on the 100ms grid.
        assert!(t.fire_due(SimTime::from_millis(130)));
        assert_eq!(t.deadline(), Some(SimTime::from_millis(200)));
        assert!(t.fire_due(SimTime::from_millis(230)));
        assert_eq!(t.deadline(), Some(SimTime::from_millis(300)));
    }

    #[test]
    fn periodic_coalesces_missed_periods() {
        let p = SimDuration::from_millis(10);
        let mut t = Timer::periodic(SimTime::ZERO, p);
        // Jump far ahead: fires once, re-arms past `now`.
        assert!(t.fire_due(SimTime::from_millis(95)));
        assert_eq!(t.deadline(), Some(SimTime::from_millis(100)));
    }

    #[test]
    fn cancel_disarms() {
        let mut t = Timer::periodic(SimTime::ZERO, SimDuration::from_millis(5));
        t.cancel();
        assert!(!t.fire_due(SimTime::from_secs(100)));
        assert_eq!(t.deadline(), None);
    }

    #[test]
    #[should_panic(expected = "non-zero period")]
    fn zero_period_panics() {
        let _ = Timer::periodic(SimTime::ZERO, SimDuration::ZERO);
    }
}
