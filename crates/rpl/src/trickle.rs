//! The Trickle timer (RFC 6206) pacing DIO transmissions.

use gtt_sim::{Pcg32, SimDuration, SimTime};

/// RFC 6206 Trickle timer.
///
/// Trickle adapts control-message frequency to network consistency: when
/// nothing changes, the interval doubles up to `i_max`; on inconsistency
/// (e.g. a DIO with unexpected Rank) it resets to `i_min`, flooding
/// updates quickly. Transmission within an interval is suppressed when at
/// least `k` consistent messages were already heard.
///
/// # Example
///
/// ```
/// use gtt_rpl::TrickleTimer;
/// use gtt_sim::{Pcg32, SimDuration, SimTime};
///
/// let mut rng = Pcg32::new(1);
/// let mut t = TrickleTimer::new(SimDuration::from_secs(4), 6, 10);
/// t.start(SimTime::ZERO, &mut rng);
/// assert!(t.fire_time().is_some());
/// ```
#[derive(Debug, Clone)]
pub struct TrickleTimer {
    i_min: SimDuration,
    /// Number of doublings allowed above `i_min`.
    doublings: u8,
    /// Redundancy constant k.
    k: u32,
    /// Current interval length I.
    interval: SimDuration,
    /// Start of the current interval.
    interval_start: SimTime,
    /// Randomized fire point t ∈ [I/2, I).
    fire_at: Option<SimTime>,
    /// Consistent messages heard in this interval (c).
    heard: u32,
    running: bool,
}

impl TrickleTimer {
    /// Creates a timer with minimum interval `i_min`, `doublings`
    /// doublings (so `I_max = i_min × 2^doublings`), and redundancy `k`.
    ///
    /// # Panics
    ///
    /// Panics if `i_min` is zero or `k` is zero.
    pub fn new(i_min: SimDuration, doublings: u8, k: u32) -> Self {
        assert!(!i_min.is_zero(), "trickle i_min must be positive");
        assert!(k > 0, "trickle redundancy k must be positive");
        TrickleTimer {
            i_min,
            doublings,
            k,
            interval: i_min,
            interval_start: SimTime::ZERO,
            fire_at: None,
            heard: 0,
            running: false,
        }
    }

    /// True once [`TrickleTimer::start`] has been called.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Current interval length.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// The pending fire time, if transmission is not suppressed.
    pub fn fire_time(&self) -> Option<SimTime> {
        self.fire_at
    }

    /// The earliest instant at which [`TrickleTimer::poll`] would do
    /// anything: the randomized fire point if still pending, else the end
    /// of the current interval (where the interval doubles and the next
    /// fire point is drawn). Strictly before this instant, `poll` is a
    /// no-op — no state change, no RNG draw — which lets a
    /// deadline-driven caller sleep until exactly this time instead of
    /// polling on a period.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if !self.running {
            return None;
        }
        let interval_end = self.interval_start + self.interval;
        Some(match self.fire_at {
            Some(t) => t.min(interval_end),
            None => interval_end,
        })
    }

    /// Starts (or restarts) the timer at `now` from the minimum interval.
    pub fn start(&mut self, now: SimTime, rng: &mut Pcg32) {
        self.running = true;
        self.interval = self.i_min;
        self.begin_interval(now, rng);
    }

    /// Signals an inconsistency (RFC 6206 §4.2 step 6): resets to the
    /// minimum interval if not already there.
    pub fn inconsistency(&mut self, now: SimTime, rng: &mut Pcg32) {
        if !self.running {
            return;
        }
        if self.interval > self.i_min {
            self.interval = self.i_min;
            self.begin_interval(now, rng);
        }
    }

    /// Records hearing a consistent message (increments c).
    pub fn consistent_heard(&mut self) {
        self.heard = self.heard.saturating_add(1);
    }

    /// Polls the timer. Returns `true` exactly when the caller should
    /// transmit now: the randomized fire point passed and fewer than `k`
    /// consistent messages were heard. Expired intervals double and
    /// restart automatically.
    pub fn poll(&mut self, now: SimTime, rng: &mut Pcg32) -> bool {
        if !self.running {
            return false;
        }
        let interval_end = self.interval_start + self.interval;
        let mut should_send = false;
        if let Some(t) = self.fire_at {
            if now >= t {
                should_send = self.heard < self.k;
                self.fire_at = None;
            }
        }
        if now >= interval_end {
            // Double (capped) and begin the next interval.
            let max = self.i_min * (1u64 << self.doublings);
            self.interval = (self.interval * 2).min(max);
            self.begin_interval(interval_end, rng);
        }
        should_send
    }

    fn begin_interval(&mut self, start: SimTime, rng: &mut Pcg32) {
        self.interval_start = start;
        self.heard = 0;
        // t ∈ [I/2, I)
        let half = self.interval.as_micros() / 2;
        let jitter = rng.gen_range_u32(0, half.max(1) as u32) as u64;
        self.fire_at = Some(start + SimDuration::from_micros(half + jitter));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer() -> (TrickleTimer, Pcg32) {
        (
            TrickleTimer::new(SimDuration::from_secs(4), 3, 10),
            Pcg32::new(99),
        )
    }

    /// Advances in 100ms steps until the timer says "send" or the limit.
    fn run_until_fire(
        t: &mut TrickleTimer,
        rng: &mut Pcg32,
        from: SimTime,
        limit_s: u64,
    ) -> Option<SimTime> {
        let step = SimDuration::from_millis(100);
        let mut now = from;
        let end = from + SimDuration::from_secs(limit_s);
        while now < end {
            if t.poll(now, rng) {
                return Some(now);
            }
            now += step;
        }
        None
    }

    #[test]
    fn fires_within_first_interval() {
        let (mut t, mut rng) = timer();
        t.start(SimTime::ZERO, &mut rng);
        let fired = run_until_fire(&mut t, &mut rng, SimTime::ZERO, 5).expect("must fire");
        // t ∈ [2s, 4s) for a 4 s interval.
        assert!(
            fired >= SimTime::from_secs(2)
                && fired < SimTime::from_secs(4) + SimDuration::from_millis(100)
        );
    }

    #[test]
    fn interval_doubles_up_to_cap() {
        let (mut t, mut rng) = timer();
        t.start(SimTime::ZERO, &mut rng);
        let step = SimDuration::from_millis(500);
        let mut now = SimTime::ZERO;
        // Run long enough to reach the cap: 4→8→16→32 (cap at 2^3).
        while now < SimTime::from_secs(200) {
            t.poll(now, &mut rng);
            now += step;
        }
        assert_eq!(t.interval(), SimDuration::from_secs(32));
    }

    #[test]
    fn inconsistency_resets_interval() {
        let (mut t, mut rng) = timer();
        t.start(SimTime::ZERO, &mut rng);
        let mut now = SimTime::ZERO;
        while now < SimTime::from_secs(100) {
            t.poll(now, &mut rng);
            now += SimDuration::from_millis(500);
        }
        assert!(t.interval() > SimDuration::from_secs(4));
        t.inconsistency(now, &mut rng);
        assert_eq!(t.interval(), SimDuration::from_secs(4));
        assert!(t.fire_time().unwrap() > now);
    }

    #[test]
    fn suppression_when_k_heard() {
        let (mut t, mut rng) = timer();
        t.start(SimTime::ZERO, &mut rng);
        for _ in 0..10 {
            t.consistent_heard();
        }
        // Poll through the entire first interval: suppressed.
        let fired = run_until_fire(&mut t, &mut rng, SimTime::ZERO, 4);
        assert_eq!(fired, None, "k consistent messages suppress the DIO");
    }

    #[test]
    fn next_deadline_is_exact_no_op_boundary() {
        let (mut t, mut rng) = timer();
        assert_eq!(t.next_deadline(), None, "not running ⇒ no deadline");
        t.start(SimTime::ZERO, &mut rng);
        // Deadline-driven polling: jumping straight from deadline to
        // deadline must fire exactly like 1 ms exhaustive polling does.
        let mut exhaustive = t.clone();
        let mut rng2 = rng.clone();
        let mut fires = Vec::new();
        let mut now = SimTime::ZERO;
        loop {
            let d = t.next_deadline().expect("running timer has a deadline");
            assert!(d > now, "deadline must be in the future");
            if d >= SimTime::from_secs(40) {
                break; // both legs observe the same [0, 40 s) window
            }
            now = d;
            if t.poll(now, &mut rng) {
                fires.push(now);
            }
        }
        let mut exhaustive_fires = Vec::new();
        let mut en = SimTime::ZERO;
        while en < SimTime::from_secs(40) {
            if exhaustive.poll(en, &mut rng2) {
                exhaustive_fires.push(en);
            }
            en += SimDuration::from_millis(1);
        }
        assert!(!fires.is_empty(), "trickle must fire in 40 s");
        // Same fires, same order; the exhaustive leg observes each fire at
        // the first grid tick at or after the exact deadline.
        assert_eq!(fires.len(), exhaustive_fires.len(), "fire counts match");
        for (f, e) in fires.iter().zip(&exhaustive_fires) {
            assert!(*e >= *f && *e < *f + SimDuration::from_millis(1));
        }
    }

    #[test]
    fn not_running_never_fires() {
        let (mut t, mut rng) = timer();
        assert!(!t.poll(SimTime::from_secs(100), &mut rng));
        assert!(!t.is_running());
        t.inconsistency(SimTime::ZERO, &mut rng); // no-op, no panic
    }

    #[test]
    fn fires_again_in_later_intervals() {
        let (mut t, mut rng) = timer();
        t.start(SimTime::ZERO, &mut rng);
        let first = run_until_fire(&mut t, &mut rng, SimTime::ZERO, 10).unwrap();
        let second = run_until_fire(&mut t, &mut rng, first + SimDuration::from_millis(100), 40)
            .expect("fires in the doubled interval too");
        assert!(second > first);
    }

    #[test]
    #[should_panic(expected = "i_min must be positive")]
    fn zero_imin_rejected() {
        let _ = TrickleTimer::new(SimDuration::ZERO, 1, 1);
    }
}
