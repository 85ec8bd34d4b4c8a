//! The ETX estimator of a directed link.
//!
//! The GT-TSCH game model (paper §VII-B, eq. 4) consumes
//! `ETX_{i,p_i} = 1 / PRR_{i,p_i} ≥ 1`, estimated at the MAC from
//! transmission attempts and acknowledgements. Like Contiki-NG's
//! `link-stats` module we keep an exponentially weighted moving average so
//! the metric tracks link dynamics without jittering on every loss.

/// EWMA weight of a new ETX sample (Contiki uses ~0.1–0.25).
pub const ETX_ALPHA: f64 = 0.15;

/// EWMA estimator of the Expected Transmission Count of a directed link.
///
/// Each *completed transmission episode* contributes one sample: the
/// number of attempts used when the packet was finally acknowledged, or a
/// fixed penalty when it exhausted its retries.
///
/// # Example
///
/// ```
/// use gtt_mac::EtxEstimator;
///
/// let mut etx = EtxEstimator::new();
/// assert_eq!(etx.value(), 1.0); // optimistic prior
/// etx.record_success(3);        // delivered on the 3rd attempt
/// assert!(etx.value() > 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EtxEstimator {
    value: f64,
    samples: u64,
}

impl EtxEstimator {
    /// Penalty sample recorded when a packet exhausts all retries,
    /// matching Contiki-NG's `ETX_NOACK_PENALTY`-style treatment
    /// (configured there as 10-ish transmissions).
    pub const FAILURE_PENALTY: f64 = 10.0;

    /// Creates an estimator at the optimistic prior, smoothing with
    /// [`ETX_ALPHA`].
    pub fn new() -> Self {
        EtxEstimator {
            value: 1.0,
            samples: 0,
        }
    }

    /// Current ETX estimate (always ≥ 1).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Number of completed transmission episodes observed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Records a delivery that took `attempts` transmissions (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `attempts` is zero.
    pub fn record_success(&mut self, attempts: u32) {
        assert!(attempts >= 1, "a delivered packet used at least 1 attempt");
        self.push_sample(attempts as f64);
    }

    /// Records a packet dropped after exhausting its retries.
    pub fn record_failure(&mut self) {
        self.push_sample(Self::FAILURE_PENALTY);
    }

    fn push_sample(&mut self, sample: f64) {
        if self.samples == 0 {
            // First sample replaces the prior outright so a genuinely bad
            // link is not masked by the optimistic initial value.
            self.value = sample;
        } else {
            self.value = (1.0 - ETX_ALPHA) * self.value + ETX_ALPHA * sample;
        }
        self.value = self.value.max(1.0);
        self.samples += 1;
    }
}

impl Default for EtxEstimator {
    fn default() -> Self {
        EtxEstimator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prior_is_one() {
        let etx = EtxEstimator::default();
        assert_eq!(etx.value(), 1.0);
        assert_eq!(etx.samples(), 0);
    }

    #[test]
    fn first_sample_replaces_prior() {
        let mut etx = EtxEstimator::new();
        etx.record_success(4);
        assert_eq!(etx.value(), 4.0);
    }

    #[test]
    fn ewma_converges_towards_samples() {
        let mut etx = EtxEstimator::new();
        for _ in 0..200 {
            etx.record_success(2);
        }
        assert!((etx.value() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn failures_push_towards_penalty() {
        let mut etx = EtxEstimator::new();
        etx.record_success(1);
        let before = etx.value();
        etx.record_failure();
        assert!(etx.value() > before);
        for _ in 0..100 {
            etx.record_failure();
        }
        assert!((etx.value() - EtxEstimator::FAILURE_PENALTY).abs() < 1e-3);
    }

    #[test]
    fn value_never_below_one() {
        let mut etx = EtxEstimator::new();
        etx.record_success(1);
        assert_eq!(etx.value(), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least 1 attempt")]
    fn zero_attempts_rejected() {
        let mut etx = EtxEstimator::default();
        etx.record_success(0);
    }
}
