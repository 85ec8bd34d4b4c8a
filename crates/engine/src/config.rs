//! Engine configuration.

use gtt_sim::SimDuration;

/// Configuration for a [`Network`](crate::Network) run: the two cadences
/// runs vary and the seed.
///
/// Everything else the paper's Table II fixes — 15 ms slots, the 8-channel
/// hopping sequence, 4 retransmissions, MRHOF — is a constant of the crate
/// that owns it (`gtt-mac`, `gtt-rpl`, `gtt-sixtop`). The default keeps
/// Table II's 2 s EB period.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// EB broadcast period (Table II: 2 s).
    pub eb_period: SimDuration,
    /// Cadence of the scheduling function's `periodic` hook (GT-TSCH's
    /// load-balancing / slotframe-update timer, §VI).
    pub sf_period: SimDuration,
    /// Root experiment seed; every node and the medium derive their own
    /// streams from it.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            eb_period: SimDuration::from_secs(2),
            sf_period: SimDuration::from_secs(2),
            seed: 1,
        }
    }
}

impl EngineConfig {
    /// Steady-state low-power cadences: the paper's Table II runs EBs
    /// every 2 s to converge experiments quickly, but a deployed TSCH
    /// network advertises far less often — Contiki-NG's default
    /// `TSCH_EB_PERIOD` is 16 s — and re-balances its schedule on the
    /// scale of many slotframes. This preset models that regime (the
    /// benches' "sparse traffic" scenarios): EB 16 s and a
    /// scheduling-function period of 8 s. There is no RPL cadence to
    /// stretch any more: since the control plane went deadline-driven,
    /// RPL work (neighbor aging against a 600 s timeout, Trickle
    /// intervals of minutes, 60 s DAO refreshes, ETX-driven rank updates)
    /// fires at each layer's own exact deadline in *every* preset, which
    /// is precisely the deployed-stack behavior this preset used to
    /// approximate with a coarse 10 s poll.
    pub fn low_power() -> Self {
        EngineConfig {
            eb_period: SimDuration::from_secs(16),
            sf_period: SimDuration::from_secs(8),
            ..EngineConfig::default()
        }
    }

    /// Validates the cadences.
    ///
    /// # Panics
    ///
    /// Panics on a zero period.
    pub fn validate(&self) {
        assert!(!self.eb_period.is_zero(), "EB period must be positive");
        assert!(!self.sf_period.is_zero(), "SF period must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtt_mac::{HOPPING_SEQUENCE, SLOT_DURATION};

    #[test]
    fn default_is_valid_and_paper_shaped() {
        let cfg = EngineConfig::default();
        cfg.validate();
        assert_eq!(SLOT_DURATION.as_millis(), 15);
        assert_eq!(cfg.eb_period.as_millis(), 2_000);
        assert_eq!(HOPPING_SEQUENCE.len(), 8);
    }

    #[test]
    fn low_power_is_valid_and_coarser() {
        let cfg = EngineConfig::low_power();
        cfg.validate();
        assert!(cfg.eb_period > EngineConfig::default().eb_period);
        assert!(cfg.sf_period > EngineConfig::default().sf_period);
    }

    #[test]
    #[should_panic(expected = "EB period")]
    fn zero_eb_period_rejected() {
        let cfg = EngineConfig {
            eb_period: SimDuration::ZERO,
            ..EngineConfig::default()
        };
        cfg.validate();
    }
}
