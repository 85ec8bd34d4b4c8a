//! GT-TSCH configuration: the settings an experiment varies, and the
//! paper's fixed values as constants.

use gtt_mac::HOPPING_SEQUENCE;

use crate::game::GameWeights;
use crate::layout;

/// Number of shared timeslots (§IV rule 4): half the maximum number of
/// children, each slot shared by two children. A parent keeps one
/// channel for broadcast and two for its own links (§III), so with the
/// 8-channel hopping sequence it serves `8 − 3 = 5` children over
/// ⌈5/2⌉ = 3 shared slots.
pub const SHARED_SLOTS: u16 = (HOPPING_SEQUENCE.len() as u16 - 3).div_ceil(2);

/// Queue-metric smoothing factor ζ (eq. 6).
pub const ZETA: f64 = 0.3;

/// The broadcast channel offset `f_bcast`.
pub const FBCAST: u8 = 0;

/// Cap on the Rx capacity a node advertises in its DIO `l_rx` option;
/// bounds the per-transaction grant so one greedy child cannot claim the
/// parent's whole slotframe in one round.
pub const RX_ADVERTISE_CAP: u16 = 8;

/// Tx cells beyond demand tolerated before a DELETE is issued (§IV rule
/// 3: release cells under light load).
pub const DELETE_SLACK: u16 = 1;

/// The settings of the GT-TSCH scheduling function that experiments
/// vary; everything else is a crate constant.
#[derive(Debug, Clone, PartialEq)]
pub struct GtTschConfig {
    /// Slotframe size `m` (§IV rule 1; Table II: 32). GT-TSCH uses a
    /// single slotframe for all traffic planes.
    pub slotframe_len: u16,
    /// Game weights α, β, γ (eq. 8).
    pub weights: GameWeights,
    /// **Ablation switch**: replace Algorithm 1 with hash-based channel
    /// selection (`hash(node) mod |F|`), the strawman the paper's §III
    /// analyses. Disables `ASK-CHANNEL`; used by the `ablation_channel`
    /// experiment to quantify what the channel-allocation strategies buy.
    pub hash_channels: bool,
}

impl GtTschConfig {
    /// The configuration used in the paper's evaluation (slotframe 32).
    pub fn paper_default() -> Self {
        GtTschConfig::with_slotframe_len(32)
    }

    /// The paper's configuration with a different slotframe length —
    /// used by the Fig. 10 sweep where GT-TSCH runs at 4× Orchestra's
    /// unicast slotframe.
    ///
    /// # Panics
    ///
    /// Panics unless [`GtTschConfig::is_valid`] accepts the result.
    pub fn with_slotframe_len(m: u16) -> Self {
        let cfg = GtTschConfig {
            slotframe_len: m,
            weights: GameWeights::default(),
            hash_channels: false,
        };
        cfg.validate();
        cfg
    }

    /// Number of broadcast timeslots `k`, uniformly spread (§IV rule 1):
    /// one per 8 slots, and at least 2.
    pub fn broadcast_slots(&self) -> u16 {
        (self.slotframe_len / 8).max(2)
    }

    /// True if GT-TSCH can run with this configuration: the weights pass
    /// [`GameWeights::validate`], and the slotframe has at least 8 slots
    /// and a broadcast slot ahead of each of the [`SHARED_SLOTS`] shared
    /// slots (§IV rule 4 places each right after one). Even lengths
    /// below 24 fail that rule: their 2 broadcast slots are half a
    /// slotframe apart.
    pub fn is_valid(&self) -> bool {
        let m = self.slotframe_len;
        m >= 8
            && layout::broadcast_offsets(m, self.broadcast_slots()).len() >= SHARED_SLOTS.into()
            && self.weights.is_valid()
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics unless [`GtTschConfig::is_valid`] accepts the
    /// configuration.
    pub fn validate(&self) {
        assert!(
            self.is_valid(),
            "GT-TSCH cannot run {self:?}: it needs at least 8 slots, a broadcast slot ahead of \
             each of its {SHARED_SLOTS} shared slots, and valid game weights"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let cfg = GtTschConfig::paper_default();
        cfg.validate();
        assert_eq!((cfg.slotframe_len, cfg.broadcast_slots()), (32, 4));
        assert_eq!(SHARED_SLOTS, 3, "⌈(8 − 3)/2⌉");
    }

    #[test]
    fn scaled_slotframes_are_valid() {
        for m in [32, 48, 64, 80] {
            let cfg = GtTschConfig::with_slotframe_len(m);
            cfg.validate();
            assert_eq!(cfg.slotframe_len, m);
            assert!(cfg.broadcast_slots() >= 2);
        }
    }

    #[test]
    #[should_panic(expected = "at least 8 slots")]
    fn tiny_slotframe_rejected() {
        let _ = GtTschConfig::with_slotframe_len(4);
    }
}
