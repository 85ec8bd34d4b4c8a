//! TSCH shared-cell backoff (IEEE 802.15.4e §6.2.5.3).
//!
//! Dedicated cells never back off — they are contention-free by
//! construction. Shared cells use a slotted CSMA/CA variant: after a
//! failed transmission in a shared cell the node skips a random number of
//! *shared* cells drawn from `[0, 2^BE − 1]`, with the backoff exponent BE
//! doubling per failure between [`MIN_BACKOFF_EXPONENT`] and
//! [`MAX_BACKOFF_EXPONENT`], so a window never exceeds 2^5 − 1 = 31
//! shared cells.

use gtt_sim::Pcg32;

/// Minimum backoff exponent for shared cells.
pub const MIN_BACKOFF_EXPONENT: u8 = 1;

/// Maximum backoff exponent for shared cells.
pub const MAX_BACKOFF_EXPONENT: u8 = 5;

/// Exponential backoff state for shared-cell access.
///
/// # Example
///
/// ```
/// use gtt_mac::SharedCellBackoff;
/// use gtt_sim::Pcg32;
///
/// let mut bo = SharedCellBackoff::default();
/// let mut rng = Pcg32::new(1);
/// assert!(bo.may_transmit()); // fresh: no backoff pending
/// bo.on_failure(&mut rng);    // collision ⇒ draw a window
/// // …the node now skips up to 2^BE−1 shared cells…
/// bo.on_success();            // delivery resets BE
/// assert!(bo.may_transmit());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedCellBackoff {
    be: u8,
    /// Shared cells still to skip before the next attempt.
    window: u32,
}

impl Default for SharedCellBackoff {
    /// A fresh backoff: BE at [`MIN_BACKOFF_EXPONENT`], no window pending.
    fn default() -> Self {
        SharedCellBackoff {
            be: MIN_BACKOFF_EXPONENT,
            window: 0,
        }
    }
}

impl SharedCellBackoff {
    /// Current backoff exponent.
    pub fn exponent(&self) -> u8 {
        self.be
    }

    /// Shared cells remaining to skip.
    pub fn pending(&self) -> u32 {
        self.window
    }

    /// True if the node may transmit in the next shared cell.
    pub fn may_transmit(&self) -> bool {
        self.window == 0
    }

    /// Called when a shared cell passes without this node transmitting in
    /// it (the cell "consumed" one unit of the backoff window).
    pub fn on_shared_cell_skipped(&mut self) {
        self.window = self.window.saturating_sub(1);
    }

    /// Bulk form of [`SharedCellBackoff::on_shared_cell_skipped`]: `n`
    /// qualifying shared cells passed while the node provably slept (the
    /// event-driven engine settles skipped ranges in closed form instead
    /// of waking per cell).
    pub fn on_shared_cells_skipped(&mut self, n: u32) {
        self.window = self.window.saturating_sub(n);
    }

    /// Called after a successful (acknowledged) shared-cell transmission:
    /// resets the exponent and clears any pending window.
    pub fn on_success(&mut self) {
        self.be = MIN_BACKOFF_EXPONENT;
        self.window = 0;
    }

    /// Called after a failed shared-cell transmission: doubles the
    /// exponent (capped) and draws a fresh window from `[0, 2^BE − 1]`.
    pub fn on_failure(&mut self, rng: &mut Pcg32) {
        self.be = (self.be + 1).min(MAX_BACKOFF_EXPONENT);
        let span = 1u32 << self.be;
        self.window = rng.gen_range_u32(0, span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_backoff_transmits() {
        let bo = SharedCellBackoff::default();
        assert!(bo.may_transmit());
        assert_eq!(bo.pending(), 0);
        assert_eq!(bo.exponent(), MIN_BACKOFF_EXPONENT);
    }

    #[test]
    fn failures_grow_exponent_to_cap() {
        let mut bo = SharedCellBackoff::default();
        let mut rng = Pcg32::new(5);
        for failures in 1..=10u8 {
            bo.on_failure(&mut rng);
            let expected = (MIN_BACKOFF_EXPONENT + failures).min(MAX_BACKOFF_EXPONENT);
            assert_eq!(bo.exponent(), expected, "after {failures} failures");
        }
    }

    /// A window never exceeds 2^MAX_BACKOFF_EXPONENT − 1 = 31 shared
    /// cells, however many failures precede it: the MAC's release-slot
    /// rule steps through at most that many qualifying slots.
    #[test]
    fn window_is_within_bounds() {
        let mut rng = Pcg32::new(11);
        let mut widest = 0;
        for _ in 0..200 {
            let mut bo = SharedCellBackoff::default();
            for _ in 0..8 {
                bo.on_failure(&mut rng);
                assert!(bo.pending() < 1 << bo.exponent());
                widest = widest.max(bo.pending());
            }
        }
        assert_eq!(widest, 31);
    }

    #[test]
    fn skipping_cells_drains_window() {
        let mut bo = SharedCellBackoff::default();
        let mut rng = Pcg32::new(3);
        // Fail until the window is non-zero (overwhelmingly likely soon).
        while {
            bo.on_failure(&mut rng);
            bo.pending() == 0
        } {}
        let start = bo.pending();
        bo.on_shared_cell_skipped();
        assert_eq!(bo.pending(), start - 1);
        for _ in 0..start {
            bo.on_shared_cell_skipped();
        }
        assert!(bo.may_transmit());
        bo.on_shared_cell_skipped(); // extra skips are harmless
        assert_eq!(bo.pending(), 0);
    }

    #[test]
    fn success_resets() {
        let mut bo = SharedCellBackoff::default();
        let mut rng = Pcg32::new(9);
        bo.on_failure(&mut rng);
        bo.on_failure(&mut rng);
        bo.on_success();
        assert!(bo.may_transmit());
        assert_eq!(bo.exponent(), MIN_BACKOFF_EXPONENT);
    }
}
