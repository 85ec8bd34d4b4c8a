//! One measured point of the paper's six series.

use std::fmt;

/// The six metrics every figure of §VIII reports, measured for one
/// (scheduler, sweep-point, seed) run or averaged across seeds.
///
/// # Example
///
/// ```
/// use gtt_metrics::FigureRow;
///
/// let a = FigureRow {
///     pdr_percent: 99.0,
///     delay_ms: 210.0,
///     loss_per_min: 1.0,
///     duty_cycle_percent: 8.0,
///     queue_loss: 0.0,
///     received_per_min: 420.0,
/// };
/// let b = FigureRow { pdr_percent: 97.0, ..a };
/// let avg = FigureRow::mean([a, b].iter());
/// assert!((avg.pdr_percent - 98.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FigureRow {
    /// Packet delivery ratio, % (Figs. 8a/9a/10a).
    pub pdr_percent: f64,
    /// Mean end-to-end delay per delivered packet, ms (Figs. 8b/9b/10b).
    pub delay_ms: f64,
    /// Lost packets per minute, network-wide (Figs. 8c/9c/10c).
    pub loss_per_min: f64,
    /// Mean radio duty cycle per node, % (Figs. 8d/9d/10d).
    pub duty_cycle_percent: f64,
    /// Mean queue loss per node over the run, packets (Figs. 8e/9e/10e).
    pub queue_loss: f64,
    /// Received packets per minute at the roots (Figs. 8f/9f/10f).
    pub received_per_min: f64,
}

impl FigureRow {
    /// Component-wise mean of several rows (seed averaging).
    ///
    /// # Panics
    ///
    /// Panics when `rows` is empty.
    pub fn mean<'a, I: Iterator<Item = &'a FigureRow>>(rows: I) -> FigureRow {
        let mut acc = FigureRow::default();
        let mut n = 0usize;
        for r in rows {
            acc.pdr_percent += r.pdr_percent;
            acc.delay_ms += r.delay_ms;
            acc.loss_per_min += r.loss_per_min;
            acc.duty_cycle_percent += r.duty_cycle_percent;
            acc.queue_loss += r.queue_loss;
            acc.received_per_min += r.received_per_min;
            n += 1;
        }
        assert!(n > 0, "cannot average zero rows");
        let n = n as f64;
        FigureRow {
            pdr_percent: acc.pdr_percent / n,
            delay_ms: acc.delay_ms / n,
            loss_per_min: acc.loss_per_min / n,
            duty_cycle_percent: acc.duty_cycle_percent / n,
            queue_loss: acc.queue_loss / n,
            received_per_min: acc.received_per_min / n,
        }
    }

    /// Header matching [`FigureRow`]'s `Display` columns.
    pub fn header() -> &'static str {
        "   PDR%   delay_ms  loss/min   duty%  queue_loss   recv/min"
    }
}

impl fmt::Display for FigureRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:7.2} {:10.1} {:9.1} {:7.2} {:11.1} {:10.1}",
            self.pdr_percent,
            self.delay_ms,
            self.loss_per_min,
            self.duty_cycle_percent,
            self.queue_loss,
            self.received_per_min
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_averages_every_field() {
        let a = FigureRow {
            pdr_percent: 100.0,
            delay_ms: 100.0,
            loss_per_min: 0.0,
            duty_cycle_percent: 10.0,
            queue_loss: 0.0,
            received_per_min: 600.0,
        };
        let b = FigureRow {
            pdr_percent: 50.0,
            delay_ms: 300.0,
            loss_per_min: 10.0,
            duty_cycle_percent: 20.0,
            queue_loss: 4.0,
            received_per_min: 200.0,
        };
        let m = FigureRow::mean([a, b].iter());
        assert!((m.pdr_percent - 75.0).abs() < 1e-9);
        assert!((m.delay_ms - 200.0).abs() < 1e-9);
        assert!((m.loss_per_min - 5.0).abs() < 1e-9);
        assert!((m.duty_cycle_percent - 15.0).abs() < 1e-9);
        assert!((m.queue_loss - 2.0).abs() < 1e-9);
        assert!((m.received_per_min - 400.0).abs() < 1e-9);
    }

    #[test]
    fn display_aligns_with_header() {
        let r = FigureRow::default();
        // Column count sanity: same number of whitespace-separated fields.
        let cols = FigureRow::header().split_whitespace().count();
        assert_eq!(r.to_string().split_whitespace().count(), cols);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn empty_mean_panics() {
        let _ = FigureRow::mean([].iter());
    }
}
