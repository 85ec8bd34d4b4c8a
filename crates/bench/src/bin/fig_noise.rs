//! The interference-robustness figure: GT-TSCH vs Orchestra under
//! periodic wideband noise bursts, sweeping burst depth and period.
//!
//! Usage: `fig_noise [--quick] [--jobs N] [--pcap PATH]` — `--quick`
//! averages 2 seeds instead of 5, `--jobs N` sets the worker threads,
//! `--pcap` also traces the first cell of the depth sweep. Every cell
//! of both sweeps is simulated. See `--help`.

use gtt_bench::{fig_noise_sweeps, figure_main};

fn main() {
    figure_main("fig_noise", fig_noise_sweeps());
}
