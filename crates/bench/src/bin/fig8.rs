//! Regenerates the paper's Fig. 8 (all six sub-figures).
//!
//! Usage: `fig8 [--quick] [--jobs N] [--pcap PATH]` — `--quick` averages
//! 2 seeds instead of 5, `--jobs N` sets the worker threads, `--pcap`
//! also traces the figure's first cell. Every cell is simulated. See
//! `--help`.

use gtt_bench::{fig8_sweeps, figure_main};

fn main() {
    figure_main("fig8", fig8_sweeps());
}
