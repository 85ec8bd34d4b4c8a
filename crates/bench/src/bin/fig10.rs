//! Regenerates the paper's Fig. 10 (all six sub-figures).
//!
//! Usage: `fig10 [--quick] [--jobs N] [--pcap PATH]` — `--quick` averages
//! 2 seeds instead of 5, `--jobs N` sets the worker threads, `--pcap`
//! also traces the figure's first cell. Every cell is simulated. See
//! `--help`.

use gtt_bench::{fig10_sweeps, figure_main};

fn main() {
    figure_main("fig10", fig10_sweeps());
}
