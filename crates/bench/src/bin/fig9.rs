//! Regenerates the paper's Fig. 9 (all six sub-figures).
//!
//! Usage: `fig9 [--quick] [--jobs N] [--pcap PATH]` — `--quick` averages
//! 2 seeds instead of 5, `--jobs N` sets the worker threads, `--pcap`
//! also traces the figure's first cell. Every cell is simulated. See
//! `--help`.

use gtt_bench::{fig9_sweeps, figure_main};

fn main() {
    figure_main("fig9", fig9_sweeps());
}
