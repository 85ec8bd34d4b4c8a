//! Ablation of Algorithm 1's channel allocation vs. hash-based channels
//! (paper §III strategies).
//!
//! Takes the figure binaries' flags (`--quick`, `--jobs N`,
//! `--pcap PATH`); see `--help`.

use gtt_bench::{ablation_channel_sweeps, figure_main};

fn main() {
    figure_main("ablation_channel", ablation_channel_sweeps());
}
