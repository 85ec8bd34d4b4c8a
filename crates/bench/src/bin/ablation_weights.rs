//! Ablation of the payoff weights α/β/γ (paper §VII-D) at 120 ppm.
//!
//! Takes the figure binaries' flags (`--quick`, `--jobs N`,
//! `--pcap PATH`); see `--help`.

use gtt_bench::{ablation_weights_sweeps, figure_main};

fn main() {
    figure_main("ablation_weights", ablation_weights_sweeps());
}
