//! Ablation: Orchestra's receiver-based vs sender-based unicast cells.
//!
//! The paper evaluates the receiver-based mode (all children share the
//! parent's Rx slot — the §VIII bottleneck). Sender-based cells give
//! every sender its own slot at the cost of the receiver listening in
//! every sender's slot; this ablation quantifies that trade-off on the
//! Fig. 8 network.
//!
//! Takes the figure binaries' flags (`--quick`, `--jobs N`,
//! `--pcap PATH`); see `--help`.

use gtt_bench::{ablation_orchestra_sweeps, figure_main};

fn main() {
    figure_main("ablation_orchestra", ablation_orchestra_sweeps());
}
