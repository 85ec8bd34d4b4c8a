//! # gtt-bench — the experiment harness
//!
//! Regenerates every figure of the GT-TSCH paper's evaluation (§VIII):
//!
//! | Binary | Paper figure | Sweep |
//! |---|---|---|
//! | `fig8`  | Fig. 8a–f  | traffic 30/75/120/165 ppm per node |
//! | `fig9`  | Fig. 9a–f  | DODAG size 6/7/8/9 nodes (× 2 DODAGs) |
//! | `fig10` | Fig. 10a–f | Orchestra unicast slotframe 8/12/16/20, GT-TSCH at 4× |
//! | `fig_noise` | — (robustness) | interference-burst depth and period |
//! | `ablation_weights` | §VII-D discussion | α/β/γ settings of the payoff |
//! | `ablation_channel` | §III strategies | Algorithm 1 vs hash-based channels |
//! | `ablation_orchestra` | §VIII bottleneck | Orchestra receiver- vs sender-based cells |
//! | `diagnose` | — | one verbose run with per-node breakdown |
//! | `pcapcheck` | — | validates the pcap traces `--pcap` writes |
//! | `bench_engine` | — | the perf harness: event core vs oracle, city-10k memory gate |
//!
//! Each figure and ablation binary simulates every cell of its sweep
//! and prints the paper's six series (PDR, end-to-end delay, packet
//! loss, radio duty cycle, queue loss, received packets/minute) as one
//! table per sub-figure, averaged over seeds, ready to paste into
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod sweep;
pub mod table;

pub use cli::{figure_main, FigureSweep};
pub use figures::{
    ablation_channel_points, ablation_channel_sweeps, ablation_orchestra_points,
    ablation_orchestra_sweeps, ablation_weights_points, ablation_weights_sweeps, fig10_points,
    fig10_sweeps, fig8_points, fig8_sweeps, fig9_points, fig9_sweeps, fig_noise_depth_points,
    fig_noise_period_points, fig_noise_sweeps,
};
pub use sweep::{PointResult, SweepConfig, SweepPoint, SweepResults};
pub use table::render_figure_tables;
