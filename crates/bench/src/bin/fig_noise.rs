//! The interference-robustness figure: GT-TSCH vs Orchestra under
//! periodic wideband noise bursts, sweeping burst depth and period.
//!
//! Usage: `fig_noise [--quick] [--no-cache | --cache-only] [--cache-dir
//! DIR] [--jobs N] [--pcap PATH] [--enqueue QUEUE_DIR]` — `--quick`
//! averages 2 seeds instead of 5; cells are served from / into the
//! persistent sweep cache (default `target/sweep-cache`) unless
//! `--no-cache` is given. `--enqueue` adds the uncached cells of *both*
//! sweeps (shared cells once) to a fault-tolerant work-stealing queue
//! (`sweep_worker --queue`); `--cache-only` renders from whatever the
//! cache holds, reporting absent cells per point as `n/a`. See
//! `--help`.

use gtt_bench::{fig_noise_sweeps, figure_main};

fn main() {
    figure_main("fig_noise", fig_noise_sweeps());
}
