//! Regenerates the paper's Fig. 9 (all six sub-figures).
//!
//! Usage: `fig9 [--quick] [--no-cache | --cache-only] [--cache-dir DIR]
//! [--jobs N] [--pcap PATH] [--enqueue QUEUE_DIR]` — `--quick` averages
//! 2 seeds instead of 5; cells are served from / into the persistent
//! sweep cache (default `target/sweep-cache`) unless `--no-cache` is
//! given. `--enqueue` adds uncached cells to a fault-tolerant
//! work-stealing queue (`sweep_worker --queue`); `--cache-only` renders
//! from whatever the cache holds, reporting absent cells per point as
//! `n/a`. See `--help`.

use gtt_bench::{fig9_sweeps, figure_main};

fn main() {
    figure_main("fig9", fig9_sweeps());
}
