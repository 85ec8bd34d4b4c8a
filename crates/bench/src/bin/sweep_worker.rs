//! Multi-process sweep worker: fills the shared sweep cache from shard
//! files — or steals cells from a fault-tolerant on-disk queue.
//!
//! Usage:
//!
//! ```text
//! sweep_worker [--cache-dir DIR] [--jobs N] SHARD_FILE...
//! sweep_worker [--cache-dir DIR] [--jobs N] --queue QUEUE_DIR
//!              [--heartbeat-ms MS] [--lease-timeout-ms MS] [--retries N]
//! ```
//!
//! **Shard mode** (static partitioning, PR 5/6 behavior, byte-for-byte
//! unchanged): a shard file holds one cell per line — blank lines and
//! `#` comments are skipped, and the *last* whitespace-separated token
//! of each line is the hex-armored canonical encoding of one
//! [`Experiment`] (so the `<key> <hit|miss> <hex>` lines of a figure
//! binary's `--list` output are valid shard lines as-is, and so are the
//! `failed/` entries a queue parks). For every cell the worker checks
//! the cache (default `target/sweep-cache`), simulates on a miss, and
//! writes the result back atomically.
//!
//! **Queue mode** (`--queue`): the worker claims cells from a shared
//! queue directory populated by a figure binary's `--enqueue`,
//! heartbeats its leases, steals cells whose owner died (stale
//! heartbeat → requeue with retry budget), and parks cells that keep
//! failing in `failed/`. Any number of workers — processes or hosts
//! sharing the directory — drain the same queue; killing one loses no
//! cells. See `crates/bench/src/queue.rs` and ARCHITECTURE.md ("Sweep
//! fabric") for the lease lifecycle.
//!
//! Sharding a sweep across processes is plain text surgery:
//!
//! ```text
//! fig8 --quick --list > cells.list
//! awk 'NR % 2 == 1' cells.list > shard-a
//! awk 'NR % 2 == 0' cells.list > shard-b
//! sweep_worker shard-a & sweep_worker shard-b & wait
//! fig8 --quick        # 100% cache hits, byte-identical tables
//! ```
//!
//! and the crash-tolerant equivalent needs no splitting at all:
//!
//! ```text
//! fig8 --quick --enqueue Q
//! sweep_worker --queue Q & sweep_worker --queue Q & wait
//! fig8 --quick        # 100% cache hits, byte-identical tables
//! ```
//!
//! Workers never coordinate beyond the queue's atomic renames:
//! overlapping work at worst duplicates a deterministic computation
//! (identical bytes, last atomic rename wins) and never poisons the
//! cache. Exit status: 0 on a clean drain, 1 if any cell ended in
//! `failed/` or leaked, 2 on a command-line error or an unreadable or
//! undecodable shard file.
//!
//! [`Experiment`]: gtt_workload::Experiment

use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use gtt_bench::{ensure_cached, run_queue_worker, QueueWorkerConfig};
use gtt_workload::Experiment;

const USAGE: &str = "usage: sweep_worker [--cache-dir DIR] [--jobs N] SHARD_FILE...\n\
       sweep_worker [--cache-dir DIR] [--jobs N] --queue QUEUE_DIR\n\
                    [--heartbeat-ms MS] [--lease-timeout-ms MS] [--retries N]";

const HELP: &str = "\nFills the shared sweep cache with simulated cells.\n\n\
Options:\n  \
--cache-dir DIR        sweep cache location (default target/sweep-cache)\n  \
--jobs N               worker threads (default: one per core)\n  \
--queue QUEUE_DIR      work-stealing mode: claim cells from this queue\n                         \
directory (see `fig8 --enqueue`) instead of shard files\n  \
--heartbeat-ms MS      queue mode: lease re-stamp interval (default 500)\n  \
--lease-timeout-ms MS  queue mode: how long a frozen heartbeat must be\n                         \
observed before the lease is stolen (default 10000)\n  \
--retries N            queue mode: requeues per cell before it is parked\n                         \
in failed/ (default 3)\n  \
--help                 this text\n";

fn bad_usage(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    exit(2);
}

struct Args {
    cache_dir: PathBuf,
    jobs: usize,
    queue: Option<PathBuf>,
    heartbeat: Duration,
    lease_timeout: Duration,
    retries: u32,
    shard_files: Vec<PathBuf>,
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut parsed = Args {
        cache_dir: PathBuf::from("target/sweep-cache"),
        jobs: 0,
        queue: None,
        heartbeat: Duration::from_millis(500),
        lease_timeout: Duration::from_millis(10_000),
        retries: 3,
        shard_files: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        // A flag value may not itself look like a flag: `--cache-dir
        // --jobs` is a forgotten value, not a directory named --jobs.
        let value_of = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            match args.get(*i) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => bad_usage(&format!("{flag} needs a value")),
            }
        };
        let millis_of = |i: &mut usize, flag: &str| -> Duration {
            match value_of(i, flag).parse::<u64>() {
                Ok(ms) if ms > 0 => Duration::from_millis(ms),
                _ => bad_usage(&format!("{flag} needs a positive millisecond count")),
            }
        };
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}\n{HELP}");
                exit(0);
            }
            "--cache-dir" => parsed.cache_dir = PathBuf::from(value_of(&mut i, "--cache-dir")),
            "--queue" => parsed.queue = Some(PathBuf::from(value_of(&mut i, "--queue"))),
            "--jobs" => match value_of(&mut i, "--jobs").parse::<usize>() {
                Ok(n) if n > 0 => parsed.jobs = n,
                _ => bad_usage("--jobs needs a positive integer"),
            },
            "--heartbeat-ms" => parsed.heartbeat = millis_of(&mut i, "--heartbeat-ms"),
            "--lease-timeout-ms" => parsed.lease_timeout = millis_of(&mut i, "--lease-timeout-ms"),
            "--retries" => match value_of(&mut i, "--retries").parse::<u32>() {
                Ok(n) => parsed.retries = n,
                Err(_) => bad_usage("--retries needs a non-negative integer"),
            },
            flag if flag.starts_with("--") => bad_usage(&format!("unknown flag {flag}")),
            file => parsed.shard_files.push(PathBuf::from(file)),
        }
        i += 1;
    }
    match (&parsed.queue, parsed.shard_files.is_empty()) {
        (Some(_), false) => bad_usage("--queue and shard files are mutually exclusive"),
        (None, true) => bad_usage("need shard files or --queue QUEUE_DIR"),
        _ => parsed,
    }
}

fn main() {
    let args = parse_args();
    if let Some(queue) = &args.queue {
        run_queue_mode(&args, queue.clone());
    } else {
        run_shard_mode(&args);
    }
}

/// Queue mode: drain the work-stealing queue, then report and gate the
/// exit status on the queue-wide failure/leak counts.
fn run_queue_mode(args: &Args, queue: PathBuf) -> ! {
    let mut config = QueueWorkerConfig::new(queue, &args.cache_dir);
    config.jobs = args.jobs;
    config.heartbeat = args.heartbeat;
    config.lease_timeout = args.lease_timeout;
    config.retry_budget = args.retries;
    let worker_id = config.worker_id.clone();
    let stats = run_queue_worker(&config).unwrap_or_else(|e| {
        eprintln!("sweep_worker[{worker_id}]: queue IO error: {e}");
        exit(1);
    });
    println!(
        "sweep_worker[{worker_id}]: {} done ({} computed, {} cache hits), \
         {} requeued, {} failed, {} corrupt, {} lost",
        stats.completed,
        stats.computed,
        stats.cache_hits,
        stats.requeued,
        stats.failed_total,
        stats.corrupt,
        stats.lost
    );
    if stats.store_errors > 0 {
        eprintln!(
            "sweep_worker[{worker_id}]: {} cache store errors (cells were requeued)",
            stats.store_errors
        );
    }
    exit(i32::from(stats.failed_total + stats.lost > 0));
}

/// Shard mode: decode every line up front (a torn line exits 2 with its
/// `file:line` before any simulation time is spent), then drain the
/// cells over threads.
fn run_shard_mode(args: &Args) {
    let mut cells: Vec<Experiment> = Vec::new();
    for file in &args.shard_files {
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
            eprintln!("error: cannot read shard file {}: {e}", file.display());
            exit(2);
        });
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let hex = line.split_whitespace().next_back().expect("non-empty line");
            cells.push(Experiment::decode_hex(hex).unwrap_or_else(|e| {
                eprintln!(
                    "error: {}:{}: bad experiment encoding: {e}",
                    file.display(),
                    lineno + 1
                );
                exit(2);
            }));
        }
    }

    let threads = if args.jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        args.jobs
    }
    .min(cells.len().max(1));

    let next = AtomicUsize::new(0);
    let hits = AtomicUsize::new(0);
    let computed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= cells.len() {
                    break;
                }
                let experiment = &cells[j];
                if ensure_cached(&args.cache_dir, experiment) {
                    hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    computed.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "  computed {} {} seed {}",
                        experiment.scenario.name(),
                        experiment.scheduler.name(),
                        experiment.run.seed
                    );
                }
            });
        }
    });

    let (hits, computed) = (hits.into_inner(), computed.into_inner());
    println!(
        "sweep_worker: {} cells into {} ({} already cached, {} computed)",
        hits + computed,
        args.cache_dir.display(),
        hits,
        computed
    );
}
