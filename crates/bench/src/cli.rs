//! Shared command-line front end of the figure binaries.
//!
//! Every figure binary (`fig8`, `fig9`, `fig10`, `fig_noise`) and every
//! ablation binary is a thin wrapper over [`figure_main`]: it contributes
//! its [`FigureSweep`]s (table name, x axis, declarative cell list) and
//! this module supplies one strict, uniform flag surface:
//!
//! ```text
//! fig8 [--quick] [--jobs N] [--pcap PATH] [--help]
//! ```
//!
//! Unknown flags and missing values print the usage to stderr and exit
//! with status 2 — never a panic, and never a flag value silently
//! eaten by the next flag.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::exit;

use crate::sweep::{run_sweep, SweepConfig, SweepPoint};
use crate::table::render_figure_tables;

/// One sub-figure sweep a binary renders: its table label, x-axis name
/// and declarative cell list.
#[derive(Debug, Clone)]
pub struct FigureSweep {
    /// Table label (`"8"`, `"noise-depth"`, …) for
    /// [`render_figure_tables`].
    pub table: &'static str,
    /// Human-readable x-axis name passed to [`run_sweep`].
    pub x_axis: &'static str,
    /// The sweep's points.
    pub points: Vec<SweepPoint>,
}

/// Parsed figure command line.
struct FigureArgs {
    config: SweepConfig,
    /// `--pcap PATH`: after the tables, re-run the figure's first cell
    /// (first sweep, first point, first configured seed) with a frame
    /// tap and write the capture to this file, created while parsing so
    /// an unwritable path fails before anything is simulated.
    pcap: Option<(PathBuf, File)>,
}

fn usage(bin: &str) -> String {
    format!("usage: {bin} [--quick] [--jobs N] [--pcap PATH] [--help]")
}

fn help(bin: &str) -> String {
    format!(
        "{}\n\n\
         Simulates every cell of the figure and renders its six series\n\
         tables, averaged over seeds.\n\n\
         Options:\n  \
         --quick      average 2 seeds instead of 5\n  \
         --jobs N     worker threads (default: one per core)\n  \
         --pcap PATH  also write an IEEE 802.15.4 pcap trace of the\n               \
         figure's first cell (first point, first seed) to PATH;\n               \
         deterministic — same binary and flags, same bytes\n  \
         --help       this text\n",
        usage(bin)
    )
}

/// Prints `message` + usage to stderr and exits with status 2.
fn bad_usage(bin: &str, message: &str) -> ! {
    eprintln!("error: {message}\n{}", usage(bin));
    exit(2);
}

/// Reports an unwritable `--pcap` file and exits with status 2.
fn cannot_write_trace(path: &Path, e: &std::io::Error) -> ! {
    eprintln!("error: cannot write trace to {}: {e}", path.display());
    exit(2);
}

/// Strictly parses a figure binary's argv (no positionals allowed).
fn parse_figure_args(bin: &str) -> FigureArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut jobs = 0usize;
    let mut pcap: Option<PathBuf> = None;

    let mut i = 0;
    while i < args.len() {
        // A flag value may not itself look like a flag: `--pcap
        // --quick` is a forgotten value, not a file named --quick.
        let value_of = |i: &mut usize, flag: &str| -> String {
            *i += 1;
            match args.get(*i) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => bad_usage(bin, &format!("{flag} needs a value")),
            }
        };
        match args[i].as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                print!("{}", help(bin));
                exit(0);
            }
            "--pcap" => pcap = Some(PathBuf::from(value_of(&mut i, "--pcap"))),
            "--jobs" => match value_of(&mut i, "--jobs").parse::<usize>() {
                Ok(n) if n > 0 => jobs = n,
                _ => bad_usage(bin, "--jobs needs a positive integer"),
            },
            flag if flag.starts_with("--") => bad_usage(bin, &format!("unknown flag {flag}")),
            positional => bad_usage(bin, &format!("unexpected argument {positional}")),
        }
        i += 1;
    }

    let pcap = pcap.map(|path| match File::create(&path) {
        Ok(file) => (path, file),
        Err(e) => cannot_write_trace(&path, &e),
    });
    let mut config = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::default()
    };
    config.threads = jobs;
    FigureArgs { config, pcap }
}

/// The whole `main` of a figure binary: parses the uniform flag set,
/// then runs and renders the given sweeps. The tables go to stdout,
/// progress to stderr.
pub fn figure_main(bin: &str, sweeps: Vec<FigureSweep>) {
    let FigureArgs { config, pcap } = parse_figure_args(bin);

    // `--pcap` traces the figure's first cell: first sweep, first
    // point, first configured seed. Captured up front because the
    // sweeps are consumed below.
    let trace_cell = pcap.map(|(path, file)| {
        let point = sweeps
            .first()
            .and_then(|s| s.points.first())
            .unwrap_or_else(|| bad_usage(bin, "--pcap needs a figure with at least one cell"));
        let seed = *config.seeds.first().expect("sweep config has seeds");
        (point.experiment.with_seed(seed), path, file)
    });

    let seeds = config.seeds.len();
    for sweep in sweeps {
        eprintln!("running {bin} sweep {} ({seeds} seeds/point)…", sweep.table);
        let results = run_sweep(sweep.x_axis, sweep.points, &config);
        print!("{}", render_figure_tables(sweep.table, &results));
    }
    if let Some((experiment, path, mut file)) = trace_cell {
        // A dedicated traced re-run of the first cell: its bytes are a
        // pure function of the experiment, and reports are
        // byte-identical with the tap on.
        eprintln!("{bin}: tracing first cell to {}…", path.display());
        let (_report, pcap) = experiment.run_traced();
        if let Err(e) = file.write_all(&pcap) {
            cannot_write_trace(&path, &e);
        }
        eprintln!("{bin}: wrote {} bytes of pcap", pcap.len());
    }
}
