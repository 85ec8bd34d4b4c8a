//! Parallel sweep execution.
//!
//! Every cell of a sweep matrix — one point re-seeded from
//! [`SweepConfig::seeds`] — is a pure function of one [`Experiment`]
//! value (scenario spec, scheduler configuration, run spec incl. seed,
//! overlay timeline). [`run_sweep`] simulates every cell on a pool of
//! scoped threads (`--jobs N` on the figure binaries) and averages per
//! point. Parallelism runs across cells, never inside one, and each
//! point's rows are sorted by seed before averaging, so the results
//! are byte-identical at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use gtt_metrics::FigureRow;
use gtt_workload::Experiment;

/// One (x-value, experiment) point of a sweep. The per-seed cells are
/// the point's experiment re-seeded from [`SweepConfig::seeds`].
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The sweep coordinate ("30", "75", … — the figure's x axis).
    pub x_label: String,
    /// The experiment (its `run.seed` is overwritten per repetition).
    pub experiment: Experiment,
}

/// Sweep-wide settings.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Worker threads (`0` = one per available core, capped at the
    /// number of runs).
    pub threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seeds: vec![1, 2, 3, 4, 5],
            threads: 0,
        }
    }
}

impl SweepConfig {
    /// A fast configuration for smoke tests (2 seeds).
    pub fn quick() -> Self {
        SweepConfig {
            seeds: vec![1, 2],
            ..SweepConfig::default()
        }
    }
}

/// Result of one sweep point, averaged over seeds.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The sweep coordinate.
    pub x_label: String,
    /// Scheduler name.
    pub scheduler: &'static str,
    /// Seed-averaged six-series row.
    pub mean: FigureRow,
    /// Per-seed rows (for dispersion), in seed order.
    pub rows: Vec<FigureRow>,
    /// Mean join ratio across seeds (sanity signal).
    pub join_ratio: f64,
    /// Mean packets generated.
    pub generated: f64,
}

/// All results of a figure sweep.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// Human-readable name of the x axis ("traffic (ppm/node)", …).
    pub x_axis: String,
    /// Results in input order.
    pub points: Vec<PointResult>,
}

impl SweepResults {
    /// The distinct x labels in first-appearance order.
    pub fn x_labels(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for p in &self.points {
            if !seen.contains(&p.x_label) {
                seen.push(p.x_label.clone());
            }
        }
        seen
    }

    /// The distinct scheduler names in first-appearance order.
    pub fn schedulers(&self) -> Vec<&'static str> {
        let mut seen = Vec::new();
        for p in &self.points {
            if !seen.contains(&p.scheduler) {
                seen.push(p.scheduler);
            }
        }
        seen
    }

    /// The point for (scheduler, x), if present.
    pub fn get(&self, scheduler: &str, x: &str) -> Option<&PointResult> {
        self.points
            .iter()
            .find(|p| p.scheduler == scheduler && p.x_label == x)
    }
}

/// What [`PointResult`] needs from one simulated cell.
struct CellResult {
    row: FigureRow,
    join_ratio: f64,
    generated: u64,
}

/// Simulates every `(point, seed)` cell, in parallel, and averages per
/// point.
///
/// # Panics
///
/// Panics if `points` or `config.seeds` is empty, or if a worker thread
/// panics (experiment bugs should abort the harness loudly).
pub fn run_sweep(x_axis: &str, points: Vec<SweepPoint>, config: &SweepConfig) -> SweepResults {
    assert!(!points.is_empty(), "sweep needs at least one point");
    assert!(!config.seeds.is_empty(), "sweep needs at least one seed");

    // Flatten into (point index, seed) jobs.
    let jobs: Vec<(usize, u64)> = (0..points.len())
        .flat_map(|i| config.seeds.iter().map(move |&s| (i, s)))
        .collect();
    let threads = if config.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(jobs.len())
    } else {
        config.threads.min(jobs.len())
    };

    // Per-point accumulator of (seed, cell result).
    type SeedRuns = Vec<(u64, CellResult)>;
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<SeedRuns>> = (0..points.len()).map(|_| Mutex::new(Vec::new())).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= jobs.len() {
                    break;
                }
                let (i, seed) = jobs[j];
                let report = points[i].experiment.with_seed(seed).run();
                let cell = CellResult {
                    row: report.row,
                    join_ratio: report.join_ratio,
                    generated: report.generated,
                };
                results[i]
                    .lock()
                    .expect("no poisoned result lock")
                    .push((seed, cell));
            });
        }
    });

    let points = points
        .iter()
        .zip(results)
        .map(|(point, cell)| {
            let mut runs = cell.into_inner().expect("no poisoned result lock");
            runs.sort_by_key(|(seed, _)| *seed); // deterministic order
            let rows: Vec<FigureRow> = runs.iter().map(|(_, c)| c.row).collect();
            let n = runs.len() as f64;
            PointResult {
                x_label: point.x_label.clone(),
                scheduler: point.experiment.scheduler.name(),
                mean: FigureRow::mean(rows.iter()),
                join_ratio: runs.iter().map(|(_, c)| c.join_ratio).sum::<f64>() / n,
                generated: runs.iter().map(|(_, c)| c.generated as f64).sum::<f64>() / n,
                rows,
            }
        })
        .collect();

    SweepResults {
        x_axis: x_axis.to_string(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtt_workload::{Experiment, RunSpec, ScenarioSpec, SchedulerKind};

    fn tiny_experiment(ppm: f64) -> Experiment {
        Experiment::new(ScenarioSpec::star(2), SchedulerKind::minimal(8)).with_run(RunSpec {
            traffic_ppm: ppm,
            warmup_secs: 20,
            measure_secs: 30,
            seed: 0,
            ..RunSpec::default()
        })
    }

    fn tiny_points() -> Vec<SweepPoint> {
        vec![
            SweepPoint {
                x_label: "10".into(),
                experiment: tiny_experiment(10.0),
            },
            SweepPoint {
                x_label: "20".into(),
                experiment: tiny_experiment(20.0),
            },
        ]
    }

    #[test]
    fn sweep_runs_and_averages() {
        let cfg = SweepConfig {
            seeds: vec![1, 2],
            threads: 2,
        };
        let results = run_sweep("traffic", tiny_points(), &cfg);
        assert_eq!(results.points.len(), 2);
        assert_eq!(results.x_labels(), vec!["10", "20"]);
        assert_eq!(results.schedulers(), vec!["minimal"]);
        for p in &results.points {
            assert_eq!(p.rows.len(), 2, "one row per seed");
            assert!(p.generated > 0.0);
            assert!(p.join_ratio > 0.0);
        }
        assert!(results.get("minimal", "10").is_some());
        assert!(results.get("minimal", "99").is_none());
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let one = SweepConfig {
            seeds: vec![7],
            threads: 1,
        };
        let many = SweepConfig {
            seeds: vec![7],
            threads: 4,
        };
        let a = run_sweep("x", tiny_points(), &one);
        let b = run_sweep("x", tiny_points(), &many);
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.mean, pb.mean, "thread count must not affect results");
        }
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_sweep_rejected() {
        let _ = run_sweep("x", vec![], &SweepConfig::default());
    }
}
