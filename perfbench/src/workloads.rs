//! The benchmark's workloads, generated from the workload seed. The
//! program under test only ever sees the resulting [`Experiment`]s and
//! hop scripts.

use gtt_net::{NodeId, Position};
use gtt_workload::{Experiment, Overlay, RunSpec, ScenarioSpec, SchedulerKind, StepMobility};

use crate::stats::SplitMix;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 3] = ["fig8-sweep", "city-1k-churn", "city-10k"];

/// Run seeds per Fig. 8 cell: the sweep's outcomes are averaged over
/// these, which keeps them steady from one workload seed to the next.
const FIG8_SEEDS: u64 = 4;
/// Hop scripts per churn pass. Churn makes runs chaotic (four couriers
/// among a thousand nodes move the median delay by 2x), so the churn
/// outcomes are pooled over several scripts.
const CHURN_SCRIPTS: usize = 4;
/// Couriers per hop script, each hopping once per simulated second.
const COURIERS: usize = 4;
/// Measured window of the churn workload, seconds (600 hops).
const CHURN_MEASURE_SECS: u64 = 150;
/// Hop landing spots lie this far from a cluster's root at most; the
/// city clusters span ~120 m, so a courier always lands among nodes.
const LANDING_RADIUS_M: f64 = 100.0;

/// A scripted relocation, applied at the start of measured second
/// `at_secs` through `Network::move_node`.
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    /// Offset from the start of the measured window, whole seconds.
    pub at_secs: u64,
    /// The node that moves.
    pub node: NodeId,
    /// Where it lands.
    pub to: Position,
}

/// One simulated run of a workload: an experiment and its hop script.
pub struct Cell {
    /// Human-readable identity, printed beside the fingerprint.
    pub label: String,
    /// Scenario, scheduler and timing. Carries no overlays: the benchmark
    /// applies the hops itself.
    pub experiment: Experiment,
    /// Ordered by `at_secs`, all inside the measured window.
    pub hops: Vec<Hop>,
}

impl Cell {
    /// The experiment a user would run for the same cell: the hops become
    /// a `StepMobility` overlay.
    pub fn equivalent_experiment(&self) -> Experiment {
        if self.hops.is_empty() {
            return self.experiment.clone();
        }
        let mobility = self.hops.iter().fold(StepMobility::new(), |m, h| {
            m.hop(gtt_sim::SimDuration::from_secs(h.at_secs), h.node, h.to)
        });
        self.experiment
            .clone()
            .with_overlay(Overlay::Mobility(mobility))
    }
}

/// The cells of workload `name` under `seed`, or `None` for an unknown
/// name.
pub fn generate(name: &str, seed: u64) -> Option<Vec<Cell>> {
    match name {
        "fig8-sweep" => Some(fig8_sweep(seed)),
        "city-1k-churn" => {
            let mut rng = SplitMix::new(seed, 2);
            Some(
                (0..CHURN_SCRIPTS)
                    .map(|_| city_1k_churn(rng.next_u64()))
                    .collect(),
            )
        }
        "city-10k" => Some(vec![city_10k(seed)]),
        _ => None,
    }
}

/// The eight Fig. 8 points, each under [`FIG8_SEEDS`] derived run seeds.
fn fig8_sweep(seed: u64) -> Vec<Cell> {
    let mut rng = SplitMix::new(seed, 8);
    let seeds: Vec<u64> = (0..FIG8_SEEDS).map(|_| rng.next_u64()).collect();
    let mut cells = Vec::new();
    for point in gtt_bench::fig8_points() {
        for &s in &seeds {
            let experiment = point.experiment.with_seed(s);
            cells.push(Cell {
                label: format!(
                    "{} {} ppm seed {s:#018x}",
                    experiment.scheduler.name(),
                    point.x_label
                ),
                experiment,
                hops: Vec::new(),
            });
        }
    }
    cells
}

/// GT-TSCH on a city at 1 ppm with the low-power cadences, under run
/// seed `run_seed`.
fn city(dodags: usize, measure_secs: u64, run_seed: u64) -> Experiment {
    Experiment::new(
        ScenarioSpec::city(dodags, 100),
        SchedulerKind::gt_tsch_default(),
    )
    .with_run(RunSpec {
        traffic_ppm: 1.0,
        warmup_secs: 60,
        measure_secs,
        seed: run_seed,
        low_power: true,
    })
}

/// City-1k with [`COURIERS`] leaves hopping to random spots of random
/// other clusters once per simulated second, the script drawn from
/// `script_seed`. The run seed is fixed: across run seeds the ten
/// clusters' delivery collapse differs far more than any hop script
/// moves it.
fn city_1k_churn(script_seed: u64) -> Cell {
    let experiment = city(10, CHURN_MEASURE_SECS, 1);
    // The cluster roots sit at the disc centres.
    let scenario = experiment.scenario.build();
    let centres: Vec<Position> = scenario
        .roots
        .iter()
        .map(|&r| scenario.topology.position(r))
        .collect();
    let clusters = centres.len() as u64;
    let per_cluster = scenario.topology.len() as u64 / clusters;

    let mut rng = SplitMix::new(script_seed, 3);
    // (node, cluster it currently sits in)
    let mut couriers: Vec<(NodeId, u64)> = Vec::new();
    while couriers.len() < COURIERS {
        let cluster = rng.below(clusters);
        let node =
            NodeId::from_index((cluster * per_cluster + 1 + rng.below(per_cluster - 1)) as usize);
        if !scenario.roots.contains(&node) && couriers.iter().all(|&(n, _)| n != node) {
            couriers.push((node, cluster));
        }
    }
    let mut hops = Vec::new();
    for at_secs in 0..CHURN_MEASURE_SECS {
        for (node, cluster) in &mut couriers {
            *cluster = (*cluster + 1 + rng.below(clusters - 1)) % clusters;
            let r = LANDING_RADIUS_M * rng.unit().sqrt();
            let theta = std::f64::consts::TAU * rng.unit();
            hops.push(Hop {
                at_secs,
                node: *node,
                to: centres[*cluster as usize].offset(r * theta.cos(), r * theta.sin()),
            });
        }
    }
    Cell {
        label: format!(
            "{} gt-tsch 1 ppm, {} hops, script {script_seed:#018x}",
            experiment.scenario.name(),
            hops.len()
        ),
        experiment,
        hops,
    }
}

/// Static city-10k: 60 s formation, then 120 measured one-second windows.
/// Without a hop script, the run seed is the input the workload seed
/// drives; a hundred clusters average its effect out.
fn city_10k(seed: u64) -> Cell {
    let experiment = city(100, 120, SplitMix::new(seed, 1).next_u64());
    Cell {
        label: format!("{} gt-tsch 1 ppm", experiment.scenario.name()),
        experiment,
        hops: Vec::new(),
    }
}
