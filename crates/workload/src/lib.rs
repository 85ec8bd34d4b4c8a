//! # gtt-workload — declarative experiments
//!
//! One self-describing value, [`Experiment`], is the only way figures,
//! benches, examples and cross-crate tests describe a run: a
//! [`ScenarioSpec`] (topology generator and its parameters), a
//! [`SchedulerKind`], a [`RunSpec`] (traffic model + timing + seed) and
//! a composable [`Overlay`] timeline (interference bursts, step
//! mobility, duty-cycle budgets). Experiments are plain data —
//! comparable, cloneable, and canonically encodable
//! ([`Experiment::encode`]) into a versioned byte form whose hex
//! armor ([`Experiment::encode_hex`]) is a one-line, reproducible
//! description of a run.
//!
//! # Example
//!
//! ```
//! use gtt_workload::{Experiment, Overlay, NoiseBurst, RunSpec, ScenarioSpec, SchedulerKind};
//!
//! let exp = Experiment {
//!     scenario: ScenarioSpec::two_dodag(7), // the Fig. 8 topology
//!     scheduler: SchedulerKind::gt_tsch_default(),
//!     run: RunSpec {
//!         traffic_ppm: 30.0,
//!         warmup_secs: 30,
//!         measure_secs: 60,
//!         seed: 1,
//!         ..RunSpec::default()
//!     },
//!     overlays: vec![Overlay::Noise(NoiseBurst::wifi_like())],
//! };
//! // The canonical encoding round-trips exactly …
//! assert_eq!(Experiment::decode(&exp.encode()).unwrap(), exp);
//! // … and `run()` drives warm-up, the overlay timeline and the
//! // measured window in one call.
//! let report = exp.run();
//! assert!(report.join_ratio > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encode;
pub mod overlay;
pub mod scenario;
pub mod schedulers;
pub mod spec;

pub use encode::{DecodeError, ENCODING_VERSION};
pub use overlay::{DutyCycleBudget, NoiseBurst, Overlay, StepMobility, WaypointHop};
pub use scenario::Scenario;
pub use schedulers::SchedulerKind;
pub use spec::ScenarioSpec;

use gtt_engine::{AppTraffic, EngineConfig, Network, NetworkBuilder, NetworkReport};
use gtt_mac::SLOT_DURATION;
use gtt_sim::SimDuration;

/// Parameters of one measured run: the traffic model (per-node CBR
/// rate), the timing of the measurement, the seed, and the engine
/// cadence preset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Application rate per non-root node (packets/minute). Must be at
    /// least [`gtt_engine::AppTraffic::MIN_RATE_PPM`], one packet per
    /// `u32::MAX` µs, and at most
    /// [`gtt_engine::AppTraffic::MAX_RATE_PPM`], one packet per
    /// simulated microsecond; building the network panics otherwise.
    pub traffic_ppm: f64,
    /// Warm-up (network formation + schedule convergence), seconds.
    /// Overlays do not run during warm-up — the network always forms
    /// under clean conditions.
    pub warmup_secs: u64,
    /// Measurement window, seconds (the overlay timeline spans it). At
    /// least 1, and the run's end in µs must fit a `u64` (see
    /// [`RunSpec::is_valid`]).
    pub measure_secs: u64,
    /// Experiment seed.
    pub seed: u64,
    /// Use the steady-state low-power cadences
    /// ([`EngineConfig::low_power`]) instead of the paper's
    /// experiment-accelerating ones.
    pub low_power: bool,
}

impl RunSpec {
    /// True if the rate is valid ([`gtt_engine::AppTraffic::is_valid_rate`]),
    /// the measurement window is at least a second long, and the run's
    /// end in µs fits a `u64`.
    /// [`Experiment::run`] asserts it; building a network does not.
    pub fn is_valid(&self) -> bool {
        AppTraffic::is_valid_rate(self.traffic_ppm)
            && self.measure_secs >= 1
            && self.end_us().is_some()
    }

    /// The instant a run of this spec ends, in µs, or `None` if it does
    /// not fit a `u64`. Runs advance in whole slots, so the warm-up ends
    /// on the first slot boundary at or after `warmup_secs`, and the
    /// measurement window on the first at or after `measure_secs` later.
    pub(crate) fn end_us(&self) -> Option<u64> {
        let slot = SLOT_DURATION.as_micros();
        let warmup_end = self
            .warmup_secs
            .checked_mul(1_000_000)?
            .checked_next_multiple_of(slot)?;
        self.measure_secs
            .checked_mul(1_000_000)?
            .checked_add(warmup_end)?
            .checked_next_multiple_of(slot)
    }
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            traffic_ppm: 30.0,
            warmup_secs: 120,
            measure_secs: 300,
            seed: 1,
            low_power: false,
        }
    }
}

/// A complete, self-describing experiment: everything that determines a
/// [`NetworkReport`], and nothing that doesn't.
///
/// The four fields are pure data; [`Experiment::run`] is the one driver
/// that turns them into a measured report (build network → warm up →
/// overlay-driven measurement window → report). Anything needing finer
/// control (fault-injection tests, engine benches) starts from
/// [`Experiment::network_builder`] and drives the network itself.
///
/// # Example
///
/// The minimal build-and-run flow — describe the run as data, call
/// [`Experiment::run`], read the [`NetworkReport`]:
///
/// ```
/// use gtt_workload::{Experiment, RunSpec, ScenarioSpec, SchedulerKind};
///
/// let report = Experiment::new(ScenarioSpec::star(4), SchedulerKind::minimal(8))
///     .with_run(RunSpec {
///         warmup_secs: 20,
///         measure_secs: 20,
///         seed: 3,
///         ..RunSpec::default()
///     })
///     .run();
/// assert!(report.join_ratio > 0.9, "a 4-node star forms in 20 s");
/// assert!(report.delivered <= report.generated);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// What network the run happens on.
    pub scenario: ScenarioSpec,
    /// Which scheduling function every node runs.
    pub scheduler: SchedulerKind,
    /// Traffic model, timing, seed, engine preset.
    pub run: RunSpec,
    /// Timed environmental effects over the measurement window, applied
    /// in declaration order when simultaneous.
    pub overlays: Vec<Overlay>,
}

impl Experiment {
    /// An experiment with default [`RunSpec`] and no overlays.
    pub fn new(scenario: ScenarioSpec, scheduler: SchedulerKind) -> Self {
        Experiment {
            scenario,
            scheduler,
            run: RunSpec::default(),
            overlays: Vec::new(),
        }
    }

    /// Replaces the run parameters (builder style).
    pub fn with_run(mut self, run: RunSpec) -> Self {
        self.run = run;
        self
    }

    /// Appends an overlay (builder style).
    pub fn with_overlay(mut self, overlay: Overlay) -> Self {
        self.overlays.push(overlay);
        self
    }

    /// The same experiment under a different seed — how sweeps expand
    /// one point into its per-seed cells.
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut exp = self.clone();
        exp.run.seed = seed;
        exp
    }

    /// The engine configuration this experiment runs under.
    pub fn engine_config(&self) -> EngineConfig {
        let base = if self.run.low_power {
            EngineConfig::low_power()
        } else {
            EngineConfig::default()
        };
        EngineConfig {
            seed: self.run.seed,
            ..base
        }
    }

    /// A fully-wired [`NetworkBuilder`] for this experiment — the
    /// escape hatch for callers that need a builder-level switch (the
    /// naive-step oracle) before building.
    pub fn network_builder(&self) -> NetworkBuilder {
        let scenario = self.scenario.build();
        let sk = self.scheduler.clone();
        Network::builder(scenario.topology, self.engine_config())
            .roots(scenario.roots)
            .traffic_ppm(self.run.traffic_ppm)
            .scheduler_factory(move |id, is_root| sk.instantiate(id, is_root))
    }

    /// Builds the experiment's network without running it.
    pub fn build_network(&self) -> Network {
        self.network_builder().build()
    }

    /// Runs the full experiment: build, warm up, drive the overlay
    /// timeline across the measurement window, report.
    pub fn run(&self) -> NetworkReport {
        self.run_on(&mut self.build_network())
    }

    /// [`Experiment::run`] on an already-built network (one produced by
    /// [`Experiment::network_builder`] — e.g. with the naive-step
    /// oracle enabled, so equivalence tests drive both cores through
    /// the identical warm-up/overlay/measure sequence).
    ///
    /// # Panics
    ///
    /// Panics unless [`RunSpec::is_valid`] accepts the run spec.
    pub fn run_on(&self, net: &mut Network) -> NetworkReport {
        assert!(
            self.run.is_valid(),
            "invalid run spec {:?}: the measurement window needs at least 1 s, and the run's \
             end in µs must fit a u64",
            self.run
        );
        net.run_for(SimDuration::from_secs(self.run.warmup_secs));
        net.start_measurement();
        overlay::drive(
            net,
            &self.overlays,
            SimDuration::from_secs(self.run.measure_secs),
        );
        net.finish_measurement();
        net.report()
    }

    /// Runs the full experiment with a pcap frame tap installed and
    /// returns the report together with the capture bytes (a classic
    /// pcap, linktype 195, sim-time timestamps). The trace is a
    /// deterministic pure function of the experiment: same
    /// `Experiment`, same bytes. Taps never change a report (see
    /// `DETERMINISM.md`), so the report equals [`Experiment::run`]'s.
    pub fn run_traced(&self) -> (NetworkReport, Vec<u8>) {
        self.run_traced_on(&mut self.build_network())
    }

    /// [`Experiment::run_traced`] on an already-built network. Any
    /// previously installed tap is replaced and the tap is removed
    /// again before returning.
    pub fn run_traced_on(&self, net: &mut Network) -> (NetworkReport, Vec<u8>) {
        let (tap, shared) = gtt_frame::PcapTap::new();
        net.set_frame_tap(Some(Box::new(tap)));
        let report = self.run_on(net);
        net.set_frame_tap(None); // drops the tap's Arc clone
        let pcap = std::sync::Arc::try_unwrap(shared)
            .expect("tap dropped, buffer uniquely owned")
            .into_inner()
            .expect("pcap buffer poisoned");
        (report, pcap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_spec_default_is_sane() {
        let spec = RunSpec::default();
        assert!(spec.traffic_ppm > 0.0);
        assert!(spec.measure_secs > 0);
        assert!(!spec.low_power);
    }

    #[test]
    fn experiment_builds_wired_networks() {
        let exp = Experiment::new(ScenarioSpec::two_dodag(6), SchedulerKind::minimal(8)).with_run(
            RunSpec {
                warmup_secs: 1,
                measure_secs: 1,
                ..RunSpec::default()
            },
        );
        let net = exp.build_network();
        assert_eq!(net.nodes().len(), 12);
        let scenario = exp.scenario.build();
        assert!(net.node(scenario.roots[0]).rpl.is_root());
        assert!(net.node(scenario.roots[1]).rpl.is_root());
        assert_eq!(net.config().seed, exp.run.seed);
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let exp = Experiment::new(ScenarioSpec::star(3), SchedulerKind::gt_tsch_default());
        let other = exp.with_seed(99);
        assert_eq!(other.run.seed, 99);
        assert_eq!(other.with_seed(exp.run.seed), exp);
    }

    #[test]
    fn low_power_preset_selects_steady_state_cadences() {
        let mut exp = Experiment::new(ScenarioSpec::star(3), SchedulerKind::gt_tsch_default());
        exp.run.low_power = true;
        assert_eq!(
            exp.engine_config().eb_period,
            EngineConfig::low_power().eb_period
        );
    }

    #[test]
    fn run_produces_a_formed_network() {
        let exp =
            Experiment::new(ScenarioSpec::star(4), SchedulerKind::minimal(8)).with_run(RunSpec {
                traffic_ppm: 30.0,
                warmup_secs: 30,
                measure_secs: 30,
                seed: 2,
                ..RunSpec::default()
            });
        let report = exp.run();
        assert!(report.join_ratio > 0.9, "network must form");
        assert!(report.generated > 0);
    }
}
