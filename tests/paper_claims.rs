//! The paper's headline qualitative claims (§VIII), asserted on reduced
//! but faithful runs: who wins, in which direction, by a safe margin.
//! The full-size sweeps live in the `fig8`/`fig9`/`fig10` binaries.

use gtt_metrics::FigureRow;
use gtt_workload::{Experiment, NoiseBurst, Overlay, RunSpec, ScenarioSpec, SchedulerKind};

fn spec(ppm: f64, seed: u64) -> RunSpec {
    RunSpec {
        traffic_ppm: ppm,
        warmup_secs: 120,
        measure_secs: 120,
        seed,
        ..RunSpec::default()
    }
}

/// A shortened Fig. 8-style run (smaller network + window to stay fast
/// in debug builds, same structure).
fn measure(scheduler: &SchedulerKind, ppm: f64, seed: u64) -> FigureRow {
    Experiment::new(ScenarioSpec::two_dodag(6), scheduler.clone())
        .with_run(spec(ppm, seed))
        .run()
        .row
}

#[test]
fn gt_tsch_keeps_pdr_high_under_heavy_load() {
    // Fig. 8a: "GT-TSCH keeps its PDR higher than 98%".
    let row = measure(&SchedulerKind::gt_tsch_default(), 120.0, 1);
    assert!(
        row.pdr_percent > 95.0,
        "GT-TSCH PDR at 120 ppm: {:.1}%",
        row.pdr_percent
    );
    assert!(row.queue_loss < 5.0, "queue loss {:.1}", row.queue_loss);
}

#[test]
fn orchestra_collapses_under_heavy_load() {
    // Fig. 8a: "the performance of Orchestra dramatically decreased …
    // under high traffic load".
    let light = measure(&SchedulerKind::orchestra_default(), 30.0, 1);
    let heavy = measure(&SchedulerKind::orchestra_default(), 120.0, 1);
    assert!(
        light.pdr_percent > 90.0,
        "Orchestra must be fine at 30 ppm: {:.1}%",
        light.pdr_percent
    );
    assert!(
        heavy.pdr_percent < 70.0,
        "Orchestra must degrade at 120 ppm: {:.1}%",
        heavy.pdr_percent
    );
}

#[test]
fn gt_tsch_beats_orchestra_on_every_figure_series_at_high_load() {
    // The Fig. 8 cross-scheduler ordering at 120 ppm.
    let gt = measure(&SchedulerKind::gt_tsch_default(), 120.0, 2);
    let orch = measure(&SchedulerKind::orchestra_default(), 120.0, 2);

    assert!(gt.pdr_percent > orch.pdr_percent + 20.0, "PDR gap");
    assert!(gt.delay_ms < orch.delay_ms / 2.0, "delay gap");
    assert!(gt.loss_per_min < orch.loss_per_min / 2.0, "loss gap");
    assert!(
        gt.queue_loss < orch.queue_loss / 2.0 + 1.0,
        "queue-loss gap"
    );
    assert!(
        gt.received_per_min > orch.received_per_min * 1.5,
        "throughput: GT {:.0}/min vs Orchestra {:.0}/min",
        gt.received_per_min,
        orch.received_per_min
    );
}

#[test]
fn both_schedulers_are_equivalent_at_light_load() {
    // Fig. 8: at 30 ppm both deliver essentially everything — the game
    // only matters once resources get scarce.
    let gt = measure(&SchedulerKind::gt_tsch_default(), 30.0, 3);
    let orch = measure(&SchedulerKind::orchestra_default(), 30.0, 3);
    assert!(gt.pdr_percent > 97.0, "GT {:.1}%", gt.pdr_percent);
    assert!(
        orch.pdr_percent > 90.0,
        "Orchestra {:.1}%",
        orch.pdr_percent
    );
}

#[test]
fn gt_tsch_delay_does_not_blow_up_with_load() {
    // Fig. 8b: GT-TSCH's delay stays in the hundreds of ms and *drops*
    // at the highest rate (more Tx cells allocated).
    let d75 = measure(&SchedulerKind::gt_tsch_default(), 75.0, 4).delay_ms;
    let d165 = measure(&SchedulerKind::gt_tsch_default(), 165.0, 4).delay_ms;
    assert!(d75 < 600.0, "delay at 75 ppm: {d75:.0} ms");
    assert!(
        d165 < d75 * 1.5,
        "delay must not explode: {d75:.0} → {d165:.0} ms"
    );
}

#[test]
fn gt_tsch_scales_with_dodag_size_where_orchestra_does_not() {
    // Fig. 9a at 8 nodes/DODAG, 120 ppm: GT-TSCH keeps PDR high while
    // Orchestra's single receiver-based Rx slot saturates.
    let at_8 = |scheduler: SchedulerKind| {
        Experiment::new(ScenarioSpec::two_dodag(8), scheduler)
            .with_run(spec(120.0, 5))
            .run()
            .row
    };
    let gt = at_8(SchedulerKind::gt_tsch_default());
    let orch = at_8(SchedulerKind::orchestra_default());
    assert!(
        gt.pdr_percent > 90.0,
        "GT at 8/DODAG: {:.1}%",
        gt.pdr_percent
    );
    assert!(
        orch.pdr_percent < gt.pdr_percent - 25.0,
        "Orchestra at 8/DODAG: {:.1}% vs GT {:.1}%",
        orch.pdr_percent,
        gt.pdr_percent
    );
}

#[test]
fn retransmissions_are_capped_at_four() {
    // Table II: macMaxFrameRetries = 4 — every frame is transmitted at
    // most 5 times, then dropped. Asserted on the wire, not on internal
    // counters: a frame tap builds a per-(transmitter, packet) attempt
    // histogram from the resolved transmissions themselves. A 2-node
    // line keeps every data frame single-hop (one transmitter per
    // packet id, so the histogram is exactly the MAC's retry count) and
    // the Wi-Fi-like noise bursts force real retransmissions.
    let exp = Experiment::new(
        ScenarioSpec::line(2, 30.0),
        SchedulerKind::gt_tsch_default(),
    )
    .with_run(spec(120.0, 7))
    .with_overlay(Overlay::Noise(NoiseBurst::wifi_like()));
    let mut net = exp.build_network();
    let (tap, counts) = gtt_frame::AttemptLog::new();
    net.set_frame_tap(Some(Box::new(tap)));
    exp.run_on(&mut net);
    net.set_frame_tap(None); // drop the tap's handle on the histogram
    let counts = std::sync::Arc::try_unwrap(counts)
        .expect("tap dropped")
        .into_inner()
        .expect("attempt histogram poisoned");

    assert!(!counts.is_empty(), "no unicast data frames were captured");
    let max = counts.values().copied().max().unwrap_or(0);
    assert!(
        counts.values().all(|&c| (1..=5).contains(&c)),
        "a frame was transmitted {max} times — the cap is MAX_RETRIES + 1 = 5"
    );
    assert!(
        counts.values().any(|&c| c > 1),
        "noise bursts must force at least one retransmission for the cap to bite"
    );
}

#[test]
fn fig10_longer_slotframes_hurt_orchestra_more() {
    // Fig. 10a: Orchestra's PDR drops fast as its unicast slotframe
    // grows (fewer Rx opportunities per second); GT-TSCH stays usable.
    let long_run = |scheduler: SchedulerKind| {
        Experiment::new(ScenarioSpec::two_dodag(6), scheduler)
            .with_run(spec(120.0, 6))
            .run()
            .row
    };
    let gt_long = long_run(SchedulerKind::GtTsch(
        gt_tsch::GtTschConfig::with_slotframe_len(80),
    ));
    let orch_long = long_run(SchedulerKind::Orchestra(
        gtt_orchestra::OrchestraConfig::with_unicast_len(20),
    ));
    assert!(
        gt_long.pdr_percent > 75.0,
        "GT-TSCH at slotframe 80: {:.1}%",
        gt_long.pdr_percent
    );
    assert!(
        orch_long.pdr_percent < 50.0,
        "Orchestra at unicast 20: {:.1}%",
        orch_long.pdr_percent
    );
}
