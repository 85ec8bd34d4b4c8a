//! Trace-export invariants: the frame tap is a pure observer.
//!
//! The pcap capture a traced run produces must be (a) **inert** — the
//! [`gtt_engine::NetworkReport`] is identical with and without the tap
//! installed, on the event core and on the naive-step oracle — and
//! (b) **pure** — the capture bytes are a deterministic function of the
//! [`Experiment`] alone: two runs, two processes, two machines, same
//! bytes. A committed FNV-1a hash pins the whole wire codec + tap +
//! pcap pipeline, and a second one the run's report; if one moves,
//! either the codec or the metrics changed (bump the golden
//! deliberately) or determinism broke (fix the engine).

use gt_tsch::GtTschConfig;
use gtt_workload::{Experiment, NoiseBurst, Overlay, RunSpec, ScenarioSpec, SchedulerKind};

/// The reference experiment of this suite: the fig8 topology family at
/// light load with a noise overlay (so retransmissions, queue churn and
/// link flaps all appear in the capture), shrunk to test-sized windows.
fn traced_experiment() -> Experiment {
    traced_under(SchedulerKind::gt_tsch_default())
}

/// [`traced_experiment`] with a different scheduler.
fn traced_under(scheduler: SchedulerKind) -> Experiment {
    Experiment::new(ScenarioSpec::two_dodag(6), scheduler)
        .with_run(RunSpec {
            traffic_ppm: 30.0,
            warmup_secs: 30,
            measure_secs: 60,
            seed: 1,
            ..RunSpec::default()
        })
        .with_overlay(Overlay::Noise(NoiseBurst::wifi_like()))
}

/// 64-bit FNV-1a — tiny, dependency-free, and stable across platforms;
/// exactly what a golden-trace fingerprint needs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn tap_is_inert_reports_identical_with_and_without() {
    let exp = traced_experiment();
    let plain = exp.run();
    let (traced, capture) = exp.run_traced();
    assert_eq!(
        plain, traced,
        "installing a frame tap changed the NetworkReport — taps must be observers"
    );
    assert!(!capture.is_empty(), "traced run produced no capture");
}

#[test]
fn traces_are_byte_identical_across_runs() {
    let exp = traced_experiment();
    let (_, first) = exp.run_traced();
    let (_, second) = exp.run_traced();
    assert_eq!(
        first, second,
        "same Experiment, different trace bytes — trace purity broken"
    );
}

#[test]
fn trace_is_a_structurally_valid_pcap() {
    let (_, capture) = traced_experiment().run_traced();
    let summary = gtt_frame::pcap::validate(&capture).expect("capture must validate");
    assert!(summary.packets > 0, "empty capture");
    assert_eq!(
        capture.len(),
        gtt_frame::pcap::GLOBAL_HEADER_LEN
            + summary.packets * gtt_frame::pcap::RECORD_HEADER_LEN
            + summary.frame_bytes,
        "pcap accounting must cover every byte"
    );
}

/// The committed golden fingerprints of [`traced_experiment`]'s capture
/// and of its [`gtt_engine::NetworkReport`], under GT-TSCH's default,
/// Orchestra's default (its EB and common slotframe lengths) and GT-TSCH
/// at Fig. 10's largest slotframe (its derived broadcast-slot count).
/// The report hash is FNV-1a over the report's `Debug` string, the
/// fingerprint perfbench prints, so it pins every reported value: PDR,
/// delay statistics, rates and the per-node table. A deliberate ratchet:
/// the trace hash moves **only** when the wire codec, the tap seam, a
/// slotframe layout or the engine's transmission schedule changes, and
/// the report hash when the traffic or the metrics do. If you changed
/// one on purpose, re-run with `BLESS=1 cargo test -p gtt-tests --test
/// trace -- golden --nocapture` and commit the printed values; if you
/// didn't, a moved hash means a determinism regression.
const GOLDEN_TRACES: [Golden; 3] = [
    Golden {
        scheduler: SchedulerKind::gt_tsch_default,
        trace: 0xd1e0_0f4f_6f79_f1c2,
        report: 0xbdc5_aae5_ff09_7da4,
    },
    Golden {
        scheduler: SchedulerKind::orchestra_default,
        trace: 0x404e_791f_d757_42b9,
        report: 0xd80f_f9d5_35ea_f31d,
    },
    Golden {
        scheduler: || SchedulerKind::GtTsch(GtTschConfig::with_slotframe_len(80)),
        trace: 0x87ba_953f_5ffe_d529,
        report: 0x5b88_d7f9_0471_bc24,
    },
];

/// One [`GOLDEN_TRACES`] row: the scheduler, and the fingerprints of
/// the capture and of the report under it.
struct Golden {
    scheduler: fn() -> SchedulerKind,
    trace: u64,
    report: u64,
}

#[test]
fn golden_trace_fingerprint() {
    let bless = std::env::var_os("BLESS").is_some();
    for golden in GOLDEN_TRACES {
        let scheduler = (golden.scheduler)();
        let (report, capture) = traced_under(scheduler.clone()).run_traced();
        let hash = fnv1a(&capture);
        let report_hash = fnv1a(format!("{report:?}").as_bytes());
        if bless {
            println!(
                "{scheduler:?}: trace 0x{hash:016x} ({} bytes), report 0x{report_hash:016x}",
                capture.len()
            );
            continue;
        }
        assert_eq!(
            hash,
            golden.trace,
            "{scheduler:?}: golden trace fingerprint moved (got 0x{hash:016x}, {} bytes) — \
             see GOLDEN_TRACES' doc comment for whether to bless or bisect",
            capture.len()
        );
        assert_eq!(
            report_hash, golden.report,
            "{scheduler:?}: golden report fingerprint moved (got 0x{report_hash:016x}) — \
             see GOLDEN_TRACES' doc comment for whether to bless or bisect"
        );
    }
}

/// On the naive-step oracle, the exhaustive per-slot loop must emit the
/// byte-identical capture: both cores share the same `process_slot` tap
/// seam, and this pins that they keep doing so.
#[test]
fn oracle_core_emits_the_identical_trace() {
    let exp = traced_experiment();
    let (event_report, event_trace) = exp.run_traced();
    let mut oracle_net = exp.network_builder().naive_stepping().build();
    let (oracle_report, oracle_trace) = exp.run_traced_on(&mut oracle_net);
    assert_eq!(event_report, oracle_report, "reports diverge under tracing");
    assert_eq!(
        event_trace, oracle_trace,
        "event core and naive-step oracle captured different traces"
    );
}
