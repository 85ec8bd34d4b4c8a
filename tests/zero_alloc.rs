//! Steady-state allocation accounting for the per-slot hot path.
//!
//! The output-sensitive slot-resolution work (per-channel transmitter
//! buckets, reusable slot buffers, drain-into-scratch control-plane
//! layers) claims that once a simulation's buffers have warmed up, the
//! engine performs **zero heap allocations per slot**: not "few", zero.
//! These tests pin that with a counting global allocator — any future
//! `Vec::new()` that sneaks back onto the hot path fails the suite with
//! an exact allocation count instead of silently eroding throughput.
//!
//! Scope: the radio/slot machinery and the steady-state control plane
//! (EBs, Trickle DIOs, DAO refreshes). End-to-end *packet tracking* is
//! exempt by design — the tracker records every generated data packet in
//! a map, which is per-packet bookkeeping, not per-slot work — so the
//! engine window runs a converged control-plane-only network.

// The counting allocator needs `unsafe` (GlobalAlloc is an unsafe
// trait); the workspace-level `deny` is lifted for this one test binary.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use gtt_engine::{EngineConfig, MinimalSchedule, Network};
use gtt_net::{
    Dest, Frame, LinkModel, Listener, NodeId, PacketId, PhysicalChannel, Position, RadioMedium,
    RxOutcome, SlotOutcomes, Topology, TopologyBuilder, Transmission,
};
use gtt_sim::{Pcg32, SimDuration, SimTime};

/// `System` with an allocation counter scoped to the *measuring
/// thread* (frees are not counted — the assertion is about allocation
/// pressure, not leaks). Only allocations made while the thread-local
/// `COUNTING` flag is set are counted: the libtest harness's own
/// threads allocate at unpredictable times (channel wake-ups, output
/// capture), and a process-global counter would flake on them.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread is inside a measured window.
/// `try_with`: allocations during thread-local teardown must not panic.
fn counting_here() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: defers entirely to `System`; the only addition is a relaxed
// counter increment, which cannot violate any allocator invariant.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; caller upholds `layout` validity.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; caller guarantees `ptr`/`layout`
        // came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; caller upholds the realloc
        // contract (live ptr, matching layout, non-zero new_size).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts this thread's allocations during `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

/// A 12-node clique so every transmission is audible everywhere — the
/// worst case for per-slot listener work.
fn clique(n: u16) -> Topology {
    TopologyBuilder::new(500.0)
        .link_model(LinkModel::Fixed(0.9))
        .nodes((0..n).map(|i| Position::new(f64::from(i) * 5.0, 0.0)))
        .build()
}

fn tx(src: u16, dst: Dest, ch: u8) -> Transmission<u64> {
    Transmission {
        channel: PhysicalChannel::new(ch),
        frame: Frame::new(PacketId::new(0), NodeId::new(src), dst, SimTime::ZERO, 7),
    }
}

/// Every leg lives in one `#[test]`, each wrapped in [`count_allocs`]:
/// the counter is process-wide, so a second counting test on another
/// test thread would add its allocations to this one's count.
#[test]
fn steady_state_slot_path_performs_zero_allocations() {
    // --- Medium: resolve_slot_into is allocation-free once warm. ---
    let mut medium = RadioMedium::new(clique(12), Pcg32::new(42));
    let transmissions = vec![
        tx(0, Dest::Unicast(NodeId::new(3)), 17),
        tx(1, Dest::Broadcast, 23),
        tx(2, Dest::Unicast(NodeId::new(4)), 17),
    ];
    let listeners: Vec<Listener> = (3..12)
        .map(|i| Listener {
            node: NodeId::new(i),
            channel: PhysicalChannel::new(if i % 2 == 0 { 17 } else { 23 }),
        })
        .collect();
    let mut out = SlotOutcomes::default();
    // Warm-up call grows every scratch buffer to its steady-state size.
    medium.resolve_slot_into(&transmissions, &listeners, &mut out);
    let during = count_allocs(|| {
        for _ in 0..100 {
            medium.resolve_slot_into(&transmissions, &listeners, &mut out);
        }
    });
    assert_eq!(
        during, 0,
        "resolve_slot_into must not allocate once its buffers are warm"
    );

    // --- Medium: an overheard frame is never cloned. ---
    // A listener that decodes a unicast for another node gets the
    // frameless `Overheard`. Heap-carrying payloads to a node that does
    // not listen make every decode an overhearing, so a clone would
    // allocate.
    let mut medium = RadioMedium::new(clique(12), Pcg32::new(42));
    let unicast = |src: u16, ch: u8| Transmission {
        channel: PhysicalChannel::new(ch),
        frame: Frame::new(
            PacketId::new(0),
            NodeId::new(src),
            Dest::Unicast(NodeId::new(1)),
            SimTime::ZERO,
            vec![0u8; 64],
        ),
    };
    let transmissions = vec![unicast(0, 17), unicast(2, 23)];
    let mut out = SlotOutcomes::default();
    medium.resolve_slot_into(&transmissions, &listeners, &mut out);
    let mut overheard = 0;
    let during = count_allocs(|| {
        for _ in 0..100 {
            medium.resolve_slot_into(&transmissions, &listeners, &mut out);
            overheard += out
                .rx
                .iter()
                .filter(|(_, rx)| *rx == RxOutcome::Overheard)
                .count();
        }
    });
    // Links have PRR 0.9, so about 810 of the 900 listens decode.
    assert!(overheard > 700, "only {overheard} overheard listens");
    assert_eq!(
        during, 0,
        "resolve_slot_into allocated {during} times in 100 slots of overheard unicasts"
    );

    // --- Engine: a converged network's slots are allocation-free. ---
    // Control plane only (EBs, Trickle DIOs, DAO refreshes): data-packet
    // tracking is per-packet map bookkeeping and deliberately out of
    // scope, so no application traffic is configured.
    let topo = TopologyBuilder::new(40.0)
        .link_model(LinkModel::default())
        .nodes((0..7).map(|i| {
            let angle = f64::from(i) * std::f64::consts::TAU / 7.0;
            Position::new(25.0 * angle.cos(), 25.0 * angle.sin())
        }))
        .build();
    let mut net = Network::builder(topo, EngineConfig::default())
        .root(NodeId::new(0))
        .scheduler_factory(|_, _| Box::new(MinimalSchedule::new(8)))
        .build();
    // The frame-tap seam ships disabled; this leg doubles as the proof
    // that a disabled tap costs nothing — with no tap installed the
    // slot path performs zero allocations, wire-encoding included.
    assert!(!net.frame_tap_installed(), "taps are opt-in");
    // Long warm-up: the DODAG converges, Trickle stretches, every queue,
    // heap and scratch buffer reaches its steady-state capacity.
    net.run_for(SimDuration::from_secs(180));
    let during = count_allocs(|| net.run_for(SimDuration::from_secs(60)));
    assert_eq!(
        during, 0,
        "steady-state Network::run_for allocated {during} times in 60 s \
         (4000 slots) — the slot hot path must be allocation-free"
    );
}
