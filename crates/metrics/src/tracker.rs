//! End-to-end packet tracking.
//!
//! The tracker exploits the engine's origin-keyed packet ids
//! (`origin << 48 | seq`, with `seq` assigned monotonically per origin):
//! instead of a map keyed by packet id, it keeps one lane per origin in
//! a dense, offset-anchored `Vec`, and each lane stores a
//! generation-time *column* indexed by sequence number plus a delivered
//! *bitset* (one bit per packet). Both record paths are O(1) — no tree
//! or hash lookup — and steady-state memory is ~9 bytes per tracked
//! packet (8-byte generation time + 1 delivered bit) plus a fixed
//! per-lane header, an order of magnitude below the old per-packet
//! `BTreeMap` nodes.
//!
//! Delay and hop statistics are *streaming* ([`DelayStats`]): integer
//! nanosecond sums in `u128`, min/max, and a fixed-bin histogram for
//! percentiles. Integer sums are summation-order-independent, which is
//! what keeps `NetworkReport`s byte-identical between the event core and
//! the naive-step oracle (see DETERMINISM.md).

use std::collections::BTreeMap;

use gtt_net::{NodeId, PacketId};
use gtt_sim::{SimDuration, SimTime};

/// Bits of a [`PacketId`] holding the per-origin sequence number; the
/// remaining high bits are the origin's node index.
const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// Column sentinel: no packet recorded at this sequence slot.
const HOLE: SimTime = SimTime::MAX;

fn split_id(id: PacketId) -> (u64, u64) {
    (id.raw() >> SEQ_BITS, id.raw() & SEQ_MASK)
}

// ---------------------------------------------------------------- bitset

fn bit_get(bits: &[u64], i: usize) -> bool {
    bits.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
}

fn bit_set(bits: &mut Vec<u64>, i: usize) {
    let word = i / 64;
    if word >= bits.len() {
        bits.resize(word + 1, 0);
    }
    bits[word] |= 1 << (i % 64);
}

// ------------------------------------------------------------ histogram

/// Number of fixed delay-histogram bins (see [`DelayStats::bins`]).
///
/// Bins 0..8 are exact microseconds; past that, each power-of-two octave
/// splits into 4 sub-bins (≤ 25% relative resolution), which covers the
/// full `u64` microsecond range in `8 + 61·4 = 252` bins.
pub const DELAY_BINS: usize = 252;

fn delay_bin(d_us: u64) -> usize {
    if d_us < 8 {
        return d_us as usize;
    }
    let o = 63 - u64::from(d_us.leading_zeros()); // octave, >= 3
    let sub = (d_us >> (o - 2)) & 3;
    let b = 8 + (o - 3) * 4 + sub;
    (b as usize).min(DELAY_BINS - 1)
}

/// Upper edge of bin `b`, in microseconds (saturating for the top bin).
fn bin_upper_us(b: usize) -> u64 {
    if b < 8 {
        return b as u64 + 1;
    }
    let k = (b - 8) as u64;
    let o = 3 + k / 4;
    let sub = k % 4;
    let edge = (1u128 << o) + u128::from(sub + 1) * (1u128 << (o - 2));
    u64::try_from(edge).unwrap_or(u64::MAX)
}

// ----------------------------------------------------------- delay stats

/// Streaming end-to-end delay and hop statistics over delivered packets.
///
/// All accumulators are integers (nanosecond sums in `u128`, bin
/// counts), so the aggregate is independent of the order deliveries were
/// recorded in. Percentiles come from the fixed-bin histogram and report
/// the upper edge of the matched bin (≤ 25% relative error by
/// construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayStats {
    count: u64,
    sum_ns: u128,
    min_us: u64,
    max_us: u64,
    hops_sum: u64,
    bins: [u64; DELAY_BINS],
}

impl Default for DelayStats {
    fn default() -> Self {
        DelayStats {
            count: 0,
            sum_ns: 0,
            min_us: u64::MAX,
            max_us: 0,
            hops_sum: 0,
            bins: [0; DELAY_BINS],
        }
    }
}

impl DelayStats {
    fn record(&mut self, delay: SimDuration, hops: u8) {
        let us = delay.as_micros();
        self.count += 1;
        self.sum_ns += u128::from(us) * 1_000;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
        self.hops_sum += u64::from(hops);
        self.bins[delay_bin(us)] += 1;
    }

    /// Delivered packets the statistics cover.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean end-to-end delay in milliseconds (0.0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.sum_ns as f64 / 1e6) / self.count as f64
    }

    /// Mean hop count (0.0 when empty).
    pub fn mean_hops(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.hops_sum as f64 / self.count as f64
    }

    /// Smallest observed delay in milliseconds (`None` when empty).
    pub fn min_ms(&self) -> Option<f64> {
        (self.count > 0).then(|| self.min_us as f64 / 1e3)
    }

    /// Largest observed delay in milliseconds (`None` when empty).
    pub fn max_ms(&self) -> Option<f64> {
        (self.count > 0).then(|| self.max_us as f64 / 1e3)
    }

    /// The `p`-th percentile delay in milliseconds, from the histogram
    /// (upper edge of the matched bin; 0.0 when empty).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 100.0`.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (b, n) in self.bins.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bin_upper_us(b) as f64 / 1e3;
            }
        }
        self.max_us as f64 / 1e3
    }

    /// The raw histogram bins (see [`DELAY_BINS`] for the layout).
    pub fn bins(&self) -> &[u64; DELAY_BINS] {
        &self.bins
    }
}

// ----------------------------------------------------------- origin lane

/// Per-origin packet state: a generation-time column indexed by
/// `seq - seq_base` (with [`HOLE`] sentinels for never-recorded or
/// purged slots) and a delivered bitset over the same slots.
#[derive(Debug, Clone, Default, PartialEq)]
struct OriginLane {
    seq_base: u64,
    gen: Vec<SimTime>,
    delivered: Vec<u64>,
    generated: u64,
    delivered_count: u64,
    /// Conservative bounds on the live generation times (used only for
    /// the O(1) purge fast paths; re-recording a slot may widen them).
    min_gen: SimTime,
    max_gen: SimTime,
}

impl OriginLane {
    fn new_empty_bounds() -> (SimTime, SimTime) {
        (HOLE, SimTime::ZERO)
    }

    /// Column slot for `seq`, growing the column (and shifting the
    /// bitset) as needed. Front growth only happens on out-of-order
    /// generic use — the engine's per-origin seqs are monotonic.
    fn slot_for(&mut self, seq: u64) -> usize {
        if self.gen.is_empty() {
            self.seq_base = seq;
            self.gen.push(HOLE);
            return 0;
        }
        if seq < self.seq_base {
            let k = (self.seq_base - seq) as usize;
            self.gen.splice(0..0, std::iter::repeat(HOLE).take(k));
            // Shift every delivered bit up by k (slot i -> i + k).
            let mut shifted = vec![0u64; self.gen.len().div_ceil(64)];
            for (w, word) in self.delivered.iter().enumerate() {
                let mut word = *word;
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    let j = w * 64 + bit + k;
                    shifted[j / 64] |= 1 << (j % 64);
                }
            }
            self.delivered = shifted;
            self.seq_base = seq;
            return 0;
        }
        let i = (seq - self.seq_base) as usize;
        if i >= self.gen.len() {
            self.gen.resize(i + 1, HOLE);
        }
        i
    }

    /// One-pass purge to generation times in `[start, end)`, with O(1)
    /// full-keep and full-drop fast paths off the lane's time bounds.
    /// Returns `(dropped_generated, dropped_delivered)`.
    fn purge(&mut self, start: SimTime, end: SimTime) -> (u64, u64) {
        if self.generated == 0 {
            if !self.gen.is_empty() {
                self.clear();
            }
            return (0, 0);
        }
        if self.min_gen >= start && self.max_gen < end {
            // Full keep: nothing to scan; release slack capacity so the
            // footprint reflects live state.
            self.gen.shrink_to_fit();
            self.delivered.shrink_to_fit();
            return (0, 0);
        }
        if self.max_gen < start || self.min_gen >= end {
            let dropped = (self.generated, self.delivered_count);
            self.clear();
            return dropped;
        }
        // General case: one pass marking out-of-window slots as holes,
        // then trim the hole margins (advancing seq_base) and rebuild
        // the bitset over the kept range.
        let mut dropped_gen = 0u64;
        let mut dropped_del = 0u64;
        let (mut min_gen, mut max_gen) = Self::new_empty_bounds();
        let mut first_keep = usize::MAX;
        let mut last_keep = 0usize;
        for i in 0..self.gen.len() {
            let t = self.gen[i];
            if t == HOLE {
                continue;
            }
            if t >= start && t < end {
                min_gen = min_gen.min(t);
                max_gen = max_gen.max(t);
                first_keep = first_keep.min(i);
                last_keep = i;
            } else {
                dropped_gen += 1;
                if bit_get(&self.delivered, i) {
                    dropped_del += 1;
                }
                self.gen[i] = HOLE;
            }
        }
        if first_keep == usize::MAX {
            self.clear();
            return (dropped_gen, dropped_del);
        }
        let len = last_keep - first_keep + 1;
        let mut kept_bits = vec![0u64; len.div_ceil(64)];
        let mut kept_del = 0u64;
        for i in first_keep..=last_keep {
            if self.gen[i] != HOLE && bit_get(&self.delivered, i) {
                let j = i - first_keep;
                kept_bits[j / 64] |= 1 << (j % 64);
                kept_del += 1;
            }
        }
        self.gen.copy_within(first_keep..=last_keep, 0);
        self.gen.truncate(len);
        self.gen.shrink_to_fit();
        self.delivered = kept_bits;
        self.seq_base += first_keep as u64;
        self.generated -= dropped_gen;
        self.delivered_count = kept_del;
        self.min_gen = min_gen;
        self.max_gen = max_gen;
        (dropped_gen, dropped_del)
    }

    fn clear(&mut self) {
        self.seq_base = 0;
        self.gen = Vec::new();
        self.delivered = Vec::new();
        self.generated = 0;
        self.delivered_count = 0;
        (self.min_gen, self.max_gen) = Self::new_empty_bounds();
    }
}

// -------------------------------------------------------------- tracker

/// Follows application packets from generation to delivery at a DODAG
/// root.
///
/// A *measurement window* separates warm-up (network formation, schedule
/// convergence) from the steady state the paper measures: packets
/// generated outside the window are still simulated but not counted.
///
/// Packet ids must be origin-keyed (`origin << 48 | seq`, as
/// `Network::apply_upkeep` assigns them): the high bits select the
/// origin's lane, the low bits its column slot. Generation times must be
/// strictly below [`SimTime::MAX`] (the column's hole sentinel).
///
/// Delay/hop statistics are streaming ([`DelayStats`]) and cannot be
/// re-derived for purged packets: when [`PacketTracker::set_window`]
/// drops a *delivered* packet, they reset to empty. The engine's
/// warm-up → `start_measurement` → `finish_measurement` pattern only
/// purges before any measured delivery exists, so reported statistics
/// are exact.
///
/// # Example
///
/// ```
/// use gtt_metrics::PacketTracker;
/// use gtt_net::{NodeId, PacketId};
/// use gtt_sim::SimTime;
///
/// let origin = NodeId::new(3);
/// let id = PacketId::new((origin.index() as u64) << 48);
/// let mut t = PacketTracker::new();
/// t.set_window(SimTime::ZERO, SimTime::from_secs(60));
/// t.record_generated(id, origin, SimTime::from_secs(1));
/// t.record_delivered(id, SimTime::from_secs(2), 2);
/// assert_eq!(t.generated(), 1);
/// assert_eq!(t.delivered(), 1);
/// assert!((t.pdr_percent() - 100.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PacketTracker {
    window_start: Option<SimTime>,
    window_end: Option<SimTime>,
    /// Origin index of `lanes[0]` (offset-anchored dense vector).
    first_track: u64,
    lanes: Vec<OriginLane>,
    generated_total: u64,
    delivered_total: u64,
    duplicates: u64,
    stray_deliveries: u64,
    delay: DelayStats,
}

/// Memory accounting for a [`PacketTracker`] (see
/// [`PacketTracker::footprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackerFootprint {
    /// Total retained heap + inline bytes (lane headers, generation-time
    /// columns, delivered bitsets), computed from vector capacities.
    pub bytes: usize,
    /// Allocated origin lanes.
    pub lanes: usize,
    /// Packets currently tracked (generated inside the window).
    pub tracked: u64,
    /// Retained column slots, holes included (`>= tracked`).
    pub live: u64,
}

impl TrackerFootprint {
    /// Bytes per tracked packet — the city-scale memory gate's metric.
    pub fn bytes_per_tracked(&self) -> f64 {
        self.bytes as f64 / self.tracked.max(1) as f64
    }
}

impl PacketTracker {
    /// Creates a tracker counting everything (no window).
    pub fn new() -> Self {
        PacketTracker::default()
    }

    /// Restricts accounting to packets generated in `[start, end)`.
    ///
    /// Packets already recorded outside the window are purged (with
    /// their deliveries), so the usual warm-up → `set_window` → measure
    /// sequence never leaks formation-phase traffic into the report.
    /// The purge is a single pass per lane with O(1) full-keep /
    /// full-drop fast paths, so repeated warm-up → window cycles never
    /// re-scan delivered state quadratically. If any *delivered* packet
    /// is purged, the streaming delay statistics reset (see the type
    /// docs).
    ///
    /// # Panics
    ///
    /// Panics if `end <= start`.
    pub fn set_window(&mut self, start: SimTime, end: SimTime) {
        assert!(end > start, "measurement window must be non-empty");
        self.window_start = Some(start);
        self.window_end = Some(end);
        let mut dropped_gen = 0u64;
        let mut dropped_del = 0u64;
        for lane in &mut self.lanes {
            let (g, d) = lane.purge(start, end);
            dropped_gen += g;
            dropped_del += d;
        }
        self.generated_total -= dropped_gen;
        self.delivered_total -= dropped_del;
        if dropped_del > 0 {
            self.delay = DelayStats::default();
        }
        self.lanes.shrink_to_fit();
    }

    /// The measurement window length, if configured.
    pub fn window(&self) -> Option<SimDuration> {
        match (self.window_start, self.window_end) {
            (Some(s), Some(e)) => Some(e - s),
            _ => None,
        }
    }

    fn in_window(&self, t: SimTime) -> bool {
        match (self.window_start, self.window_end) {
            (Some(s), Some(e)) => t >= s && t < e,
            _ => true,
        }
    }

    fn lane_index(&self, track: u64) -> Option<usize> {
        if self.lanes.is_empty() || track < self.first_track {
            return None;
        }
        let i = (track - self.first_track) as usize;
        (i < self.lanes.len()).then_some(i)
    }

    fn lane_for(&mut self, track: u64) -> &mut OriginLane {
        if self.lanes.is_empty() {
            self.first_track = track;
            self.lanes.push(OriginLane::default());
        } else if track < self.first_track {
            let k = (self.first_track - track) as usize;
            self.lanes
                .splice(0..0, (0..k).map(|_| OriginLane::default()));
            self.first_track = track;
        } else {
            let i = (track - self.first_track) as usize;
            if i >= self.lanes.len() {
                self.lanes.resize_with(i + 1, OriginLane::default);
            }
        }
        let i = (track - self.first_track) as usize;
        &mut self.lanes[i]
    }

    /// Records a packet generated at `origin` — O(1).
    ///
    /// `origin` must match the id's high bits (debug-asserted); the lane
    /// is selected from the id so generic callers cannot desynchronize
    /// the two. Re-recording an already-tracked id updates its
    /// generation time without double-counting.
    pub fn record_generated(&mut self, id: PacketId, origin: NodeId, now: SimTime) {
        let (track, seq) = split_id(id);
        debug_assert_eq!(
            track,
            origin.index() as u64,
            "packet id origin bits must match the origin node"
        );
        debug_assert!(now < SimTime::MAX, "generation time must be below MAX");
        if !self.in_window(now) {
            return;
        }
        let lane = self.lane_for(track);
        let slot = lane.slot_for(seq);
        let fresh = lane.gen[slot] == HOLE;
        if fresh {
            lane.generated += 1;
        }
        lane.gen[slot] = now;
        lane.min_gen = lane.min_gen.min(now);
        lane.max_gen = lane.max_gen.max(now);
        if fresh {
            self.generated_total += 1;
        }
    }

    /// Records a packet delivered to a root after `hops` link-layer
    /// hops — O(1).
    ///
    /// Deliveries of untracked packets (generated outside the window) are
    /// counted as strays; duplicate deliveries are counted separately and
    /// do not inflate PDR.
    pub fn record_delivered(&mut self, id: PacketId, now: SimTime, hops: u8) {
        let (track, seq) = split_id(id);
        let Some(li) = self.lane_index(track) else {
            self.stray_deliveries += 1;
            return;
        };
        let lane = &mut self.lanes[li];
        if lane.gen.is_empty() || seq < lane.seq_base {
            self.stray_deliveries += 1;
            return;
        }
        let i = (seq - lane.seq_base) as usize;
        if i >= lane.gen.len() || lane.gen[i] == HOLE {
            self.stray_deliveries += 1;
            return;
        }
        if bit_get(&lane.delivered, i) {
            self.duplicates += 1;
            return;
        }
        bit_set(&mut lane.delivered, i);
        lane.delivered_count += 1;
        self.delivered_total += 1;
        self.delay.record(now.saturating_since(lane.gen[i]), hops);
    }

    /// Packets generated inside the window.
    pub fn generated(&self) -> u64 {
        self.generated_total
    }

    /// Tracked packets delivered to a root.
    pub fn delivered(&self) -> u64 {
        self.delivered_total
    }

    /// Tracked packets never delivered.
    pub fn lost(&self) -> u64 {
        self.generated_total - self.delivered_total
    }

    /// Duplicate root deliveries observed.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Deliveries of packets generated outside the window.
    pub fn stray_deliveries(&self) -> u64 {
        self.stray_deliveries
    }

    /// Packet delivery ratio in percent (100 when nothing was generated).
    pub fn pdr_percent(&self) -> f64 {
        if self.generated_total == 0 {
            return 100.0;
        }
        100.0 * self.delivered_total as f64 / self.generated_total as f64
    }

    /// The streaming delay/hop statistics over delivered packets.
    pub fn delay_stats(&self) -> &DelayStats {
        &self.delay
    }

    /// Mean end-to-end delay of delivered packets, in milliseconds.
    pub fn mean_delay_ms(&self) -> f64 {
        self.delay.mean_ms()
    }

    /// Mean hop count of delivered packets.
    pub fn mean_hops(&self) -> f64 {
        self.delay.mean_hops()
    }

    /// Lost packets per minute of measurement window.
    ///
    /// # Panics
    ///
    /// Panics if no window was configured (rate metrics need a duration).
    pub fn loss_per_minute(&self) -> f64 {
        let w = self.window().expect("loss_per_minute needs a window");
        self.lost() as f64 / (w.as_secs_f64() / 60.0)
    }

    /// Delivered packets per minute of measurement window (throughput).
    ///
    /// # Panics
    ///
    /// Panics if no window was configured.
    pub fn received_per_minute(&self) -> f64 {
        let w = self.window().expect("received_per_minute needs a window");
        self.delivered() as f64 / (w.as_secs_f64() / 60.0)
    }

    /// Per-origin `(generated, delivered)` counts — O(1).
    pub fn origin_stats(&self, origin: NodeId) -> (u64, u64) {
        match self.lane_index(origin.index() as u64) {
            Some(i) => {
                let lane = &self.lanes[i];
                (lane.generated, lane.delivered_count)
            }
            None => (0, 0),
        }
    }

    /// Per-origin delivery counts (diagnostics: spotting starved nodes).
    /// O(lanes), one entry per origin with at least one delivery.
    pub fn delivered_by_origin(&self) -> BTreeMap<NodeId, u64> {
        self.origin_counts(|lane| lane.delivered_count)
    }

    /// Per-origin generation counts. O(lanes).
    pub fn generated_by_origin(&self) -> BTreeMap<NodeId, u64> {
        self.origin_counts(|lane| lane.generated)
    }

    fn origin_counts(&self, count: impl Fn(&OriginLane) -> u64) -> BTreeMap<NodeId, u64> {
        let mut map = BTreeMap::new();
        for (i, lane) in self.lanes.iter().enumerate() {
            let n = count(lane);
            if n > 0 {
                map.insert(NodeId::from_index(self.first_track as usize + i), n);
            }
        }
        map
    }

    /// Current memory accounting, from vector capacities. Measure after
    /// `finish_measurement` (whose purge releases slack capacity) for
    /// the steady-state figure the city-10k gate checks.
    pub fn footprint(&self) -> TrackerFootprint {
        use std::mem::size_of;
        let mut bytes =
            size_of::<PacketTracker>() + self.lanes.capacity() * size_of::<OriginLane>();
        let mut live = 0u64;
        for lane in &self.lanes {
            bytes += lane.gen.capacity() * size_of::<SimTime>();
            bytes += lane.delivered.capacity() * size_of::<u64>();
            live += lane.gen.len() as u64;
        }
        TrackerFootprint {
            bytes,
            lanes: self.lanes.len(),
            tracked: self.generated_total,
            live,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Origin-keyed id, as the engine assigns them.
    fn id(origin: u16, seq: u64) -> PacketId {
        PacketId::new((u64::from(origin) << 48) | seq)
    }

    #[test]
    fn pdr_and_loss_accounting() {
        let mut t = PacketTracker::new();
        t.set_window(SimTime::ZERO, SimTime::from_secs(60));
        for i in 0..10 {
            t.record_generated(id(1, i), NodeId::new(1), SimTime::from_secs(i));
        }
        for i in 0..7 {
            t.record_delivered(id(1, i), SimTime::from_secs(i + 1), 2);
        }
        assert_eq!(t.generated(), 10);
        assert_eq!(t.delivered(), 7);
        assert_eq!(t.lost(), 3);
        assert!((t.pdr_percent() - 70.0).abs() < 1e-9);
        assert!((t.loss_per_minute() - 3.0).abs() < 1e-9);
        assert!((t.received_per_minute() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn delay_is_averaged_over_delivered_only() {
        let mut t = PacketTracker::new();
        t.record_generated(id(1, 0), NodeId::new(1), SimTime::from_millis(0));
        t.record_generated(id(1, 1), NodeId::new(1), SimTime::from_millis(0));
        t.record_generated(id(1, 2), NodeId::new(1), SimTime::from_millis(0));
        t.record_delivered(id(1, 0), SimTime::from_millis(100), 1);
        t.record_delivered(id(1, 1), SimTime::from_millis(300), 3);
        // seq 2 lost.
        assert!((t.mean_delay_ms() - 200.0).abs() < 1e-9);
        assert!((t.mean_hops() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn delay_stats_min_max_and_percentiles() {
        let mut t = PacketTracker::new();
        for i in 0..100u64 {
            t.record_generated(id(2, i), NodeId::new(2), SimTime::ZERO);
            t.record_delivered(id(2, i), SimTime::from_millis(i + 1), 1);
        }
        let d = t.delay_stats();
        assert_eq!(d.count(), 100);
        assert_eq!(d.min_ms(), Some(1.0));
        assert_eq!(d.max_ms(), Some(100.0));
        // The histogram reports the upper edge of the matched bin:
        // within 25% above the true percentile.
        let p50 = d.percentile_ms(50.0);
        assert!((50.0..=63.0).contains(&p50), "p50 = {p50}");
        let p99 = d.percentile_ms(99.0);
        assert!((99.0..=124.0).contains(&p99), "p99 = {p99}");
        assert_eq!(d.bins().iter().sum::<u64>(), 100);
    }

    #[test]
    fn warmup_packets_excluded() {
        let mut t = PacketTracker::new();
        t.set_window(SimTime::from_secs(10), SimTime::from_secs(70));
        t.record_generated(id(1, 0), NodeId::new(1), SimTime::from_secs(5)); // warm-up
        t.record_generated(id(1, 1), NodeId::new(1), SimTime::from_secs(15));
        t.record_delivered(id(1, 0), SimTime::from_secs(16), 1); // stray
        t.record_delivered(id(1, 1), SimTime::from_secs(16), 1);
        assert_eq!(t.generated(), 1);
        assert_eq!(t.delivered(), 1);
        assert_eq!(t.stray_deliveries(), 1);
    }

    #[test]
    fn set_window_purges_previously_recorded_warmup() {
        // The engine records from t=0 and only then brackets the window:
        // pre-window packets (and their deliveries) must be dropped.
        let mut t = PacketTracker::new();
        t.record_generated(id(1, 0), NodeId::new(1), SimTime::from_secs(5));
        t.record_delivered(id(1, 0), SimTime::from_secs(6), 1);
        t.record_generated(id(1, 1), NodeId::new(1), SimTime::from_secs(20));
        t.record_delivered(id(1, 1), SimTime::from_secs(21), 1);
        t.set_window(SimTime::from_secs(10), SimTime::from_secs(70));
        assert_eq!(t.generated(), 1, "warm-up packet purged");
        assert_eq!(t.delivered(), 1, "warm-up delivery purged");
        // Re-tightening the window later (finish_measurement) keeps
        // in-window packets.
        t.set_window(SimTime::from_secs(10), SimTime::from_secs(30));
        assert_eq!(t.generated(), 1);
        // A delivery for the purged packet is a stray now.
        t.record_delivered(id(1, 0), SimTime::from_secs(25), 1);
        assert_eq!(t.stray_deliveries(), 1);
    }

    #[test]
    fn purge_drops_out_of_window_middle_and_keeps_margins_tight() {
        let mut t = PacketTracker::new();
        // Seqs 0..6 at 0, 10, 20, 30, 40, 50 s.
        for i in 0..6u64 {
            t.record_generated(id(4, i), NodeId::new(4), SimTime::from_secs(i * 10));
        }
        t.record_delivered(id(4, 2), SimTime::from_secs(21), 1);
        t.record_delivered(id(4, 5), SimTime::from_secs(51), 1);
        // Window [15 s, 45 s): keeps seqs 2 and 3 + 4, drops 0, 1, 5 —
        // the delivered seq 5 drop resets the streaming delay stats.
        t.set_window(SimTime::from_secs(15), SimTime::from_secs(45));
        assert_eq!(t.generated(), 3);
        assert_eq!(t.delivered(), 1);
        assert_eq!(t.delay_stats().count(), 0, "delivered drop resets stats");
        // The surviving delivered bit still guards duplicates.
        t.record_delivered(id(4, 2), SimTime::from_secs(30), 1);
        assert_eq!(t.duplicates(), 1);
        // Trimmed margins: deliveries for the trimmed seqs are strays.
        t.record_delivered(id(4, 0), SimTime::from_secs(30), 1);
        assert_eq!(t.stray_deliveries(), 1);
        assert_eq!(t.footprint().live, 3, "margins trimmed to seqs 2..=4");
    }

    #[test]
    fn duplicates_do_not_inflate_pdr() {
        let mut t = PacketTracker::new();
        t.record_generated(id(1, 0), NodeId::new(1), SimTime::ZERO);
        t.record_delivered(id(1, 0), SimTime::from_secs(1), 1);
        t.record_delivered(id(1, 0), SimTime::from_secs(2), 1);
        assert_eq!(t.delivered(), 1);
        assert_eq!(t.duplicates(), 1);
        assert!((t.pdr_percent() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn per_origin_breakdowns() {
        let mut t = PacketTracker::new();
        t.record_generated(id(1, 0), NodeId::new(1), SimTime::ZERO);
        t.record_generated(id(2, 0), NodeId::new(2), SimTime::ZERO);
        t.record_generated(id(2, 1), NodeId::new(2), SimTime::ZERO);
        t.record_delivered(id(2, 1), SimTime::from_secs(1), 1);
        assert_eq!(t.generated_by_origin()[&NodeId::new(2)], 2);
        assert_eq!(t.delivered_by_origin()[&NodeId::new(2)], 1);
        assert!(!t.delivered_by_origin().contains_key(&NodeId::new(1)));
        assert_eq!(t.origin_stats(NodeId::new(1)), (1, 0));
        assert_eq!(t.origin_stats(NodeId::new(2)), (2, 1));
        assert_eq!(t.origin_stats(NodeId::new(7)), (0, 0));
    }

    #[test]
    fn out_of_order_seqs_grow_lane_front() {
        // Generic (non-engine) use: seqs arrive out of order, so the
        // lane must grow downward and keep the delivered bits aligned.
        let mut t = PacketTracker::new();
        t.record_generated(id(3, 7), NodeId::new(3), SimTime::from_secs(1));
        t.record_delivered(id(3, 7), SimTime::from_secs(2), 1);
        t.record_generated(id(3, 2), NodeId::new(3), SimTime::from_secs(3));
        t.record_generated(id(3, 9), NodeId::new(3), SimTime::from_secs(4));
        assert_eq!(t.generated(), 3);
        assert_eq!(t.delivered(), 1);
        // Seq 7's delivered bit survived the front growth.
        t.record_delivered(id(3, 7), SimTime::from_secs(5), 1);
        assert_eq!(t.duplicates(), 1);
        t.record_delivered(id(3, 2), SimTime::from_secs(6), 1);
        assert_eq!(t.delivered(), 2);
        // Seq 5 was never generated: a hole, so its delivery is a stray.
        t.record_delivered(id(3, 5), SimTime::from_secs(7), 1);
        assert_eq!(t.stray_deliveries(), 1);
    }

    #[test]
    fn footprint_counts_lanes_and_bytes() {
        let mut t = PacketTracker::new();
        assert_eq!(t.footprint().tracked, 0);
        for s in 0..2_000u64 {
            t.record_generated(id(2, s), NodeId::new(2), SimTime::from_secs(s));
        }
        for s in 0..1_000u64 {
            t.record_delivered(id(2, s), SimTime::from_secs(s + 1), 1);
        }
        t.set_window(SimTime::ZERO, SimTime::from_secs(4_000));
        let fp = t.footprint();
        assert_eq!(fp.lanes, 1);
        assert_eq!(fp.tracked, 2_000);
        assert_eq!(fp.live, 2_000);
        // 8-byte times + 1 delivered bit per packet, plus fixed tracker +
        // lane headers (the inline histogram is ~2 KB): once those
        // amortize, well under the 12 bytes/packet the city gate demands.
        assert!(fp.bytes >= 2_000 * 8 + 2_000 / 8);
        assert!(fp.bytes_per_tracked() < 12.0, "{}", fp.bytes_per_tracked());
    }

    #[test]
    fn empty_tracker_defaults() {
        let t = PacketTracker::new();
        assert_eq!(t.pdr_percent(), 100.0);
        assert_eq!(t.mean_delay_ms(), 0.0);
        assert_eq!(t.mean_hops(), 0.0);
        assert_eq!(t.delay_stats().percentile_ms(99.0), 0.0);
        assert_eq!(t.delay_stats().min_ms(), None);
    }

    #[test]
    fn delay_bins_cover_the_range_monotonically() {
        // Every microsecond value lands in a bin whose upper edge is at
        // most 25% above it, and bin indices are monotone in the delay.
        let mut last = 0usize;
        for us in [0u64, 1, 7, 8, 63, 64, 1_000, 15_000, 3_000_000, 300_000_000] {
            let b = delay_bin(us);
            assert!(b >= last, "bin order at {us}");
            last = b;
            let upper = bin_upper_us(b);
            assert!(upper > us, "upper edge at {us}");
            assert!(
                upper as f64 <= (us.max(1) as f64) * 1.25 + 1.0,
                "edge slack at {us}"
            );
        }
        assert!(delay_bin(u64::MAX) < DELAY_BINS);
    }

    #[test]
    #[should_panic(expected = "needs a window")]
    fn rate_without_window_panics() {
        let t = PacketTracker::new();
        let _ = t.loss_per_minute();
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        let mut t = PacketTracker::new();
        t.set_window(SimTime::from_secs(5), SimTime::from_secs(5));
    }
}
