//! End-to-end packet tracking.
//!
//! The tracker exploits the engine's origin-keyed packet ids
//! (`origin << 48 | seq`, with `seq` consecutive per origin): instead of
//! a map keyed by packet id, it keeps one lane per origin in a dense
//! `Vec` indexed by the origin, and each lane holds the sequence number
//! of its first tracked packet, a generated and a delivered count, and a
//! delivered *bitset* (one bit per packet). A delivery brings its
//! frame's generation time along, so the delay needs no stored copy of
//! it. Both record paths are O(1) — no tree or hash lookup — and memory
//! is one bit per tracked packet plus a fixed per-lane header.
//!
//! Delay and hop statistics are *streaming* ([`DelayStats`]): integer
//! nanosecond sums in `u128`, min/max, and a fixed-bin histogram for
//! percentiles. Integer sums are summation-order-independent, which is
//! what keeps `NetworkReport`s byte-identical between the event core and
//! the naive-step oracle (see DETERMINISM.md).

use gtt_net::{NodeId, PacketId};
use gtt_sim::{SimDuration, SimTime};

/// Bits of a [`PacketId`] holding the per-origin sequence number; the
/// remaining high bits are the origin's node index.
const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

fn split_id(id: PacketId) -> (usize, u64) {
    ((id.raw() >> SEQ_BITS) as usize, id.raw() & SEQ_MASK)
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

/// Per-origin packet state: the lane tracks sequence numbers
/// `first_seq..first_seq + generated`, and bit `seq - first_seq` of
/// `delivered_bits` is set once that packet reached a root.
#[derive(Debug, Clone, Default, PartialEq)]
struct OriginLane {
    first_seq: u64,
    generated: u64,
    delivered: u64,
    /// `generated.div_ceil(64)` words.
    delivered_bits: Vec<u64>,
}

// -------------------------------------------------------------- tracker

/// Follows application packets from generation to delivery at a DODAG
/// root.
///
/// The tracker has no window of its own: the engine records a packet's
/// generation only while its measurement window is open, and starts
/// every window with a fresh tracker. Per origin, the recorded sequence
/// numbers must be consecutive (`record_generated` asserts it), as the
/// engine's are. A delivery of a packet the tracker never recorded
/// (generated before the window, or never) counts as a stray.
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
/// let mut t = PacketTracker::new(4);
/// t.record_generated(id);
/// t.record_delivered(id, SimTime::from_secs(1), SimTime::from_secs(2), 2);
/// assert_eq!(t.generated(), 1);
/// assert_eq!(t.delivered(), 1);
/// assert!((t.pdr_percent() - 100.0).abs() < 1e-9);
/// assert!((t.mean_delay_ms() - 1_000.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PacketTracker {
    /// One lane per origin, indexed by the origin's node index.
    lanes: Vec<OriginLane>,
    generated: u64,
    delivered: u64,
    duplicates: u64,
    stray_deliveries: u64,
    delay: DelayStats,
}

/// Memory accounting for a [`PacketTracker`] (see
/// [`PacketTracker::footprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackerFootprint {
    /// Total retained heap + inline bytes (lane headers and delivered
    /// bitsets), computed from vector capacities.
    pub bytes: usize,
    /// Origin lanes.
    pub lanes: usize,
    /// Packets tracked (generated inside the window).
    pub tracked: u64,
}

impl TrackerFootprint {
    /// Bytes per tracked packet — the city-scale memory gate's metric.
    pub fn bytes_per_tracked(&self) -> f64 {
        self.bytes as f64 / self.tracked.max(1) as f64
    }
}

impl PacketTracker {
    /// Creates an empty tracker for the origins `0..origins`.
    pub fn new(origins: usize) -> Self {
        PacketTracker {
            lanes: vec![OriginLane::default(); origins],
            ..PacketTracker::default()
        }
    }

    /// Records a generated packet — O(1).
    ///
    /// # Panics
    ///
    /// Panics if the id's origin is outside the tracker's origins, or if
    /// its sequence number does not follow the origin's last recorded
    /// one.
    pub fn record_generated(&mut self, id: PacketId) {
        let (origin, seq) = split_id(id);
        let lane = &mut self.lanes[origin];
        if lane.generated == 0 {
            lane.first_seq = seq;
        }
        assert_eq!(
            seq,
            lane.first_seq + lane.generated,
            "origin {origin}: packet sequence numbers must be consecutive"
        );
        if lane.generated % 64 == 0 {
            // Exact doubling from one word: an origin with a few dozen
            // packets holds 8 bytes, not `Vec`'s four-word minimum.
            let words = &mut lane.delivered_bits;
            if words.len() == words.capacity() {
                words.reserve_exact(words.len().max(1));
            }
            words.push(0);
        }
        lane.generated += 1;
        self.generated += 1;
    }

    /// Records a packet generated at `generated_at` and delivered to a
    /// root at `now` after `hops` link-layer hops — O(1).
    ///
    /// Deliveries of packets the tracker never recorded are counted as
    /// strays; duplicate deliveries are counted separately and do not
    /// inflate PDR.
    pub fn record_delivered(
        &mut self,
        id: PacketId,
        generated_at: SimTime,
        now: SimTime,
        hops: u8,
    ) {
        let (origin, seq) = split_id(id);
        let Some(lane) = self
            .lanes
            .get_mut(origin)
            .filter(|lane| seq >= lane.first_seq && seq - lane.first_seq < lane.generated)
        else {
            self.stray_deliveries += 1;
            return;
        };
        let k = seq - lane.first_seq;
        let (word, bit) = (&mut lane.delivered_bits[(k / 64) as usize], 1 << (k % 64));
        if *word & bit != 0 {
            self.duplicates += 1;
            return;
        }
        *word |= bit;
        lane.delivered += 1;
        self.delivered += 1;
        self.delay.record(now.saturating_since(generated_at), hops);
    }

    /// Packets generated inside the window.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Tracked packets delivered to a root.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Tracked packets never delivered.
    pub fn lost(&self) -> u64 {
        self.generated - self.delivered
    }

    /// Duplicate root deliveries observed.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Deliveries of packets the tracker never recorded.
    pub fn stray_deliveries(&self) -> u64 {
        self.stray_deliveries
    }

    /// Packet delivery ratio in percent (100 when nothing was generated).
    pub fn pdr_percent(&self) -> f64 {
        if self.generated == 0 {
            return 100.0;
        }
        100.0 * self.delivered as f64 / self.generated as f64
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

    /// Per-origin `(generated, delivered)` counts — O(1); `(0, 0)` for
    /// an origin outside the tracker.
    pub fn origin_stats(&self, origin: NodeId) -> (u64, u64) {
        self.lanes
            .get(origin.index())
            .map_or((0, 0), |lane| (lane.generated, lane.delivered))
    }

    /// Current memory accounting, from vector capacities.
    pub fn footprint(&self) -> TrackerFootprint {
        use std::mem::size_of;
        let bitsets: usize = self
            .lanes
            .iter()
            .map(|lane| lane.delivered_bits.capacity() * size_of::<u64>())
            .sum();
        TrackerFootprint {
            bytes: size_of::<PacketTracker>()
                + self.lanes.capacity() * size_of::<OriginLane>()
                + bitsets,
            lanes: self.lanes.len(),
            tracked: self.generated,
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

    /// Delivers `id`, generated at `gen_ms`, at `rx_ms`.
    fn deliver(t: &mut PacketTracker, id: PacketId, gen_ms: u64, rx_ms: u64, hops: u8) {
        t.record_delivered(
            id,
            SimTime::from_millis(gen_ms),
            SimTime::from_millis(rx_ms),
            hops,
        );
    }

    #[test]
    fn pdr_and_loss_accounting() {
        let mut t = PacketTracker::new(2);
        for i in 0..10 {
            t.record_generated(id(1, i));
        }
        for i in 0..7 {
            deliver(&mut t, id(1, i), i * 1_000, (i + 1) * 1_000, 2);
        }
        assert_eq!(t.generated(), 10);
        assert_eq!(t.delivered(), 7);
        assert_eq!(t.lost(), 3);
        assert!((t.pdr_percent() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn delay_is_averaged_over_delivered_only() {
        let mut t = PacketTracker::new(2);
        t.record_generated(id(1, 0));
        t.record_generated(id(1, 1));
        t.record_generated(id(1, 2));
        deliver(&mut t, id(1, 0), 0, 100, 1);
        deliver(&mut t, id(1, 1), 0, 300, 3);
        // seq 2 lost.
        assert!((t.mean_delay_ms() - 200.0).abs() < 1e-9);
        assert!((t.mean_hops() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn delay_stats_min_max_and_percentiles() {
        let mut t = PacketTracker::new(3);
        for i in 0..100u64 {
            t.record_generated(id(2, i));
            deliver(&mut t, id(2, i), 0, i + 1, 1);
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
        // Seq 0 was generated before the window opened, so the lane
        // starts at seq 1 and a delivery of seq 0 is a stray, like one
        // of a packet that was never generated.
        let mut t = PacketTracker::new(2);
        t.record_generated(id(1, 1));
        deliver(&mut t, id(1, 0), 5_000, 16_000, 1);
        deliver(&mut t, id(1, 1), 15_000, 16_000, 1);
        deliver(&mut t, id(1, 2), 15_000, 16_000, 1);
        deliver(&mut t, id(0, 0), 15_000, 16_000, 1);
        deliver(&mut t, id(7, 0), 15_000, 16_000, 1);
        assert_eq!(t.generated(), 1);
        assert_eq!(t.delivered(), 1);
        assert_eq!(t.stray_deliveries(), 4);
        assert_eq!(t.delay_stats().count(), 1);
    }

    #[test]
    fn duplicates_do_not_inflate_pdr() {
        let mut t = PacketTracker::new(2);
        t.record_generated(id(1, 0));
        deliver(&mut t, id(1, 0), 0, 1_000, 1);
        deliver(&mut t, id(1, 0), 0, 2_000, 1);
        assert_eq!(t.delivered(), 1);
        assert_eq!(t.duplicates(), 1);
        assert!((t.pdr_percent() - 100.0).abs() < 1e-9);
        assert_eq!(t.delay_stats().count(), 1);
    }

    #[test]
    fn per_origin_breakdowns() {
        let mut t = PacketTracker::new(3);
        t.record_generated(id(1, 0));
        t.record_generated(id(2, 0));
        t.record_generated(id(2, 1));
        deliver(&mut t, id(2, 1), 0, 1_000, 1);
        assert_eq!(t.origin_stats(NodeId::new(0)), (0, 0));
        assert_eq!(t.origin_stats(NodeId::new(1)), (1, 0));
        assert_eq!(t.origin_stats(NodeId::new(2)), (2, 1));
        assert_eq!(t.origin_stats(NodeId::new(7)), (0, 0));
    }

    #[test]
    #[should_panic(expected = "origin 3: packet sequence numbers must be consecutive")]
    fn non_consecutive_seq_is_rejected() {
        let mut t = PacketTracker::new(4);
        t.record_generated(id(3, 7));
        t.record_generated(id(3, 9));
    }

    #[test]
    fn footprint_counts_lanes_and_bytes() {
        let mut t = PacketTracker::new(3);
        assert_eq!(t.footprint().tracked, 0);
        for s in 0..2_000u64 {
            t.record_generated(id(2, s));
        }
        for s in 0..1_000u64 {
            deliver(&mut t, id(2, s), s, s + 1, 1);
        }
        let fp = t.footprint();
        assert_eq!(fp.lanes, 3);
        assert_eq!(fp.tracked, 2_000);
        // One delivered bit per packet (32 words, after exact doubling
        // from one), plus fixed tracker and lane headers (the inline
        // histogram is ~2 KB).
        let bits = 32 * 8;
        let fixed = std::mem::size_of::<PacketTracker>() + 3 * std::mem::size_of::<OriginLane>();
        assert_eq!(fp.bytes, fixed + bits);
        assert!(fp.bytes_per_tracked() < 3.0, "{}", fp.bytes_per_tracked());
    }

    #[test]
    fn empty_tracker_defaults() {
        let t = PacketTracker::default();
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
}
