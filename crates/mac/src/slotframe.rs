//! Slotframes and per-node schedules, plus the cyclic union the MAC
//! indexes its schedule with: per-frame chains of the slots holding a
//! selected cell, merged by exact cyclic arithmetic (CRT over the frame
//! lengths), honoring the slotframe priority rule (EB < common <
//! unicast). The MAC builds one over its Rx cells, which lets the
//! event-driven engine treat multi-slotframe schedules (Orchestra) as
//! passive listeners, and one over the shared Tx cells its backoff
//! window drains in.

use std::fmt;

use crate::asn::{Asn, SlotOffset};
use crate::cell::Cell;
use crate::hopping::ChannelOffset;

/// Identifier of a slotframe within a node's [`Schedule`].
///
/// Lower handles take priority when several slotframes schedule a cell in
/// the same slot — the rule Contiki-NG uses and that Orchestra's layered
/// slotframes (EB < common < unicast) rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SlotframeHandle(u8);

impl SlotframeHandle {
    /// Creates a handle.
    pub const fn new(raw: u8) -> Self {
        SlotframeHandle(raw)
    }

    /// Raw handle value.
    pub const fn raw(self) -> u8 {
        self.0
    }
}

impl fmt::Display for SlotframeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sf{}", self.0)
    }
}

/// A slotframe: a cyclic window of `length` timeslots holding cells.
///
/// # Example
///
/// ```
/// use gtt_mac::{Cell, ChannelOffset, Slotframe, SlotOffset};
/// use gtt_net::NodeId;
///
/// let mut sf = Slotframe::new(32);
/// sf.add(Cell::data_tx(SlotOffset::new(4), ChannelOffset::new(1), NodeId::new(0)));
/// assert_eq!(sf.cells_at(SlotOffset::new(4)).count(), 1);
/// assert_eq!(sf.cells_at(SlotOffset::new(5)).count(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slotframe {
    length: u16,
    cells: Vec<Cell>,
}

impl Slotframe {
    /// Creates an empty slotframe of `length` slots.
    ///
    /// # Panics
    ///
    /// Panics if `length` is zero.
    pub fn new(length: u16) -> Self {
        assert!(length > 0, "slotframe length must be positive");
        Slotframe {
            length,
            cells: Vec::new(),
        }
    }

    /// Slotframe length in slots.
    pub fn length(&self) -> u16 {
        self.length
    }

    /// All cells, in insertion order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Adds a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell's slot offset is outside the slotframe.
    pub fn add(&mut self, cell: Cell) {
        assert!(
            cell.slot.raw() < self.length,
            "cell slot {} outside slotframe of length {}",
            cell.slot,
            self.length
        );
        self.cells.push(cell);
    }

    /// Removes every cell matching `pred`; returns how many were removed.
    pub fn remove_where(&mut self, pred: impl Fn(&Cell) -> bool) -> usize {
        let before = self.cells.len();
        self.cells.retain(|c| !pred(c));
        before - self.cells.len()
    }

    /// Cells scheduled at `slot`, in insertion order.
    pub fn cells_at(&self, slot: SlotOffset) -> impl Iterator<Item = &Cell> {
        self.cells.iter().filter(move |c| c.slot == slot)
    }

    /// The slot offset this slotframe assigns to `asn`.
    pub fn slot_of(&self, asn: Asn) -> SlotOffset {
        asn.slot_offset(self.length)
    }

    /// The earliest slot at or after `from` holding a cell that satisfies
    /// `pred`, or `None` when no cell does.
    ///
    /// The slotframe is cyclic, so whenever at least one cell matches the
    /// answer is at most one slotframe length away.
    pub fn next_slot_matching(&self, from: Asn, pred: impl Fn(&Cell) -> bool) -> Option<Asn> {
        let len = self.length as u64;
        let from_offset = self.slot_of(from).raw() as u64;
        self.cells
            .iter()
            .filter(|c| pred(c))
            .map(|c| from + (c.slot.raw() as u64 + len - from_offset) % len)
            .min()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the slotframe holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// A node's full TSCH schedule: one or more prioritized slotframes.
///
/// GT-TSCH uses a single slotframe; Orchestra layers three. The schedule
/// answers the per-slot question "which cells are candidates right now?"
/// with slotframe priority preserved (lower handle first, then insertion
/// order within a slotframe).
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    frames: Vec<(SlotframeHandle, Slotframe)>,
    /// Bumped on every mutation path (including handing out `frame_mut`,
    /// conservatively). Cheap staleness check for caches derived from the
    /// schedule — see [`Schedule::version`].
    version: u64,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Monotonic mutation counter: changes whenever the schedule *may*
    /// have changed (cell or slotframe added/removed, or mutable frame
    /// access handed out). Consumers caching schedule-derived data (the
    /// MAC's wake tables) compare versions instead of diffing cells.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Adds a slotframe under `handle`, keeping handles sorted.
    ///
    /// # Panics
    ///
    /// Panics if `handle` is already present.
    pub fn add_slotframe(&mut self, handle: SlotframeHandle, frame: Slotframe) {
        assert!(
            self.frame(handle).is_none(),
            "slotframe handle {handle} already in use"
        );
        self.version += 1;
        self.frames.push((handle, frame));
        self.frames.sort_by_key(|(h, _)| *h);
    }

    /// Removes the slotframe under `handle`, returning it if present.
    pub fn remove_slotframe(&mut self, handle: SlotframeHandle) -> Option<Slotframe> {
        let idx = self.frames.iter().position(|(h, _)| *h == handle)?;
        self.version += 1;
        Some(self.frames.remove(idx).1)
    }

    /// The slotframe under `handle`.
    pub fn frame(&self, handle: SlotframeHandle) -> Option<&Slotframe> {
        self.frames
            .iter()
            .find(|(h, _)| *h == handle)
            .map(|(_, f)| f)
    }

    /// Mutable access to the slotframe under `handle`.
    ///
    /// Bumps [`Schedule::version`] even if the caller ends up not
    /// mutating — spurious cache rebuilds are cheap, stale caches are a
    /// correctness bug.
    pub fn frame_mut(&mut self, handle: SlotframeHandle) -> Option<&mut Slotframe> {
        self.version += 1;
        self.frames
            .iter_mut()
            .find(|(h, _)| *h == handle)
            .map(|(_, f)| f)
    }

    /// Iterates over `(handle, slotframe)` pairs in priority order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotframeHandle, &Slotframe)> {
        self.frames.iter().map(|(h, f)| (*h, f))
    }

    /// All candidate cells for `asn` in priority order
    /// (slotframe handle, then insertion order).
    pub fn cells_at(&self, asn: Asn) -> Vec<(SlotframeHandle, Cell)> {
        let mut out = Vec::new();
        self.cells_at_into(asn, &mut out);
        out
    }

    /// [`Schedule::cells_at`] into a caller-owned buffer (cleared first):
    /// the MAC's `plan_slot` runs this every active slot and reuses one
    /// scratch vector so the per-slot hot path does not allocate.
    pub fn cells_at_into(&self, asn: Asn, out: &mut Vec<(SlotframeHandle, Cell)>) {
        out.clear();
        for (handle, frame) in &self.frames {
            let slot = frame.slot_of(asn);
            out.extend(frame.cells_at(slot).map(|c| (*handle, *c)));
        }
    }

    /// The earliest slot at or after `from` in which *any* slotframe holds
    /// a cell satisfying `active`, or `None` when no cell in the whole
    /// schedule does.
    ///
    /// This is the schedule half of the MAC's
    /// [`next_active_asn`](crate::TschMac::next_active_asn) query: the
    /// caller supplies the per-cell relevance predicate (typically "could
    /// this cell make the radio turn on?"), the schedule does the cyclic
    /// arithmetic across slotframes of different lengths.
    pub fn next_active_asn(&self, from: Asn, active: impl Fn(&Cell) -> bool) -> Option<Asn> {
        self.frames
            .iter()
            .filter_map(|(_, f)| f.next_slot_matching(from, &active))
            .min()
    }

    /// Total number of cells across all slotframes.
    pub fn total_cells(&self) -> usize {
        self.frames.iter().map(|(_, f)| f.len()).sum()
    }

    /// Number of slotframes.
    pub fn num_slotframes(&self) -> usize {
        self.frames.len()
    }
}

/// One slotframe's *chain*: the sorted slot offsets at which the frame
/// holds a cell the union selects, each with the channel offset of the
/// first such cell there. For the listen union that is exactly the
/// listen cell [`plan_slot`](crate::TschMac::plan_slot) picks when no
/// transmission takes priority.
#[derive(Debug, Clone, Default)]
struct Chain {
    /// Slotframe length in slots.
    len: u64,
    /// `(slot offset, channel offset)`, sorted by offset, deduplicated.
    slots: Vec<(u64, ChannelOffset)>,
}

impl Chain {
    /// Refills the chain with the cells of `frame` that satisfy
    /// `selects`, reusing its buffer. Returns `true` when some offset
    /// holds more than one of them.
    fn refill(&mut self, frame: &Slotframe, selects: &impl Fn(&Cell) -> bool) -> bool {
        self.len = u64::from(frame.length());
        self.slots.clear();
        let mut stacked = false;
        for cell in frame.cells() {
            if selects(cell) {
                let off = u64::from(cell.slot.raw());
                // First selected cell per offset wins, like plan_slot.
                if self.slots.iter().any(|&(o, _)| o == off) {
                    stacked = true;
                } else {
                    self.slots.push((off, cell.channel_offset));
                }
            }
        }
        self.slots.sort_unstable_by_key(|&(o, _)| o);
        stacked
    }

    /// The channel offset of this chain's slot at `asn_raw`, if any.
    fn channel_offset_at(&self, asn_raw: u64) -> Option<ChannelOffset> {
        let off = asn_raw % self.len;
        self.slots
            .binary_search_by_key(&off, |&(o, _)| o)
            .ok()
            .map(|i| self.slots[i].1)
    }

    /// The first slot of this chain at or after `from`, with its channel
    /// offset: one modulo and one `partition_point`. Chains are
    /// non-empty by construction, so an answer always exists.
    fn next_at_or_after(&self, from: u64) -> (u64, ChannelOffset) {
        let off = from % self.len;
        let i = self.slots.partition_point(|&(o, _)| o < off);
        match self.slots.get(i) {
            Some(&(o, channel)) => (from + (o - off), channel),
            // Wrap: the first offset of the next slotframe cycle.
            None => {
                let (o, channel) = self.slots[0];
                (from + (self.len - off) + o, channel)
            }
        }
    }

    /// The `n`-th slot (counting from 1) of this chain at or after
    /// `from`, in closed form: the chain repeats its offsets every
    /// slotframe, so the answer is a whole number of cycles past one of
    /// them.
    fn nth_at_or_after(&self, from: u64, n: u64) -> u64 {
        let k = self.slots.len() as u64;
        let off = from % self.len;
        let index = self.slots.partition_point(|&(o, _)| o < off) as u64 + (n - 1);
        from - off + index / k * self.len + self.slots[(index % k) as usize].0
    }

    /// How many slots in `[from, to)` this chain holds. Pure cyclic
    /// arithmetic: O(log slots), no per-slot work.
    fn count_in(&self, from: u64, to: u64) -> u64 {
        if to <= from {
            return 0;
        }
        let k = self.slots.len() as u64;
        if k == 0 {
            return 0;
        }
        let len = self.len;
        let span = to - from;
        let offsets_below = |x: u64| self.slots.partition_point(|&(o, _)| o < x) as u64;
        let start = from % len;
        // Skipped ranges are usually shorter than one slotframe; keep the
        // hot path to a single modulo (above) and no division.
        let (full, rem) = if span < len {
            (0, span)
        } else {
            (span / len, span % len)
        };
        let end = start + rem;
        let partial = if end <= len {
            offsets_below(end) - offsets_below(start)
        } else {
            (k - offsets_below(start)) + offsets_below(end - len)
        };
        full * k + partial
    }
}

/// The cyclic union of a schedule's per-frame chains, in priority order:
/// the exact answer to "in which slots does some frame hold a selected
/// cell, and which cell comes first there?" without materializing the
/// `lcm`-length hyperperiod. The MAC keeps two, built with two cell
/// predicates: its listens (Rx cells), and the slots where its
/// shared-cell backoff consumes a unit (shared Tx cells with a matching
/// queued frame).
///
/// Counting over a range uses inclusion–exclusion across chains:
/// per-chain counts are closed-form ([`Chain::count_in`]), and every
/// cross-chain overlap is a simultaneous congruence solved exactly by the
/// Chinese Remainder Theorem over the (not necessarily coprime) frame
/// lengths. A union beyond [`MAX_CHAINS`] or [`MAX_TUPLE_WORK`] answers
/// nothing (see [`CyclicUnion::exact`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct CyclicUnion {
    /// Chains in slotframe priority order. The first `live` are the
    /// union's (frames without a selected cell add none); the rest are
    /// spare buffers, kept so that a rebuild does not allocate.
    chains: Vec<Chain>,
    live: usize,
    /// Precomputed inclusion–exclusion correction terms for cross-chain
    /// overlaps: `(sign, residue, modulus)` per solvable CRT system of a
    /// ≥2-chain subset. Solving the congruences once at build time keeps
    /// [`CyclicUnion::count_in`] — the engine's per-wake lazy-accounting
    /// hot path — to one closed-form count per chain plus one per
    /// overlap class, with no per-call gcd/inverse work.
    overlaps: Vec<(i8, u64, u64)>,
    /// Whether some chain offset holds more than one selected cell.
    stacked: bool,
    /// Whether the last build fit the caps.
    within_caps: bool,
}

/// Inclusion–exclusion enumerates one CRT system per combination of one
/// offset per chain subset; a union whose combination count exceeds this
/// bound (or with more than [`MAX_CHAINS`] chains) is beyond the caps,
/// and the MAC wakes its node at every active slot instead. Orchestra's
/// three frames with a handful of cells each sit orders of magnitude
/// below both caps; only hand-built schedules reach them.
const MAX_TUPLE_WORK: u64 = 4096;
/// Chain-count cap: 2^4 − 1 = 15 subsets at most.
const MAX_CHAINS: usize = 4;

impl CyclicUnion {
    /// Rebuilds the union over the slotframes of `schedule`, in priority
    /// order, from the cells that satisfy `selects`. Refills the
    /// existing buffers, so once they have grown a rebuild does not
    /// allocate.
    pub(crate) fn rebuild(&mut self, schedule: &Schedule, selects: impl Fn(&Cell) -> bool) {
        self.live = 0;
        self.overlaps.clear();
        self.stacked = false;
        let mut tuple_work: u64 = 1;
        for (_, frame) in schedule.iter() {
            if self.live == self.chains.len() {
                // Grow by one: most unions hold one chain, and every
                // node keeps two unions.
                self.chains.reserve_exact(1);
                self.chains.push(Chain::default());
            }
            let chain = &mut self.chains[self.live];
            self.stacked |= chain.refill(frame, &selects);
            if chain.slots.is_empty() {
                continue;
            }
            tuple_work = tuple_work.saturating_mul(chain.slots.len() as u64 + 1);
            self.live += 1;
        }
        self.within_caps = self.live <= MAX_CHAINS && tuple_work <= MAX_TUPLE_WORK;
        if !self.within_caps {
            return;
        }
        // Pre-solve every ≥2-chain CRT system: counts run far more often
        // than rebuilds.
        let chains = &self.chains[..self.live];
        let overlaps = &mut self.overlaps;
        for mask in 1u32..1 << chains.len() {
            if mask.count_ones() < 2 {
                continue;
            }
            let sign: i8 = if mask.count_ones() % 2 == 1 { 1 } else { -1 };
            collect_crt_tuples(chains, mask, 0, 1, &mut |r, m| overlaps.push((sign, r, m)));
        }
    }

    /// The union, when its last build fit the caps; `None` when it is
    /// beyond them and its answers would not be exact.
    pub(crate) fn exact(&self) -> Option<&CyclicUnion> {
        self.within_caps.then_some(self)
    }

    /// The union's chains.
    fn live_chains(&self) -> &[Chain] {
        &self.chains[..self.live]
    }

    /// True for one chain with one selected cell per offset: no slot of
    /// the union holds two selected cells. (Several chains may still
    /// never coincide; this says nothing about them.)
    pub(crate) fn is_one_clean_chain(&self) -> bool {
        self.live == 1 && !self.stacked
    }

    /// The channel offset of the union's slot at `asn_raw`, or `None`
    /// when no chain holds it. The first chain in priority order wins,
    /// matching `plan_slot`'s candidate scan.
    pub(crate) fn channel_offset_at(&self, asn_raw: u64) -> Option<ChannelOffset> {
        self.live_chains()
            .iter()
            .find_map(|c| c.channel_offset_at(asn_raw))
    }

    /// The first slot of the union at or after `from`, with the channel
    /// offset of its first selected cell there (first chain in priority
    /// order wins on ties, matching [`CyclicUnion::channel_offset_at`]),
    /// or `None` for a union with no chains. One pass over the chains —
    /// this runs once per listen slot per probed node, the engine's
    /// densest recurring query.
    pub(crate) fn next_with_offset(&self, from: u64) -> Option<(u64, ChannelOffset)> {
        let mut best: Option<(u64, ChannelOffset)> = None;
        for chain in self.live_chains() {
            let next = chain.next_at_or_after(from);
            // Strictly-less keeps the earliest (priority-first) chain on
            // ties, matching the per-slot lookup's first-wins rule.
            if best.map_or(true, |(b, _)| next.0 < b) {
                best = Some(next);
            }
        }
        best
    }

    /// The `n`-th slot (counting from 1) of the union at or after
    /// `from`, or `None` for a union with no chains: in closed form for
    /// one chain, by stepping through next occurrences otherwise.
    pub(crate) fn nth_at_or_after(&self, from: u64, n: u64) -> Option<u64> {
        debug_assert!(n >= 1, "slots are counted from 1");
        match self.live_chains() {
            [] => None,
            [chain] => Some(chain.nth_at_or_after(from, n)),
            _ => {
                let mut at = from;
                for _ in 1..n {
                    at = self.next_with_offset(at)?.0 + 1;
                }
                self.next_with_offset(at).map(|(slot, _)| slot)
            }
        }
    }

    /// Exact number of slots in `[from, to)` held by at least one chain:
    /// inclusion–exclusion with the single-chain terms in closed form and
    /// the pre-solved cross-chain overlap classes from build time. Chains
    /// within a subset contribute one CRT system per offset tuple;
    /// offsets within one chain are disjoint residues of the same
    /// modulus, so no finer splitting is needed.
    pub(crate) fn count_in(&self, from: u64, to: u64) -> u64 {
        if to <= from {
            return 0;
        }
        if to == from + 1 {
            // Frequently-woken nodes settle one slot at a time; a single
            // membership probe beats the inclusion–exclusion sums.
            return u64::from(self.channel_offset_at(from).is_some());
        }
        let singles: u64 = self
            .live_chains()
            .iter()
            .map(|c| c.count_in(from, to))
            .sum();
        let mut correction: i64 = 0;
        for &(sign, r, m) in &self.overlaps {
            correction += i64::from(sign) * count_congruent(from, to, r, m) as i64;
        }
        let total = singles as i64 + correction;
        debug_assert!(total >= 0, "inclusion-exclusion went negative");
        total as u64
    }
}

/// Walks every combination of one offset per chain indexed by a set bit
/// of `mask`, calling `out(r, m)` for each solvable simultaneous
/// congruence system — the build-time half of the inclusion–exclusion in
/// [`CyclicUnion::count_in`].
fn collect_crt_tuples(chains: &[Chain], mask: u32, r: u64, m: u64, out: &mut impl FnMut(u64, u64)) {
    if mask == 0 {
        out(r, m);
        return;
    }
    let i = mask.trailing_zeros() as usize;
    let rest = mask & (mask - 1);
    let chain = &chains[i];
    for &(offset, _) in &chain.slots {
        if let Some((r2, m2)) = crt_combine(r, m, offset, chain.len) {
            collect_crt_tuples(chains, rest, r2, m2, out);
        }
    }
}

/// Number of `x` in `[from, to)` with `x ≡ r (mod m)` (`r < m`).
pub(crate) fn count_congruent(from: u64, to: u64, r: u64, m: u64) -> u64 {
    debug_assert!(r < m, "residue must be reduced");
    if to <= from {
        return 0;
    }
    let span = to - from;
    if span <= m {
        // Settled and skipped ranges are usually no longer than the
        // modulus: the class then has 0 or 1 members, answerable with a
        // single division instead of two.
        let rem = from % m;
        let gap = if r >= rem { r - rem } else { r + (m - rem) };
        return u64::from(gap < span);
    }
    let below = |n: u64| if n > r { (n - 1 - r) / m + 1 } else { 0 };
    below(to) - below(from)
}

/// Solves `x ≡ r1 (mod m1)`, `x ≡ r2 (mod m2)` for possibly non-coprime
/// moduli: `Some((r, lcm(m1, m2)))` with `r < lcm`, or `None` when the
/// congruences are incompatible (`r1 ≢ r2 mod gcd`). Intermediates use
/// `u128`/`i128`: with ≤ [`MAX_CHAINS`] chains of `u16` lengths the lcm
/// stays below 2⁶⁴, but products en route do not.
pub(crate) fn crt_combine(r1: u64, m1: u64, r2: u64, m2: u64) -> Option<(u64, u64)> {
    let g = gcd(m1, m2);
    let diff = r2 as i128 - r1 as i128;
    if diff.rem_euclid(g as i128) != 0 {
        return None;
    }
    let lcm = m1 / g * m2;
    let m2g = m2 / g;
    if m2g == 1 {
        // m2 divides m1: the first congruence already implies the second.
        return Some((r1, m1));
    }
    let inv = mod_inv((m1 / g) % m2g, m2g).expect("m1/g and m2/g are coprime");
    let t =
        (diff.div_euclid(g as i128).rem_euclid(m2g as i128)) as u128 * inv as u128 % m2g as u128;
    let x = (r1 as u128 + m1 as u128 * t) % lcm as u128;
    Some((x as u64, lcm))
}

/// Greatest common divisor.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Modular inverse of `a` modulo `m` (extended Euclid), if it exists.
fn mod_inv(a: u64, m: u64) -> Option<u64> {
    let (mut t, mut new_t) = (0i128, 1i128);
    let (mut r, mut new_r) = (m as i128, (a % m) as i128);
    while new_r != 0 {
        let q = r / new_r;
        (t, new_t) = (new_t, t - q * new_t);
        (r, new_r) = (new_r, r - q * new_r);
    }
    if r != 1 {
        return None;
    }
    Some(t.rem_euclid(m as i128) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellClass, CellOptions};
    use crate::hopping::ChannelOffset;
    use gtt_net::{Dest, NodeId};
    use gtt_sim::Pcg32;

    fn cell(slot: u16, co: u8) -> Cell {
        Cell::new(
            SlotOffset::new(slot),
            ChannelOffset::new(co),
            CellOptions::TX,
            Dest::Unicast(NodeId::new(0)),
            CellClass::Data,
        )
    }

    #[test]
    fn add_and_lookup() {
        let mut sf = Slotframe::new(10);
        sf.add(cell(3, 0));
        sf.add(cell(3, 1));
        sf.add(cell(7, 0));
        assert_eq!(sf.cells_at(SlotOffset::new(3)).count(), 2);
        assert_eq!(sf.cells_at(SlotOffset::new(7)).count(), 1);
        assert_eq!(sf.len(), 3);
        assert!(!sf.is_empty());
    }

    #[test]
    fn remove_where_counts() {
        let mut sf = Slotframe::new(10);
        sf.add(cell(1, 0));
        sf.add(cell(2, 0));
        sf.add(cell(3, 0));
        let removed = sf.remove_where(|c| c.slot.raw() >= 2);
        assert_eq!(removed, 2);
        assert_eq!(sf.len(), 1);
    }

    #[test]
    #[should_panic(expected = "outside slotframe")]
    fn add_rejects_out_of_range_slot() {
        let mut sf = Slotframe::new(4);
        sf.add(cell(4, 0));
    }

    #[test]
    fn schedule_priority_order() {
        let mut sched = Schedule::new();
        let mut hi = Slotframe::new(4);
        hi.add(cell(0, 1));
        let mut lo = Slotframe::new(4);
        lo.add(cell(0, 2));
        // Insert out of order; iteration must still be handle-sorted.
        sched.add_slotframe(SlotframeHandle::new(2), lo);
        sched.add_slotframe(SlotframeHandle::new(1), hi);
        let cells = sched.cells_at(Asn::new(0));
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].0, SlotframeHandle::new(1));
        assert_eq!(cells[1].0, SlotframeHandle::new(2));
    }

    #[test]
    fn schedule_different_lengths_phase_independently() {
        let mut sched = Schedule::new();
        let mut sf3 = Slotframe::new(3);
        sf3.add(cell(0, 0));
        let mut sf5 = Slotframe::new(5);
        sf5.add(cell(0, 1));
        sched.add_slotframe(SlotframeHandle::new(0), sf3);
        sched.add_slotframe(SlotframeHandle::new(1), sf5);
        // ASN 15 is slot 0 of both (lcm(3,5)=15).
        assert_eq!(sched.cells_at(Asn::new(15)).len(), 2);
        // ASN 3 is slot 0 of sf3 only.
        assert_eq!(sched.cells_at(Asn::new(3)).len(), 1);
        // ASN 5 is slot 0 of sf5 only.
        assert_eq!(sched.cells_at(Asn::new(5)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "already in use")]
    fn duplicate_handle_rejected() {
        let mut sched = Schedule::new();
        sched.add_slotframe(SlotframeHandle::new(0), Slotframe::new(4));
        sched.add_slotframe(SlotframeHandle::new(0), Slotframe::new(8));
    }

    #[test]
    fn remove_slotframe_round_trip() {
        let mut sched = Schedule::new();
        sched.add_slotframe(SlotframeHandle::new(3), Slotframe::new(4));
        assert!(sched.frame(SlotframeHandle::new(3)).is_some());
        let f = sched.remove_slotframe(SlotframeHandle::new(3)).unwrap();
        assert_eq!(f.length(), 4);
        assert!(sched.frame(SlotframeHandle::new(3)).is_none());
        assert_eq!(sched.num_slotframes(), 0);
    }

    #[test]
    fn next_slot_matching_wraps_cyclically() {
        let mut sf = Slotframe::new(8);
        sf.add(cell(2, 0));
        sf.add(cell(5, 0));
        // Inside the frame: nearest matching slot at or after `from`.
        assert_eq!(
            sf.next_slot_matching(Asn::new(0), |_| true),
            Some(Asn::new(2))
        );
        assert_eq!(
            sf.next_slot_matching(Asn::new(2), |_| true),
            Some(Asn::new(2))
        );
        assert_eq!(
            sf.next_slot_matching(Asn::new(3), |_| true),
            Some(Asn::new(5))
        );
        // Past the last cell: wraps to slot 2 of the next cycle.
        assert_eq!(
            sf.next_slot_matching(Asn::new(6), |_| true),
            Some(Asn::new(10))
        );
        // Predicate filters.
        assert_eq!(
            sf.next_slot_matching(Asn::new(0), |c| c.slot.raw() == 5),
            Some(Asn::new(5))
        );
        assert_eq!(sf.next_slot_matching(Asn::new(0), |_| false), None);
    }

    #[test]
    fn schedule_next_active_takes_min_across_slotframes() {
        let mut sched = Schedule::new();
        let mut sf3 = Slotframe::new(3);
        sf3.add(cell(1, 0));
        let mut sf5 = Slotframe::new(5);
        sf5.add(cell(0, 1));
        sched.add_slotframe(SlotframeHandle::new(0), sf3);
        sched.add_slotframe(SlotframeHandle::new(1), sf5);
        // From asn2: sf3 fires at 4 (2→offset 2, next offset-1 slot is 4);
        // sf5 fires at 5. Min is 4.
        assert_eq!(
            sched.next_active_asn(Asn::new(2), |_| true),
            Some(Asn::new(4))
        );
        // From asn5: sf5 matches immediately (5 % 5 == 0).
        assert_eq!(
            sched.next_active_asn(Asn::new(5), |_| true),
            Some(Asn::new(5))
        );
        assert_eq!(sched.next_active_asn(Asn::new(0), |_| false), None);
        assert_eq!(Schedule::new().next_active_asn(Asn::new(0), |_| true), None);
    }

    fn rx_cell(slot: u16, co: u8) -> Cell {
        Cell::new(
            SlotOffset::new(slot),
            ChannelOffset::new(co),
            CellOptions::RX,
            Dest::Broadcast,
            CellClass::Data,
        )
    }

    /// The listen union of `sched`, when it fits the caps.
    fn rx_union(sched: &Schedule) -> Option<CyclicUnion> {
        let mut union = CyclicUnion::default();
        union.rebuild(sched, |c| c.options.rx);
        union.exact().cloned()
    }

    /// Checks `union`, built over `sched` from the cells `selects`
    /// picks, against a slot scan of the schedule over `[0, horizon)`:
    /// the channel offset of the first selected cell per slot, counts
    /// over ranges starting every 7th slot, the next slot with its
    /// channel offset from every slot, the `n`-th slot for every `n` a
    /// backoff window can ask for (1 to 32) from every 7th slot, and
    /// whether no slot holds two selected cells of a single chain.
    fn check_against_scan(
        sched: &Schedule,
        union: &CyclicUnion,
        selects: impl Fn(&Cell) -> bool,
        horizon: u64,
    ) {
        // The scan runs 33 longest frames past the horizon, so every slot
        // of the horizon has 32 union slots after it, if any at all.
        let longest = sched.iter().map(|(_, f)| f.length()).max().unwrap_or(1);
        let end = horizon + 33 * u64::from(longest);
        let mut first = Vec::new();
        let mut most_in_a_slot = 0;
        for asn in 0..end {
            let cells = sched.cells_at(Asn::new(asn));
            let selected: Vec<_> = cells.iter().filter(|(_, c)| selects(c)).collect();
            most_in_a_slot = most_in_a_slot.max(selected.len());
            first.push(selected.first().map(|(_, c)| c.channel_offset));
        }
        let slots: Vec<u64> = (0..end).filter(|&a| first[a as usize].is_some()).collect();
        let below = |asn: u64| slots.partition_point(|&x| x < asn);
        for asn in 0..horizon {
            let co = first[asn as usize];
            assert_eq!(union.channel_offset_at(asn), co, "lookup diverges at {asn}");
            let next = slots
                .get(below(asn))
                .map(|&x| (x, first[x as usize].unwrap()));
            assert_eq!(union.next_with_offset(asn), next, "next from {asn}");
        }
        for from in (0..horizon).step_by(7) {
            for to in [from, from + 1, from + 13, from + 97, horizon] {
                let to = to.min(horizon);
                let expected = (below(to) - below(from)) as u64;
                let got = union.count_in(from, to);
                assert_eq!(got, expected, "count diverges on [{from}, {to})");
            }
            for n in 1..=32 {
                let expected = slots.get(below(from) + n - 1).copied();
                let got = union.nth_at_or_after(from, n as u64);
                assert_eq!(got, expected, "{n}-th slot from {from}");
            }
        }
        let chains = sched
            .iter()
            .filter(|(_, f)| f.cells().iter().any(&selects))
            .count();
        let clean = chains == 1 && most_in_a_slot <= 1;
        assert_eq!(union.is_one_clean_chain(), clean);
    }

    /// The whole point of the cyclic union: its closed-form counts and
    /// priority-resolved lookups must agree, slot by slot, with
    /// brute-force enumeration of the schedule — including non-coprime
    /// frame lengths where CRT systems can be incompatible.
    #[test]
    fn rx_union_matches_brute_force_enumeration() {
        /// One slotframe: (length, [(rx slot, channel offset)]).
        type FrameShape = (u16, &'static [(u16, u8)]);
        // Frames of lengths 5, 3, 2 (orchestra-shaped) and 6, 4 (shared
        // factor 2) exercise both coprime and non-coprime merging.
        let shapes: &[&[FrameShape]] = &[
            &[(5, &[(0, 0), (3, 1)]), (3, &[(0, 2)]), (2, &[(1, 3)])],
            &[(6, &[(2, 0), (4, 1)]), (4, &[(0, 2), (2, 4)])],
            &[(7, &[(6, 0)]), (31, &[(0, 1)]), (41, &[(5, 2)])],
        ];
        for shape in shapes {
            let mut sched = Schedule::new();
            for (i, (len, cells)) in shape.iter().enumerate() {
                let mut f = Slotframe::new(*len);
                for &(slot, co) in *cells {
                    f.add(rx_cell(slot, co));
                }
                sched.add_slotframe(SlotframeHandle::new(i as u8), f);
            }
            let union = rx_union(&sched).expect("within caps");
            let horizon = 3 * shape.iter().map(|(l, _)| *l as u64).product::<u64>();
            check_against_scan(&sched, &union, |c| c.options.rx, horizon);
        }
        // Random schedules whose selected cells are the shared Tx cells,
        // as in the MAC's backoff union: one to four frames of equal and
        // mixed lengths, several selected offsets per chain, now and then
        // two selected cells at one offset, beside Tx cells the predicate
        // skips. One union is rebuilt in place across the cases, as the
        // MAC rebuilds its own.
        let shared_tx = |c: &Cell| c.options.tx && c.options.shared;
        let kinds = [
            CellOptions::TX,
            CellOptions::TX_RX_SHARED,
            CellOptions {
                tx: true,
                rx: false,
                shared: true,
            },
        ];
        let mut rng = Pcg32::new(11);
        let mut union = CyclicUnion::default();
        for _ in 0..300 {
            let mut sched = Schedule::new();
            let mut hyperperiod = 1;
            for handle in 0..1 + rng.gen_range_u32(0, 4) {
                let len = [2u16, 3, 4, 6, 7, 12][rng.gen_range_u32(0, 6) as usize];
                hyperperiod = hyperperiod / gcd(hyperperiod, u64::from(len)) * u64::from(len);
                let mut f = Slotframe::new(len);
                for _ in 0..rng.gen_range_u32(0, 5) {
                    let slot = SlotOffset::new(rng.gen_range_u32(0, u32::from(len)) as u16);
                    let co = ChannelOffset::new(rng.gen_range_u32(0, 8) as u8);
                    let options = kinds[rng.gen_range_u32(0, 3) as usize];
                    f.add(Cell::new(
                        slot,
                        co,
                        options,
                        Dest::Broadcast,
                        CellClass::Shared,
                    ));
                }
                sched.add_slotframe(SlotframeHandle::new(handle as u8), f);
            }
            union.rebuild(&sched, shared_tx);
            let exact = union.exact().expect("four short frames fit the caps");
            check_against_scan(&sched, exact, shared_tx, 2 * hyperperiod);
        }
    }

    #[test]
    fn rx_union_priority_prefers_lower_handles() {
        // Both frames listen at ASN 0 on different channel offsets; the
        // lower handle must win, like plan_slot's candidate scan.
        let mut sched = Schedule::new();
        let mut hi = Slotframe::new(4);
        hi.add(rx_cell(0, 7));
        let mut lo = Slotframe::new(2);
        lo.add(rx_cell(0, 9));
        sched.add_slotframe(SlotframeHandle::new(1), lo);
        sched.add_slotframe(SlotframeHandle::new(0), hi);
        let union = rx_union(&sched).expect("within caps");
        assert_eq!(union.channel_offset_at(0), Some(ChannelOffset::new(7)));
        // ASN 2: only the length-2 frame listens.
        assert_eq!(union.channel_offset_at(2), Some(ChannelOffset::new(9)));
        // Overlaps are not double-counted: slots 0,2 in [0,4), not 3.
        assert_eq!(union.count_in(0, 4), 2);
    }

    #[test]
    fn rx_union_caps_degrade_to_none() {
        // 5 Rx-bearing frames exceed MAX_CHAINS.
        let mut sched = Schedule::new();
        for i in 0..5u8 {
            let mut f = Slotframe::new(2 + i as u16);
            f.add(rx_cell(0, i));
            sched.add_slotframe(SlotframeHandle::new(i), f);
        }
        assert!(rx_union(&sched).is_none(), "cap exceeded ⇒ always-wake");
        // Rx-less frames do not count against the caps.
        let mut sparse = Schedule::new();
        for i in 0..6u8 {
            let mut f = Slotframe::new(2 + i as u16);
            f.add(cell(0, i)); // Tx-only
            sparse.add_slotframe(SlotframeHandle::new(i), f);
        }
        let union = rx_union(&sparse).expect("tx-only frames are free");
        assert_eq!(union.count_in(0, 1_000), 0, "never listens");
        assert_eq!(union.channel_offset_at(0), None);
    }

    #[test]
    fn crt_combine_handles_non_coprime_moduli() {
        // x ≡ 2 (mod 6) ∧ x ≡ 0 (mod 4) ⇒ x ≡ 8 (mod 12).
        assert_eq!(crt_combine(2, 6, 0, 4), Some((8, 12)));
        // Incompatible parity: x ≡ 1 (mod 6) ∧ x ≡ 0 (mod 4) has no
        // solution (both constrain x mod 2 differently).
        assert_eq!(crt_combine(1, 6, 0, 4), None);
        // m2 divides m1: first congruence subsumes the second.
        assert_eq!(crt_combine(5, 12, 1, 4), Some((5, 12)));
        assert_eq!(crt_combine(5, 12, 0, 4), None);
        // Coprime: plain CRT.
        assert_eq!(crt_combine(2, 3, 3, 5), Some((8, 15)));
    }

    #[test]
    fn count_congruent_closed_form() {
        // Multiples of 5 in [0, 21): 0,5,10,15,20.
        assert_eq!(count_congruent(0, 21, 0, 5), 5);
        assert_eq!(count_congruent(1, 21, 0, 5), 4);
        assert_eq!(count_congruent(6, 6, 0, 5), 0);
        assert_eq!(count_congruent(7, 8, 2, 5), 1);
        assert_eq!(count_congruent(8, 12, 2, 5), 0);
    }

    #[test]
    fn frame_mut_allows_cell_updates() {
        let mut sched = Schedule::new();
        sched.add_slotframe(SlotframeHandle::new(0), Slotframe::new(8));
        sched
            .frame_mut(SlotframeHandle::new(0))
            .unwrap()
            .add(cell(2, 0));
        assert_eq!(sched.total_cells(), 1);
    }
}
