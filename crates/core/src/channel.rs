//! The GT-TSCH channel-allocation scheme (paper §III, Algorithm 1).
//!
//! GT-TSCH assigns every parent one channel on which *all* its children
//! transmit to it, keeps a node's parent-facing and child-facing channels
//! distinct, and keeps each allocated channel unique along three-hop
//! routing paths. That fixes the four §III interference problems of
//! hash-based schedulers:
//!
//! 1. a node never transmits and receives in the same (slot, channel),
//! 2. sibling parents receive from their children on different channels,
//! 3. uncle/nephew pairs use different channels,
//! 4. two-hop (hidden-terminal) reuse is excluded because a channel is
//!    unique among `{f_bcast, f_{i,p}, f_{i,cs}}` and all sibling
//!    allocations at the grandparent.

use std::collections::BTreeMap;

use gtt_net::NodeId;

use crate::config::FBCAST;

/// Per-parent allocator answering `ASK-CHANNEL` requests (Algorithm 1,
/// lines 8–22).
///
/// Node `i` runs one of these; for each child `j` that asks, it allocates
/// `f_{j,cs_j}` — the channel `j` will use to *receive from its own
/// children* — avoiding `f_bcast`, `f_{i,p_i}`, `f_{i,cs_i}` and every
/// channel already granted to another child.
///
/// # Example
///
/// ```
/// use gt_tsch::ChannelAllocator;
/// use gtt_net::NodeId;
///
/// let mut alloc = ChannelAllocator::new(8); // 8 offsets, f_bcast = 0
/// let a = alloc.allocate(NodeId::new(5), Some(1), Some(2)).unwrap();
/// let b = alloc.allocate(NodeId::new(6), Some(1), Some(2)).unwrap();
/// assert_ne!(a, b);
/// assert!(![0, 1, 2].contains(&a) && ![0, 1, 2].contains(&b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChannelAllocator {
    n_offsets: u8,
    assigned: BTreeMap<NodeId, u8>,
}

impl ChannelAllocator {
    /// Creates an allocator over `n_offsets` channel offsets with the
    /// broadcast channel [`FBCAST`] reserved.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 offsets exist.
    pub fn new(n_offsets: u8) -> Self {
        assert!(n_offsets >= 2, "need at least two channel offsets");
        ChannelAllocator {
            n_offsets,
            assigned: BTreeMap::new(),
        }
    }

    /// The paper's §III bound on children per parent: with `n` channels,
    /// one is `f_bcast` and two are the node's own parent/children
    /// channels, leaving `n − 3` distinct child allocations.
    pub fn max_children(&self) -> u8 {
        self.n_offsets.saturating_sub(3)
    }

    /// The channel already granted to `child`, if any.
    pub fn channel_of(&self, child: NodeId) -> Option<u8> {
        self.assigned.get(&child).copied()
    }

    /// Number of children with allocations.
    pub fn allocated(&self) -> usize {
        self.assigned.len()
    }

    /// Allocates (or returns the existing) channel for `child`,
    /// excluding `f_bcast`, this node's own parent-facing channel
    /// (`f_self_parent`) and child-facing channel (`f_self_children`),
    /// and every sibling's allocation (Algorithm 1 inner loop).
    ///
    /// When all distinct offsets are exhausted (more children than
    /// [`ChannelAllocator::max_children`] — the paper bounds the fan-out
    /// to avoid this), the least-used sibling allocation is reused: the
    /// three-hop uniqueness guarantee degrades gracefully instead of
    /// refusing service.
    ///
    /// Returns `None` only when *no* offset outside the reserved set
    /// exists.
    pub fn allocate(
        &mut self,
        child: NodeId,
        f_self_parent: Option<u8>,
        f_self_children: Option<u8>,
    ) -> Option<u8> {
        if let Some(&existing) = self.assigned.get(&child) {
            return Some(existing);
        }
        let reserved =
            |z: u8| z == FBCAST || Some(z) == f_self_parent || Some(z) == f_self_children;

        // Algorithm 1: first offset not reserved and not used by a
        // sibling (deterministic smallest-first keeps runs replayable).
        let fresh =
            (0..self.n_offsets).find(|&z| !reserved(z) && !self.assigned.values().any(|&v| v == z));
        if let Some(z) = fresh {
            self.assigned.insert(child, z);
            return Some(z);
        }

        // Overflow: reuse the least-used non-reserved offset.
        let mut usage: BTreeMap<u8, usize> = BTreeMap::new();
        for &v in self.assigned.values() {
            *usage.entry(v).or_insert(0) += 1;
        }
        let reuse = (0..self.n_offsets)
            .filter(|&z| !reserved(z))
            .min_by_key(|z| usage.get(z).copied().unwrap_or(0))?;
        self.assigned.insert(child, reuse);
        Some(reuse)
    }

    /// Releases `child`'s allocation (no-path DAO, child expiry).
    pub fn release(&mut self, child: NodeId) {
        self.assigned.remove(&child);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u16) -> NodeId {
        NodeId::new(n)
    }

    #[test]
    fn allocations_avoid_reserved_channels() {
        let mut a = ChannelAllocator::new(8);
        for i in 0..5 {
            let z = a.allocate(id(i), Some(3), Some(4)).unwrap();
            assert!(
                ![0, 3, 4].contains(&z),
                "child {i} got reserved channel {z}"
            );
        }
    }

    #[test]
    fn siblings_get_distinct_channels() {
        let mut a = ChannelAllocator::new(8);
        let mut seen = std::collections::BTreeSet::new();
        // max_children = 5 distinct allocations.
        for i in 0..5 {
            let z = a.allocate(id(i), Some(1), Some(2)).unwrap();
            assert!(seen.insert(z), "duplicate channel {z}");
        }
        assert_eq!(a.allocated(), 5);
    }

    #[test]
    fn allocation_is_stable_per_child() {
        let mut a = ChannelAllocator::new(8);
        let first = a.allocate(id(9), Some(1), Some(2)).unwrap();
        let second = a.allocate(id(9), Some(1), Some(2)).unwrap();
        assert_eq!(first, second);
        assert_eq!(a.allocated(), 1);
    }

    #[test]
    fn overflow_reuses_least_used() {
        let mut a = ChannelAllocator::new(8);
        for i in 0..5 {
            a.allocate(id(i), Some(1), Some(2)).unwrap();
        }
        // Sixth child exceeds max_children: must reuse, never a reserved
        // channel.
        let z = a.allocate(id(99), Some(1), Some(2)).unwrap();
        assert!(![0, 1, 2].contains(&z));
    }

    #[test]
    fn release_frees_channel_for_reuse() {
        let mut a = ChannelAllocator::new(5); // offsets 1..5 minus 2 reserved
        let z1 = a.allocate(id(1), Some(1), Some(2)).unwrap();
        a.release(id(1));
        assert_eq!(a.channel_of(id(1)), None);
        let z2 = a.allocate(id(2), Some(1), Some(2)).unwrap();
        assert_eq!(z1, z2, "released channel is the first candidate again");
    }

    #[test]
    fn root_allocates_without_parent_channel() {
        let mut a = ChannelAllocator::new(8);
        let z = a.allocate(id(1), None, Some(5)).unwrap();
        assert!(z != 0 && z != 5);
    }

    #[test]
    fn three_hop_uniqueness_structure() {
        // Model the Fig. 3 chain: root → A → G. The channel G uses with
        // its children must differ from A's children channel and from
        // root's children channel — exactly what excluding
        // {f_self_parent, f_self_children} at each hop produces.
        let mut root = ChannelAllocator::new(8);
        let root_children_ch = 1u8; // root picked f_root,cs = 1
        let a_children_ch = root.allocate(id(10), None, Some(root_children_ch)).unwrap();
        assert_ne!(a_children_ch, root_children_ch);

        let mut node_a = ChannelAllocator::new(8);
        // A's parent-facing channel is root_children_ch; its child-facing
        // channel is a_children_ch.
        let g_children_ch = node_a
            .allocate(id(20), Some(root_children_ch), Some(a_children_ch))
            .unwrap();
        assert_ne!(g_children_ch, a_children_ch, "next hop differs");
        assert_ne!(g_children_ch, root_children_ch, "two hops up differs");
    }

    #[test]
    fn impossible_allocation_returns_none() {
        // 2 offsets, fbcast=0, parent channel 1: nothing remains.
        let mut a = ChannelAllocator::new(2);
        assert_eq!(a.allocate(id(1), Some(1), None), None);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_offset_space_rejected() {
        let _ = ChannelAllocator::new(1);
    }
}
