//! Node identifiers.

use std::fmt;

/// Number of distinct node ids: no topology holds more nodes.
pub const MAX_NODES: usize = u16::MAX as usize + 1;

/// Identifier of a simulated IoT node.
///
/// Ids are dense indices assigned by [`TopologyBuilder`](crate::TopologyBuilder)
/// in insertion order, so they double as `Vec` indices throughout the
/// workspace ([`NodeId::index`]). A newtype keeps them from being confused
/// with slot numbers, channel offsets or queue lengths (C-NEWTYPE).
///
/// # Example
///
/// ```
/// use gtt_net::NodeId;
/// let root = NodeId::new(0);
/// assert_eq!(root.index(), 0);
/// assert_eq!(root.to_string(), "n0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node id from its dense index.
    pub const fn new(raw: u16) -> Self {
        NodeId(raw)
    }

    /// The raw id value.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// The id as a `Vec` index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a node id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics unless `index` is below [`MAX_NODES`].
    pub fn from_index(index: usize) -> Self {
        assert!(index < MAX_NODES, "node index {index} out of range");
        NodeId(index as u16)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(raw: u16) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u16 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

/// Per-peer state of one node, keyed by [`NodeId`] and sized by the
/// peers it holds.
///
/// Entries sit in one vector sorted by id: lookup is a binary search and
/// iteration runs in id order, as a `BTreeMap`'s would. A node's peers
/// are a handful of ids scattered over the whole id range; the map
/// spends memory on those entries alone, and an empty map allocates
/// nothing.
///
/// # Example
///
/// ```
/// use gtt_net::{NodeId, PeerMap};
///
/// let mut seqnums: PeerMap<u8> = PeerMap::new();
/// *seqnums.get_or_insert_with(NodeId::new(9), || 0) += 1;
/// seqnums.insert(NodeId::new(2), 5);
/// assert_eq!(seqnums.get(NodeId::new(9)), Some(&1));
/// let ids: Vec<u16> = seqnums.iter().map(|(id, _)| id.raw()).collect();
/// assert_eq!(ids, [2, 9]);
/// ```
#[derive(Debug, Clone)]
pub struct PeerMap<V> {
    entries: Vec<(NodeId, V)>,
}

impl<V> PeerMap<V> {
    /// Creates an empty map.
    pub const fn new() -> Self {
        PeerMap {
            entries: Vec::new(),
        }
    }

    /// Number of peers held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no peer is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry index of `peer`, or where it would be inserted.
    fn search(&self, peer: NodeId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&peer, |&(id, _)| id)
    }

    /// The value held for `peer`.
    pub fn get(&self, peer: NodeId) -> Option<&V> {
        self.search(peer).ok().map(|k| &self.entries[k].1)
    }

    /// True if a value is held for `peer`.
    pub fn contains(&self, peer: NodeId) -> bool {
        self.search(peer).is_ok()
    }

    /// The value held for `peer`, inserting `make()` first if there is
    /// none.
    pub fn get_or_insert_with(&mut self, peer: NodeId, make: impl FnOnce() -> V) -> &mut V {
        let k = match self.search(peer) {
            Ok(k) => k,
            Err(k) => {
                self.entries.insert(k, (peer, make()));
                k
            }
        };
        &mut self.entries[k].1
    }

    /// Holds `value` for `peer`, returning the value it replaces.
    pub fn insert(&mut self, peer: NodeId, value: V) -> Option<V> {
        match self.search(peer) {
            Ok(k) => Some(std::mem::replace(&mut self.entries[k].1, value)),
            Err(k) => {
                self.entries.insert(k, (peer, value));
                None
            }
        }
    }

    /// Removes and returns the value held for `peer`. Removing the last
    /// peer frees the map's buffer.
    pub fn remove(&mut self, peer: NodeId) -> Option<V> {
        let k = self.search(peer).ok()?;
        let (_, value) = self.entries.remove(k);
        if self.entries.is_empty() {
            self.entries = Vec::new();
        }
        Some(value)
    }

    /// The entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &V)> + '_ {
        self.entries.iter().map(|(id, v)| (*id, v))
    }

    /// The entries in id order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut V)> + '_ {
        self.entries.iter_mut().map(|(id, v)| (*id, v))
    }
}

impl<V> Default for PeerMap<V> {
    fn default() -> Self {
        PeerMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let id = NodeId::new(7);
        assert_eq!(u16::from(id), 7);
        assert_eq!(NodeId::from(7u16), id);
        assert_eq!(NodeId::from_index(7), id);
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn ordering_follows_raw() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_index_rejects_large() {
        let _ = NodeId::from_index(70_000);
    }

    #[test]
    fn peer_map_matches_a_btree_map() {
        use std::collections::BTreeMap;
        let mut rng = gtt_sim::Pcg32::new(3);
        let mut map = PeerMap::new();
        let mut reference = BTreeMap::new();
        for step in 0..4_000u32 {
            let peer = NodeId::new(rng.gen_range_u32(0, 48) as u16);
            match rng.gen_range_u32(0, 4) {
                0 => assert_eq!(map.insert(peer, step), reference.insert(peer, step)),
                1 => assert_eq!(map.remove(peer), reference.remove(&peer)),
                2 => {
                    *map.get_or_insert_with(peer, || step) += 1;
                    *reference.entry(peer).or_insert(step) += 1;
                }
                _ => {
                    map.iter_mut().for_each(|(_, v)| *v ^= 1);
                    reference.values_mut().for_each(|v| *v ^= 1);
                }
            }
            assert_eq!(map.get(peer), reference.get(&peer));
            assert_eq!(map.contains(peer), reference.contains_key(&peer));
            assert!(map.iter().eq(reference.iter().map(|(p, v)| (*p, v))));
        }
        assert_eq!(map.len(), reference.len());
        for peer in reference.keys() {
            map.remove(*peer);
        }
        assert!(map.is_empty());
        assert_eq!(map.entries.capacity(), 0, "an emptied map frees its buffer");
    }
}
