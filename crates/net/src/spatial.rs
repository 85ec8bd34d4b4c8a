//! Grid-bucketed spatial index over node positions.
//!
//! The audibility relation only connects nodes within the interference
//! range `R`, so bucketing positions on a square grid of cell side `R`
//! guarantees every audible peer of a node lies in the 3×3 block of
//! cells around the node's own cell: two positions within `R` of each
//! other differ by at most `R` per axis, hence by at most one cell
//! coordinate. Audibility and neighbor queries therefore enumerate a
//! handful of buckets instead of all `n` nodes, which is what makes
//! `TopologyBuilder::build` O(n·k) and `Topology::set_position` an
//! incremental O(k)-ish update (k = bucket-local candidates).
//!
//! Determinism: buckets are kept in a `BTreeMap` (iteration sorted by
//! cell coordinate) and each bucket holds its members in ascending id
//! order, so every enumeration here is canonical — sorted cell, then id
//! order — independent of insertion history. See DETERMINISM.md.

use std::collections::BTreeMap;

use crate::geometry::Position;
use crate::id::NodeId;

/// Integer cell coordinate on the bucket grid.
pub(crate) type Cell = (i64, i64);

/// The index: occupied grid cells and the cached cell of every node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpatialGrid {
    /// Bucket side length in metres (the interference range).
    cell_size: f64,
    /// Occupied cells → members in ascending id order. Empty buckets are
    /// erased on removal so the map is a pure function of the current
    /// positions — incremental maintenance and a fresh build compare
    /// equal.
    buckets: BTreeMap<Cell, Vec<NodeId>>,
    /// Cached cell of each node, so relocation never re-derives the old
    /// coordinate from floating-point state.
    cell_of: Vec<Cell>,
}

impl SpatialGrid {
    /// Builds the index for `positions` with buckets of side `cell_size`.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not positive (the interference range of a
    /// valid topology always is).
    pub(crate) fn build(cell_size: f64, positions: &[Position]) -> Self {
        assert!(
            cell_size > 0.0,
            "spatial grid cell must be positive, got {cell_size}"
        );
        let mut grid = SpatialGrid {
            cell_size,
            buckets: BTreeMap::new(),
            cell_of: Vec::with_capacity(positions.len()),
        };
        for (i, &p) in positions.iter().enumerate() {
            let cell = grid.cell_at(p);
            grid.cell_of.push(cell);
            // Ids arrive in ascending order, so pushing keeps the bucket
            // sorted.
            grid.buckets
                .entry(cell)
                .or_default()
                .push(NodeId::from_index(i));
        }
        grid
    }

    /// Cell containing `p`.
    ///
    /// The `as` casts saturate, so coordinates beyond ±9.2e18 cells all
    /// collapse onto the grid border cell. That only widens a candidate
    /// set (candidates are always distance-checked), never loses a pair:
    /// positions that far apart are never audible anyway.
    fn cell_at(&self, p: Position) -> Cell {
        (
            (p.x / self.cell_size).floor() as i64,
            (p.y / self.cell_size).floor() as i64,
        )
    }

    /// The cached cell of `node`.
    pub(crate) fn cell(&self, node: NodeId) -> Cell {
        self.cell_of[node.index()]
    }

    /// Moves `node` into the bucket for `to`, keeping buckets sorted and
    /// erasing the old bucket if it empties.
    pub(crate) fn relocate(&mut self, node: NodeId, to: Position) {
        let from = self.cell_of[node.index()];
        let dest = self.cell_at(to);
        if from == dest {
            return;
        }
        let old = self
            .buckets
            .get_mut(&from)
            .expect("cached cell must have a bucket");
        let pos = old
            .binary_search(&node)
            .expect("node must be in its cached bucket");
        old.remove(pos);
        if old.is_empty() {
            self.buckets.remove(&from);
        }
        let new = self.buckets.entry(dest).or_default();
        let pos = new
            .binary_search(&node)
            .expect_err("node cannot already be in the destination bucket");
        new.insert(pos, node);
        self.cell_of[node.index()] = dest;
    }

    /// Calls `f` for every node in the 3×3 block of cells around
    /// `center`, in canonical order: cells sorted by coordinate, ids
    /// ascending within each cell.
    ///
    /// Near the saturated grid border two offsets can map to the same
    /// cell, so callers that collect candidates must dedup (adjacency
    /// rows are sorted + deduped anyway).
    pub(crate) fn for_each_candidate(&self, center: Cell, mut f: impl FnMut(NodeId)) {
        for dx in -1..=1_i64 {
            for dy in -1..=1_i64 {
                let cell = (center.0.saturating_add(dx), center.1.saturating_add(dy));
                if let Some(bucket) = self.buckets.get(&cell) {
                    for &id in bucket {
                        f(id);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u16]) -> Vec<NodeId> {
        raw.iter().map(|&r| NodeId::new(r)).collect()
    }

    #[test]
    fn build_buckets_by_cell_in_id_order() {
        let grid = SpatialGrid::build(
            10.0,
            &[
                Position::new(25.0, 0.0), // cell (2, 0)
                Position::new(5.0, 5.0),  // cell (0, 0)
                Position::new(9.9, 0.0),  // cell (0, 0)
                Position::new(-0.1, 0.0), // cell (-1, 0)
                Position::new(10.0, 0.0), // cell (1, 0) — boundary goes up
            ],
        );
        assert_eq!(grid.cell(NodeId::new(0)), (2, 0));
        assert_eq!(grid.cell(NodeId::new(3)), (-1, 0));
        assert_eq!(grid.cell(NodeId::new(4)), (1, 0));
        let cells: Vec<(Cell, Vec<NodeId>)> =
            grid.buckets.iter().map(|(&c, m)| (c, m.clone())).collect();
        assert_eq!(
            cells,
            vec![
                ((-1, 0), ids(&[3])),
                ((0, 0), ids(&[1, 2])),
                ((1, 0), ids(&[4])),
                ((2, 0), ids(&[0])),
            ]
        );
    }

    #[test]
    fn relocate_erases_emptied_buckets() {
        let mut grid = SpatialGrid::build(10.0, &[Position::ORIGIN, Position::new(35.0, 0.0)]);
        assert_eq!(grid.buckets.len(), 2);
        grid.relocate(NodeId::new(1), Position::new(2.0, 0.0));
        assert_eq!(grid.cell(NodeId::new(1)), (0, 0));
        // The (3, 0) bucket is gone, not left empty: incremental state
        // must compare equal to a fresh build of the same positions.
        let rebuilt = SpatialGrid::build(10.0, &[Position::ORIGIN, Position::new(2.0, 0.0)]);
        assert_eq!(grid, rebuilt);
    }

    #[test]
    fn candidates_enumerate_sorted_cell_then_id() {
        let grid = SpatialGrid::build(
            10.0,
            &[
                Position::new(15.0, 15.0), // cell (1, 1)
                Position::new(5.0, 5.0),   // cell (0, 0)
                Position::new(25.0, 25.0), // cell (2, 2)
                Position::new(16.0, 16.0), // cell (1, 1)
                Position::new(45.0, 45.0), // cell (4, 4) — outside the block
            ],
        );
        let mut seen = Vec::new();
        grid.for_each_candidate((1, 1), |id| seen.push(id));
        // (0,0) before (1,1) before (2,2); ids ascending inside (1,1).
        assert_eq!(seen, ids(&[1, 0, 3, 2]));
    }

    #[test]
    fn far_coordinates_saturate_without_panicking() {
        let grid = SpatialGrid::build(10.0, &[Position::new(f64::MAX, f64::MAX), Position::ORIGIN]);
        assert_eq!(grid.cell(NodeId::new(0)), (i64::MAX, i64::MAX));
        let mut seen = Vec::new();
        grid.for_each_candidate(grid.cell(NodeId::new(0)), |id| seen.push(id));
        // The saturated 3×3 block folds onto the border cell; dedup is
        // the caller's job.
        assert!(seen.iter().all(|&id| id == NodeId::new(0)));
    }
}
