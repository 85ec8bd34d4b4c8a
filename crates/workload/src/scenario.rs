//! Network topologies from the paper's evaluation.
//!
//! These are the *materialized* values a [`ScenarioSpec`] builds;
//! environmental effects (interference bursts, mobility, duty-cycle
//! budgets) are [`Overlay`]s on the experiment, not scenario variants.
//!
//! [`ScenarioSpec`]: crate::ScenarioSpec
//! [`Overlay`]: crate::Overlay

use std::ops::RangeInclusive;

use gtt_net::{LinkModel, NodeId, Position, Topology, TopologyBuilder};
use gtt_sim::Pcg32;

use crate::ScenarioSpec;

/// A named topology with its DODAG roots.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable name (used in harness output).
    pub name: String,
    /// Node placement and link model.
    pub topology: Topology,
    /// DODAG roots (border routers).
    pub roots: Vec<NodeId>,
}

/// Radio range used by the built-in scenarios (metres).
const RANGE: f64 = 40.0;
/// First-ring distance from the root.
const RING1: f64 = 25.0;
/// Second-ring distance from the root (only the ring-1 parent in range).
const RING2: f64 = 50.0;
/// Separation between DODAGs — far beyond any interference.
const DODAG_SPACING: f64 = 1_000.0;
/// Radial spacing coefficient of the city clusters' sunflower layout:
/// the typical nearest-neighbour distance in metres, chosen well under
/// [`RANGE`] so every cluster is multi-hop but robustly connected.
const CITY_RING: f64 = 12.0;
/// The golden angle in radians — successive sunflower points never
/// align, giving a near-uniform deterministic disc packing.
const GOLDEN_ANGLE: f64 = 2.399_963_229_728_653;

/// Asserts that a generator's parameters lie in the range `spec`'s
/// variant documents.
fn check(spec: ScenarioSpec) {
    assert!(
        spec.is_valid(),
        "{spec:?} lies outside its documented range: too few nodes, a spacing that is not \
         positive, or a size that overflows the u16 id space"
    );
}

impl Scenario {
    /// Node counts [`Scenario::single_dodag`] accepts, and
    /// [`Scenario::two_dodag`] per DODAG.
    pub(crate) const DODAG_SIZES: RangeInclusive<usize> = 2..=10;

    /// One DODAG of `n` nodes (root + rings), rooted at the first node.
    ///
    /// Layout (§VIII's building-automation shape): up to 3 first-ring
    /// nodes at 25 m, remaining nodes at 50 m placed radially behind a
    /// first-ring parent, so they can only route through it (2-hop
    /// DODAG, matching the paper's "maximum distance of two hops").
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ n ≤ 10`.
    pub fn single_dodag(n: usize) -> Scenario {
        let mut s = Scenario::dodag_positions(n, Position::ORIGIN);
        let topology = TopologyBuilder::new(RANGE).nodes(s.drain(..)).build();
        Scenario {
            name: format!("single-dodag-{n}"),
            topology,
            roots: vec![NodeId::new(0)],
        }
    }

    /// The paper's evaluation network: **two** isolated DODAGs of
    /// `nodes_per_dodag` nodes each (Fig. 8: 7 per DODAG = 14 nodes;
    /// Fig. 9 sweeps 6–9 per DODAG).
    ///
    /// # Panics
    ///
    /// Panics unless `2 ≤ nodes_per_dodag ≤ 10`.
    pub fn two_dodag(nodes_per_dodag: usize) -> Scenario {
        let mut positions = Scenario::dodag_positions(nodes_per_dodag, Position::ORIGIN);
        positions.extend(Scenario::dodag_positions(
            nodes_per_dodag,
            Position::new(DODAG_SPACING, 0.0),
        ));
        let topology = TopologyBuilder::new(RANGE).nodes(positions).build();
        Scenario {
            name: format!("two-dodag-{nodes_per_dodag}"),
            topology,
            roots: vec![NodeId::new(0), NodeId::from_index(nodes_per_dodag)],
        }
    }

    /// A chain of `n` nodes `spacing` metres apart, rooted at one end —
    /// the worst case for end-to-end delay.
    ///
    /// # Panics
    ///
    /// Panics unless the line has 2 to 65,536 nodes (the `u16` id space)
    /// and a positive, finite spacing.
    pub fn line(n: usize, spacing: f64) -> Scenario {
        check(ScenarioSpec::line(n, spacing));
        let topology = TopologyBuilder::new(Scenario::line_range(spacing))
            .nodes((0..n).map(|i| Position::new(i as f64 * spacing, 0.0)))
            .build();
        Scenario {
            name: format!("line-{n}"),
            topology,
            roots: vec![NodeId::new(0)],
        }
    }

    /// A root with `leaves` one-hop children in a circle.
    ///
    /// # Panics
    ///
    /// Panics unless the star has 1 to 65,535 leaves.
    pub fn star(leaves: usize) -> Scenario {
        check(ScenarioSpec::star(leaves));
        let mut b = TopologyBuilder::new(RANGE).node(Position::ORIGIN);
        for i in 0..leaves {
            let angle = i as f64 * std::f64::consts::TAU / leaves as f64;
            b = b.node(Position::new(RING1 * angle.cos(), RING1 * angle.sin()));
        }
        Scenario {
            name: format!("star-{leaves}"),
            topology: b.build(),
            roots: vec![NodeId::new(0)],
        }
    }

    /// A `cols × rows` grid with `spacing` metres between orthogonal
    /// neighbours, rooted at the corner node 0.
    ///
    /// With the built-in 40 m radio range and the default 30 m spacing,
    /// only the 4-neighbourhood is audible (diagonals are ~42.4 m away),
    /// so the DODAG is genuinely multi-hop — the scaling shape the
    /// heterogeneous-mobility and HRL-TSCH evaluations sweep.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are positive and the grid has at
    /// most 65,536 nodes.
    pub fn grid(cols: usize, rows: usize, spacing: f64) -> Scenario {
        check(ScenarioSpec::grid(cols, rows, spacing));
        let positions = (0..rows).flat_map(|r| {
            (0..cols).map(move |c| Position::new(c as f64 * spacing, r as f64 * spacing))
        });
        Scenario {
            name: format!("grid-{cols}x{rows}"),
            topology: TopologyBuilder::new(RANGE).nodes(positions).build(),
            roots: vec![NodeId::new(0)],
        }
    }

    /// The 120-node sparse-traffic grid (12 × 10, 30 m spacing): the
    /// event-driven engine's headline scaling scenario. Most nodes sleep
    /// in most slots, which is exactly the regime where slot skipping
    /// beats the exhaustive per-slot loop.
    pub fn large_grid() -> Scenario {
        let mut s = Scenario::grid(12, 10, 30.0);
        s.name = "large-grid-120".into();
        s
    }

    /// A 120-node single-hop star (root + 119 leaves): the dense
    /// counterpart to [`Scenario::large_grid`], stressing the medium
    /// resolution rather than the DODAG depth.
    pub fn large_star() -> Scenario {
        let mut s = Scenario::star(119);
        s.name = "large-star-120".into();
        s
    }

    /// `n` nodes placed uniformly at random in a `side × side` square
    /// (root at the centre), re-drawn until connected.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds 65,536, or if no connected placement is
    /// found within 1000 draws.
    pub fn random(n: usize, side: f64, seed: u64) -> Scenario {
        check(ScenarioSpec::random(n, side, seed));
        let mut rng = Pcg32::new(seed);
        for _ in 0..1000 {
            let mut b = TopologyBuilder::new(RANGE).node(Position::new(side / 2.0, side / 2.0));
            for _ in 1..n {
                b = b.node(Position::new(rng.gen_f64() * side, rng.gen_f64() * side));
            }
            let topo = b.build();
            if topo.is_connected() {
                return Scenario {
                    name: format!("random-{n}"),
                    topology: topo,
                    roots: vec![NodeId::new(0)],
                };
            }
        }
        panic!("no connected random placement of {n} nodes in {side}m found");
    }

    /// A city-scale deployment: `dodags` clusters of `nodes_per_dodag`
    /// nodes each, every cluster rooted at its own border router.
    ///
    /// Clusters sit on a square grid at `DODAG_SPACING` (1 km) pitch —
    /// far beyond any interference, so each DODAG is its own audibility
    /// island and clusters never interfere with one another. Within
    /// a cluster, nodes follow a deterministic sunflower (phyllotaxis)
    /// layout around the root: node `j` sits at radius
    /// `CITY_RING · √j`, angle `j · golden-angle`, giving a near-uniform
    /// multi-hop disc (~12–20 m nearest-neighbour spacing under the 40 m
    /// range; 100 nodes span a ~120 m radius, several hops deep). No RNG
    /// is involved, so the layout is a pure function of the two counts —
    /// exactly what the canonical experiment encoding needs.
    ///
    /// `city(10, 100)` is the 1k-node benchmark scenario, `city(100,
    /// 100)` the 10k-node one.
    ///
    /// # Panics
    ///
    /// Panics unless `dodags ≥ 1`, `nodes_per_dodag ≥ 2`, and the city
    /// has at most 65,536 nodes in all (the `u16` id space).
    pub fn city(dodags: usize, nodes_per_dodag: usize) -> Scenario {
        check(ScenarioSpec::city(dodags, nodes_per_dodag));
        let cols = (dodags as f64).sqrt().ceil() as usize;
        let mut positions = Vec::with_capacity(dodags * nodes_per_dodag);
        let mut roots = Vec::with_capacity(dodags);
        for d in 0..dodags {
            let origin = Position::new(
                (d % cols) as f64 * DODAG_SPACING,
                (d / cols) as f64 * DODAG_SPACING,
            );
            roots.push(NodeId::from_index(positions.len()));
            positions.push(origin);
            for j in 1..nodes_per_dodag {
                let r = CITY_RING * (j as f64).sqrt();
                let theta = j as f64 * GOLDEN_ANGLE;
                positions.push(origin.offset(r * theta.cos(), r * theta.sin()));
            }
        }
        Scenario {
            name: format!("city-{dodags}x{nodes_per_dodag}"),
            topology: TopologyBuilder::new(RANGE).nodes(positions).build(),
            roots,
        }
    }

    /// Replaces the link model (default:
    /// [`LinkModel::default`](gtt_net::LinkModel)), keeping placement,
    /// range, interference factor and PRR overrides.
    pub fn with_link_model(mut self, model: LinkModel) -> Scenario {
        let topo = &self.topology;
        let mut builder = TopologyBuilder::new(topo.range())
            .interference_factor(topo.interference_factor())
            .link_model(model)
            .nodes(topo.node_ids().map(|id| topo.position(id)));
        for ((a, b), prr) in topo.prr_overrides() {
            builder = builder.link_prr(a, b, prr);
        }
        self.topology = builder.build();
        self
    }

    /// Number of traffic-generating (non-root) nodes.
    pub fn senders(&self) -> usize {
        self.topology.len() - self.roots.len()
    }

    /// The communication range of a [`Scenario::line`] with `spacing`
    /// metres between neighbours: only the next node is in range.
    pub(crate) fn line_range(spacing: f64) -> f64 {
        spacing * 1.2
    }

    fn dodag_positions(n: usize, origin: Position) -> Vec<Position> {
        assert!(
            Self::DODAG_SIZES.contains(&n),
            "dodag size must be in 2..=10, got {n}"
        );
        let mut positions = vec![origin];
        let ring1 = n.saturating_sub(1).min(3);
        let ring1_angles: Vec<f64> = (0..ring1)
            .map(|i| i as f64 * std::f64::consts::TAU / 3.0)
            .collect();
        for &a in &ring1_angles {
            positions.push(origin.offset(RING1 * a.cos(), RING1 * a.sin()));
        }
        // Remaining nodes go behind ring-1 parents, round-robin, with a
        // small angular stagger when a parent hosts several.
        let ring2 = n - 1 - ring1;
        for j in 0..ring2 {
            let parent_angle = ring1_angles[j % ring1];
            let stagger = ((j / ring1) as f64) * 0.26; // ~15°
            let a = parent_angle + stagger;
            positions.push(origin.offset(RING2 * a.cos(), RING2 * a.sin()));
        }
        positions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_dodag_7_matches_fig8() {
        let s = Scenario::two_dodag(7);
        assert_eq!(s.topology.len(), 14);
        assert_eq!(s.roots, vec![NodeId::new(0), NodeId::new(7)]);
        assert_eq!(s.senders(), 12);
    }

    #[test]
    fn dodags_are_radio_isolated() {
        let s = Scenario::two_dodag(7);
        // No node of DODAG A is audible in DODAG B.
        for a in 0..7u16 {
            for b in 7..14u16 {
                assert!(!s.topology.audible(NodeId::new(a), NodeId::new(b)));
            }
        }
    }

    #[test]
    fn each_dodag_is_internally_connected() {
        for n in [6, 7, 8, 9] {
            let s = Scenario::single_dodag(n);
            assert!(s.topology.is_connected(), "dodag of {n} must be connected");
        }
    }

    #[test]
    fn ring2_nodes_cannot_reach_the_root() {
        let s = Scenario::single_dodag(7);
        // Nodes 4..6 are second-ring: out of the root's range.
        for i in 4..7u16 {
            assert!(
                !s.topology.in_range(NodeId::new(0), NodeId::new(i)),
                "n{i} must be 2 hops out"
            );
        }
        // But each reaches at least one ring-1 node.
        for i in 4..7u16 {
            let reachable = (1..4u16).any(|p| s.topology.in_range(NodeId::new(i), NodeId::new(p)));
            assert!(reachable, "n{i} needs a ring-1 parent");
        }
    }

    #[test]
    fn line_and_star_shapes() {
        let line = Scenario::line(5, 30.0);
        assert_eq!(line.topology.len(), 5);
        assert!(line.topology.is_connected());
        let star = Scenario::star(6);
        assert_eq!(star.topology.len(), 7);
        for leaf in 1..7u16 {
            assert!(star.topology.in_range(NodeId::new(0), NodeId::new(leaf)));
        }
    }

    #[test]
    fn large_grid_is_120_nodes_multihop_and_connected() {
        let s = Scenario::large_grid();
        assert_eq!(s.topology.len(), 120);
        assert_eq!(s.name, "large-grid-120");
        assert!(s.topology.is_connected());
        // Orthogonal neighbours are audible, diagonals are not.
        assert!(s.topology.in_range(NodeId::new(0), NodeId::new(1)));
        assert!(s.topology.in_range(NodeId::new(0), NodeId::new(12)));
        assert!(!s.topology.in_range(NodeId::new(0), NodeId::new(13)));
        // The far corner is many hops from the root.
        assert!(!s.topology.in_range(NodeId::new(0), NodeId::new(119)));
    }

    #[test]
    fn large_star_is_120_nodes_single_hop() {
        let s = Scenario::large_star();
        assert_eq!(s.topology.len(), 120);
        assert_eq!(s.senders(), 119);
        for leaf in 1..120u16 {
            assert!(s.topology.in_range(NodeId::new(0), NodeId::new(leaf)));
        }
    }

    #[test]
    fn random_is_connected_and_deterministic() {
        let a = Scenario::random(10, 120.0, 5);
        let b = Scenario::random(10, 120.0, 5);
        assert!(a.topology.is_connected());
        assert_eq!(
            a.topology.position(NodeId::new(3)),
            b.topology.position(NodeId::new(3)),
            "same seed ⇒ same placement"
        );
    }

    #[test]
    fn with_link_model_preserves_placement() {
        let s = Scenario::star(3);
        let p = s.topology.position(NodeId::new(2));
        let s2 = s.with_link_model(LinkModel::Perfect);
        assert_eq!(s2.topology.position(NodeId::new(2)), p);
        assert_eq!(s2.topology.prr(NodeId::new(0), NodeId::new(1)), 1.0);
    }

    #[test]
    fn with_link_model_keeps_interference_factor_and_overrides() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let s = Scenario {
            name: "pair".into(),
            topology: TopologyBuilder::new(40.0)
                .interference_factor(2.0)
                .node(Position::ORIGIN)
                .node(Position::new(30.0, 0.0))
                .link_prr(a, b, 0.25)
                .build(),
            roots: vec![a],
        };
        let s2 = s.with_link_model(LinkModel::Perfect);
        assert_eq!(s2.topology.link_model(), LinkModel::Perfect);
        assert_eq!(s2.topology.interference_factor(), 2.0);
        assert_eq!(s2.topology.link_prr_override(a, b), Some(0.25));
        assert_eq!(s2.topology.prr(a, b), 0.25);
        assert_eq!(s2.topology.prr(b, a), 1.0);
    }

    #[test]
    #[should_panic(expected = "dodag size")]
    fn oversized_dodag_rejected() {
        let _ = Scenario::single_dodag(11);
    }

    #[test]
    fn city_clusters_are_isolated_islands_with_their_own_roots() {
        let s = Scenario::city(5, 40);
        assert_eq!(s.name, "city-5x40");
        assert_eq!(s.topology.len(), 200);
        assert_eq!(
            s.roots,
            (0..5)
                .map(|d| NodeId::from_index(d * 40))
                .collect::<Vec<_>>()
        );
        // No node hears a node of another cluster, not even as
        // interference …
        for id in s.topology.node_ids() {
            let cluster = id.index() / 40;
            for peer in s.topology.audible_neighbors(id) {
                assert_eq!(peer.index() / 40, cluster, "{id} hears {peer}");
            }
        }
        // … and each cluster is connected. Clusters are translated
        // copies of one disc, so checking one covers them all.
        assert!(Scenario::city(1, 40).topology.is_connected());
    }

    #[test]
    fn city_clusters_are_multihop_and_deterministic() {
        let s = Scenario::city(1, 100);
        // The sunflower disc is several hops deep: the outermost node is
        // out of the root's range but the cluster is still connected.
        assert!(!s.topology.in_range(NodeId::new(0), NodeId::new(99)));
        assert!(s.topology.is_connected());
        // Pure function of the counts: no hidden RNG.
        assert_eq!(s.topology, Scenario::city(1, 100).topology);
    }

    #[test]
    #[should_panic(expected = "overflows the u16 id space")]
    fn oversized_city_rejected() {
        let _ = Scenario::city(700, 100);
    }
}
