//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] is *data*: a topology generator and its
//! parameters, comparable, cloneable and canonically encodable (see
//! [`Experiment::encode`](crate::Experiment::encode)). Calling
//! [`ScenarioSpec::build`] materializes it into the [`Scenario`] value
//! (positions, roots, precomputed audibility) the engine consumes — so
//! every experiment input stays a compact description rather than a
//! multi-kilobyte topology dump, and two processes that build the same
//! spec get byte-identical networks.

use gtt_engine::NetworkBuilder;
use gtt_net::{TopologyBuilder, MAX_NODES};

use crate::scenario::Scenario;

/// Which network an experiment runs on: a topology generator with its
/// parameters.
///
/// Variants mirror the [`Scenario`] constructors one-to-one; `Custom`
/// is the escape hatch for hand-built topologies (encoded in full), a
/// non-default link model included (see [`Scenario::with_link_model`]).
/// The traffic model (per-node CBR rate) lives in
/// [`RunSpec::traffic_ppm`](crate::RunSpec) next to the timing it is
/// meaningless without.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSpec {
    /// [`Scenario::single_dodag`].
    SingleDodag {
        /// Nodes in the DODAG (root + rings), `2..=10`.
        n: usize,
    },
    /// [`Scenario::two_dodag`] — the paper's evaluation network.
    TwoDodag {
        /// Nodes per DODAG, `2..=10`.
        nodes_per_dodag: usize,
    },
    /// [`Scenario::line`].
    Line {
        /// Node count, from 2 to [`MAX_NODES`].
        n: usize,
        /// Spacing between neighbours, metres (positive and finite).
        spacing: f64,
    },
    /// [`Scenario::star`].
    Star {
        /// Leaf count, from 1 to [`MAX_NODES`] − 1.
        leaves: usize,
    },
    /// [`Scenario::grid`].
    Grid {
        /// Columns (≥ 1; at most [`MAX_NODES`] nodes in all).
        cols: usize,
        /// Rows (≥ 1).
        rows: usize,
        /// Spacing between orthogonal neighbours, metres.
        spacing: f64,
    },
    /// [`Scenario::large_grid`] — the 120-node scaling grid.
    LargeGrid,
    /// [`Scenario::large_star`] — the 120-node dense star.
    LargeStar,
    /// [`Scenario::random`].
    Random {
        /// Node count, from 1 to [`MAX_NODES`].
        n: usize,
        /// Side of the placement square, metres.
        side: f64,
        /// Placement seed (independent of the run seed).
        seed: u64,
    },
    /// A hand-built scenario, carried (and encoded) in full: at most
    /// [`MAX_NODES`] nodes, with at least one root, each of them a
    /// node. Boxed so the common generator variants stay a few words
    /// wide.
    Custom(Box<Scenario>),
    /// [`Scenario::city`] — multi-DODAG clustered layouts at 1k/10k
    /// nodes, one border-router root per cluster.
    City {
        /// Cluster (DODAG) count (≥ 1; at most [`MAX_NODES`] nodes in
        /// all).
        dodags: usize,
        /// Nodes per cluster including its root (≥ 2).
        nodes_per_dodag: usize,
    },
}

impl ScenarioSpec {
    /// [`Scenario::single_dodag`] as a spec.
    pub fn single_dodag(n: usize) -> Self {
        ScenarioSpec::SingleDodag { n }
    }

    /// [`Scenario::two_dodag`] as a spec.
    pub fn two_dodag(nodes_per_dodag: usize) -> Self {
        ScenarioSpec::TwoDodag { nodes_per_dodag }
    }

    /// [`Scenario::line`] as a spec.
    pub fn line(n: usize, spacing: f64) -> Self {
        ScenarioSpec::Line { n, spacing }
    }

    /// [`Scenario::star`] as a spec.
    pub fn star(leaves: usize) -> Self {
        ScenarioSpec::Star { leaves }
    }

    /// [`Scenario::grid`] as a spec.
    pub fn grid(cols: usize, rows: usize, spacing: f64) -> Self {
        ScenarioSpec::Grid {
            cols,
            rows,
            spacing,
        }
    }

    /// [`Scenario::large_grid`] as a spec.
    pub fn large_grid() -> Self {
        ScenarioSpec::LargeGrid
    }

    /// [`Scenario::large_star`] as a spec.
    pub fn large_star() -> Self {
        ScenarioSpec::LargeStar
    }

    /// [`Scenario::random`] as a spec.
    pub fn random(n: usize, side: f64, seed: u64) -> Self {
        ScenarioSpec::Random { n, side, seed }
    }

    /// Wraps a hand-built [`Scenario`].
    pub fn custom(scenario: Scenario) -> Self {
        ScenarioSpec::Custom(Box::new(scenario))
    }

    /// [`Scenario::city`] as a spec.
    pub fn city(dodags: usize, nodes_per_dodag: usize) -> Self {
        ScenarioSpec::City {
            dodags,
            nodes_per_dodag,
        }
    }

    /// The number of nodes [`ScenarioSpec::build`] places, without
    /// building (saturating at `usize::MAX` where a size overflows).
    pub fn node_count(&self) -> usize {
        match self {
            ScenarioSpec::SingleDodag { n }
            | ScenarioSpec::Line { n, .. }
            | ScenarioSpec::Random { n, .. } => *n,
            ScenarioSpec::TwoDodag { nodes_per_dodag } => nodes_per_dodag.saturating_mul(2),
            ScenarioSpec::Star { leaves } => leaves.saturating_add(1),
            ScenarioSpec::Grid { cols, rows, .. } => cols.saturating_mul(*rows),
            ScenarioSpec::LargeGrid | ScenarioSpec::LargeStar => 120,
            ScenarioSpec::Custom(s) => s.topology.len(),
            ScenarioSpec::City {
                dodags,
                nodes_per_dodag,
            } => dodags.saturating_mul(*nodes_per_dodag),
        }
    }

    /// True if every parameter lies in the range its variant documents,
    /// so [`ScenarioSpec::build`] and building a network on the result
    /// do not panic on it; the [`Scenario`] constructors assert it. A
    /// random placement that never connects still panics in
    /// [`Scenario::random`]: only drawing it can tell.
    pub(crate) fn is_valid(&self) -> bool {
        let min_nodes = match self {
            ScenarioSpec::Line { .. } | ScenarioSpec::Star { .. } | ScenarioSpec::City { .. } => 2,
            _ => 1,
        };
        // Node ids are `u16`s: at most `MAX_NODES` nodes.
        (min_nodes..=MAX_NODES).contains(&self.node_count())
            && match self {
                ScenarioSpec::SingleDodag { n } | ScenarioSpec::TwoDodag { nodes_per_dodag: n } => {
                    Scenario::DODAG_SIZES.contains(n)
                }
                ScenarioSpec::Line { spacing, .. } => {
                    TopologyBuilder::is_valid_range(Scenario::line_range(*spacing))
                }
                ScenarioSpec::Custom(s) => {
                    NetworkBuilder::are_valid_roots(&s.roots, s.topology.len())
                }
                ScenarioSpec::City {
                    nodes_per_dodag, ..
                } => *nodes_per_dodag >= 2,
                ScenarioSpec::Star { .. }
                | ScenarioSpec::Grid { .. }
                | ScenarioSpec::LargeGrid
                | ScenarioSpec::LargeStar
                | ScenarioSpec::Random { .. } => true,
            }
    }

    /// The scenario's human-readable name, without building it.
    pub fn name(&self) -> String {
        match self {
            ScenarioSpec::SingleDodag { n } => format!("single-dodag-{n}"),
            ScenarioSpec::TwoDodag { nodes_per_dodag } => format!("two-dodag-{nodes_per_dodag}"),
            ScenarioSpec::Line { n, .. } => format!("line-{n}"),
            ScenarioSpec::Star { leaves } => format!("star-{leaves}"),
            ScenarioSpec::Grid { cols, rows, .. } => format!("grid-{cols}x{rows}"),
            ScenarioSpec::LargeGrid => "large-grid-120".into(),
            ScenarioSpec::LargeStar => "large-star-120".into(),
            ScenarioSpec::Random { n, .. } => format!("random-{n}"),
            ScenarioSpec::Custom(s) => s.name.clone(),
            ScenarioSpec::City {
                dodags,
                nodes_per_dodag,
            } => format!("city-{dodags}x{nodes_per_dodag}"),
        }
    }

    /// Materializes the spec into a runnable [`Scenario`].
    ///
    /// # Panics
    ///
    /// Panics when a generator's parameters lie outside the ranges its
    /// variant documents, and when [`Scenario::random`] finds no
    /// connected placement.
    pub fn build(&self) -> Scenario {
        match self {
            ScenarioSpec::SingleDodag { n } => Scenario::single_dodag(*n),
            ScenarioSpec::TwoDodag { nodes_per_dodag } => Scenario::two_dodag(*nodes_per_dodag),
            ScenarioSpec::Line { n, spacing } => Scenario::line(*n, *spacing),
            ScenarioSpec::Star { leaves } => Scenario::star(*leaves),
            ScenarioSpec::Grid {
                cols,
                rows,
                spacing,
            } => Scenario::grid(*cols, *rows, *spacing),
            ScenarioSpec::LargeGrid => Scenario::large_grid(),
            ScenarioSpec::LargeStar => Scenario::large_star(),
            ScenarioSpec::Random { n, side, seed } => Scenario::random(*n, *side, *seed),
            ScenarioSpec::Custom(s) => (**s).clone(),
            ScenarioSpec::City {
                dodags,
                nodes_per_dodag,
            } => Scenario::city(*dodags, *nodes_per_dodag),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_build_the_same_scenarios_as_the_constructors() {
        let pairs: Vec<(ScenarioSpec, Scenario)> = vec![
            (ScenarioSpec::single_dodag(7), Scenario::single_dodag(7)),
            (ScenarioSpec::two_dodag(6), Scenario::two_dodag(6)),
            (ScenarioSpec::line(5, 30.0), Scenario::line(5, 30.0)),
            (ScenarioSpec::star(6), Scenario::star(6)),
            (ScenarioSpec::grid(3, 4, 30.0), Scenario::grid(3, 4, 30.0)),
            (ScenarioSpec::large_grid(), Scenario::large_grid()),
            (ScenarioSpec::large_star(), Scenario::large_star()),
            (
                ScenarioSpec::random(10, 120.0, 5),
                Scenario::random(10, 120.0, 5),
            ),
            (ScenarioSpec::city(4, 25), Scenario::city(4, 25)),
        ];
        for (spec, scenario) in pairs {
            assert!(spec.is_valid(), "{}", spec.name());
            assert_eq!(
                spec.node_count(),
                scenario.topology.len(),
                "{}",
                spec.name()
            );
            assert_eq!(spec.build(), scenario, "{}", spec.name());
            assert_eq!(spec.name(), scenario.name);
        }
    }

    #[test]
    fn custom_round_trips_through_build() {
        let scenario = Scenario::line(3, 25.0);
        let spec = ScenarioSpec::custom(scenario.clone());
        assert_eq!(spec.build(), scenario);
        assert_eq!(spec.name(), "line-3");
    }
}
