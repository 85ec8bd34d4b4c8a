//! The non-cooperative TSCH cell-allocation game (paper §VII).
//!
//! Players are IoT nodes; node `i`'s strategy is the number of TSCH Tx
//! cells `l_tx_i` it requests from its parent, constrained to
//! `S_i = [l_tx_min_i, l_rx_{p_i}]` (eq. 1 lower bound, parent's
//! advertised capacity upper bound). The payoff (eq. 8)
//!
//! ```text
//! v_i = α·R̄ank_i·ln(l+1) − β·l·(ETX−1) − γ·l·(1 − Q̄/Q_max)
//! ```
//!
//! is strictly concave in `l` (Theorem 1), and because each node's payoff
//! depends only on its own strategy, best responses are dominant
//! strategies: the unique Nash equilibrium (Theorem 2, via Rosen's
//! diagonal strict concavity) is every node playing eq. 15's closed form.
//! The tests at the bottom verify all of this numerically.

/// The user-preference weights α, β, γ of eq. 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GameWeights {
    /// Weight of the utility term (throughput appetite).
    pub alpha: f64,
    /// Weight of the link-quality cost (energy on lossy links).
    pub beta: f64,
    /// Weight of the queue cost (congestion avoidance).
    pub gamma: f64,
}

impl Default for GameWeights {
    fn default() -> Self {
        // "For networks with high quality links under heavy traffic load,
        // queue cost should have a higher priority … (γ should be greater
        // than β)" — §VII-D. These defaults follow that guidance.
        GameWeights {
            alpha: 1.0,
            beta: 0.5,
            gamma: 1.0,
        }
    }
}

impl GameWeights {
    /// True if the weights are finite, α positive and β, γ
    /// non-negative.
    pub(crate) fn is_valid(&self) -> bool {
        self.alpha > 0.0
            && self.alpha.is_finite()
            && self.beta >= 0.0
            && self.beta.is_finite()
            && self.gamma >= 0.0
            && self.gamma.is_finite()
    }

    /// Validates the weights.
    ///
    /// # Panics
    ///
    /// Panics unless the weights are finite, α positive and β, γ
    /// non-negative.
    pub fn validate(&self) {
        assert!(
            self.is_valid(),
            "game weights must be finite, with alpha positive and beta, gamma non-negative; \
             got {self:?}"
        );
    }
}

/// Which bound of the strategy set eq. 15 landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// The interior stationary point was feasible.
    Interior,
    /// Clamped to `l_tx_min` (the node needs at least its deficit).
    Lower,
    /// Clamped to `l_rx_parent` (the parent cannot grant more).
    Upper,
}

/// The outcome of the best-response computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestResponse {
    /// The optimal number of Tx cells to request.
    pub cells: u16,
    /// Which constraint was active.
    pub bound: Bound,
}

/// All inputs to node `i`'s payoff (Table I symbols).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GameInputs {
    /// `R̄ank_i = MinStepOfRank / (Rank_i − Rank_min)` (eq. 3); use
    /// [`Rank::game_weight`](gtt_rpl::Rank::game_weight).
    pub rank_weight: f64,
    /// `ETX_{i,p_i} ≥ 1` (eq. 4).
    pub etx: f64,
    /// The EWMA queue metric `Q̄_i` (eq. 6).
    pub queue_avg: f64,
    /// `Q_max`: the queue capacity.
    pub queue_max: f64,
    /// Strategy lower bound `l_tx_min_i` (eq. 1).
    pub l_tx_min: u16,
    /// Strategy upper bound `l_rx_{p_i}` (parent's DIO option).
    pub l_rx_parent: u16,
}

impl GameInputs {
    /// The utility term `u_i = R̄ank_i · ln(l+1)` (eq. 2).
    pub fn utility(&self, l: f64) -> f64 {
        self.rank_weight * (l + 1.0).ln()
    }

    /// The link-quality cost `d_i = l·(ETX−1)` (eq. 5).
    pub fn link_cost(&self, l: f64) -> f64 {
        l * (self.etx - 1.0)
    }

    /// The queue cost `z_i = l·(1 − Q̄/Q_max)` (eq. 7).
    pub fn queue_cost(&self, l: f64) -> f64 {
        l * (1.0 - self.queue_avg / self.queue_max)
    }

    /// The payoff `v_i = α·u − β·d − γ·z` (eq. 8).
    pub fn payoff(&self, weights: &GameWeights, l: f64) -> f64 {
        weights.alpha * self.utility(l)
            - weights.beta * self.link_cost(l)
            - weights.gamma * self.queue_cost(l)
    }

    /// First derivative of the payoff in `l` (used in the KKT condition).
    pub fn payoff_gradient(&self, weights: &GameWeights, l: f64) -> f64 {
        weights.alpha * self.rank_weight / (l + 1.0)
            - weights.beta * (self.etx - 1.0)
            - weights.gamma * (1.0 - self.queue_avg / self.queue_max)
    }

    /// Second derivative of the payoff in `l`: always negative (eq. 10),
    /// establishing strict concavity (Theorem 1).
    pub fn payoff_curvature(&self, weights: &GameWeights, l: f64) -> f64 {
        -weights.alpha * self.rank_weight / (l + 1.0).powi(2)
    }

    /// The unconstrained stationary point `X` of eq. 15:
    /// `X = α·R̄ank / (γ(1 − Q̄/Q_max) + β(ETX−1)) − 1`.
    ///
    /// Returns `f64::INFINITY` when the marginal cost is zero (perfect
    /// link and saturated queue) — the node then wants as many cells as
    /// the parent will give.
    pub fn stationary_point(&self, weights: &GameWeights) -> f64 {
        let marginal_cost = weights.gamma * (1.0 - self.queue_avg / self.queue_max)
            + weights.beta * (self.etx - 1.0);
        if marginal_cost <= 0.0 {
            return f64::INFINITY;
        }
        weights.alpha * self.rank_weight / marginal_cost - 1.0
    }

    /// The paper's eq. 15: the KKT-optimal `l_tx_i`, clamped to the
    /// strategy set `[l_tx_min, l_rx_parent]`.
    ///
    /// When the strategy set is empty (`l_rx_parent < l_tx_min`, i.e. the
    /// parent cannot even cover the deficit — the "`l_rx_p ≤ l_tx_min`"
    /// case in §VII), the node requests everything the parent has:
    /// `l_rx_parent`.
    ///
    /// # Panics
    ///
    /// Panics if inputs are out of domain (ETX < 1, Q̄ outside
    /// `[0, Q_max]`, non-positive `Q_max`) or weights invalid.
    pub fn best_response(&self, weights: &GameWeights) -> BestResponse {
        weights.validate();
        assert!(self.etx >= 1.0, "ETX must be ≥ 1 (eq. 4), got {}", self.etx);
        assert!(self.queue_max > 0.0, "Q_max must be positive");
        assert!(
            (0.0..=self.queue_max).contains(&self.queue_avg),
            "queue metric {} outside [0, {}]",
            self.queue_avg,
            self.queue_max
        );
        assert!(
            self.rank_weight.is_finite() && self.rank_weight > 0.0,
            "rank weight must be positive (roots do not play)"
        );

        if self.l_rx_parent <= self.l_tx_min {
            // Degenerate strategy set: take all the parent offers.
            return BestResponse {
                cells: self.l_rx_parent,
                bound: Bound::Upper,
            };
        }

        let x = self.stationary_point(weights);
        if x <= self.l_tx_min as f64 {
            BestResponse {
                cells: self.l_tx_min,
                bound: Bound::Lower,
            }
        } else if x >= self.l_rx_parent as f64 {
            BestResponse {
                cells: self.l_rx_parent,
                bound: Bound::Upper,
            }
        } else {
            // Cells are integral; round to the better of the two
            // neighbors of the continuous optimum (concavity makes the
            // comparison sufficient).
            let lo = x.floor();
            let hi = x.ceil();
            let pick = if self.payoff(weights, lo) >= self.payoff(weights, hi) {
                lo
            } else {
                hi
            };
            BestResponse {
                cells: pick as u16,
                bound: Bound::Interior,
            }
        }
    }
}

/// Computes the unique Nash equilibrium of an n-player game instance.
///
/// Because `v_i` depends only on the player's own strategy (the coupling
/// between players is through the constraint sets, fixed at decision
/// time), the equilibrium is simply every player's best response — this
/// function exists to make the game-theoretic claim executable and
/// testable against iterated best-response dynamics.
pub fn nash_equilibrium(players: &[GameInputs], weights: &GameWeights) -> Vec<u16> {
    players
        .iter()
        .map(|p| p.best_response(weights).cells)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs() -> GameInputs {
        // A first-hop forwarder with a decent link and a filling queue:
        // marginal cost = γ·(1−6/8) + β·(1.2−1) = 0.25 + 0.1 = 0.35,
        // X = 1/0.35 − 1 ≈ 1.857 — an interior optimum.
        GameInputs {
            rank_weight: 1.0,
            etx: 1.2,
            queue_avg: 6.0,
            queue_max: 8.0,
            l_tx_min: 1,
            l_rx_parent: 10,
        }
    }

    fn w() -> GameWeights {
        GameWeights::default()
    }

    #[test]
    fn payoff_terms_match_equations() {
        let g = inputs();
        // eq. 2 at l = e−1: ln(e) = 1 → u = rank_weight.
        let l = std::f64::consts::E - 1.0;
        assert!((g.utility(l) - 1.0).abs() < 1e-12);
        // eq. 5: l(ETX−1).
        assert!((g.link_cost(4.0) - 4.0 * 0.2).abs() < 1e-10);
        // eq. 7: l(1−Q/Qmax).
        assert!((g.queue_cost(4.0) - 4.0 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn curvature_is_negative_everywhere() {
        // Theorem 1: ∂²v/∂l² = −αR̄/(1+l)² < 0.
        let g = inputs();
        for l in 0..50 {
            assert!(g.payoff_curvature(&w(), l as f64) < 0.0);
        }
    }

    #[test]
    fn stationary_point_matches_gradient_zero() {
        let g = inputs();
        let x = g.stationary_point(&w());
        assert!(x.is_finite());
        assert!(
            g.payoff_gradient(&w(), x).abs() < 1e-9,
            "gradient at X must vanish"
        );
    }

    #[test]
    fn interior_optimum_beats_neighbors() {
        let g = inputs();
        let br = g.best_response(&w());
        assert_eq!(br.bound, Bound::Interior);
        let l = br.cells as f64;
        let v = g.payoff(&w(), l);
        // No feasible integer strategy does better (dominant strategy).
        for other in g.l_tx_min..=g.l_rx_parent {
            assert!(
                g.payoff(&w(), other as f64) <= v + 1e-12,
                "l={other} beats the claimed optimum {l}"
            );
        }
    }

    #[test]
    fn clamps_to_lower_bound_on_bad_links() {
        // A terrible link (ETX 8) makes extra cells expensive: the node
        // only requests its deficit.
        let g = GameInputs {
            etx: 8.0,
            l_tx_min: 3,
            ..inputs()
        };
        let br = g.best_response(&w());
        assert_eq!(br.bound, Bound::Lower);
        assert_eq!(br.cells, 3);
    }

    #[test]
    fn clamps_to_upper_bound_when_queue_saturated() {
        // Full queue ⇒ queue cost vanishes ⇒ X → ∞ ⇒ take all offered.
        let g = GameInputs {
            etx: 1.0,
            queue_avg: 8.0,
            ..inputs()
        };
        assert_eq!(g.stationary_point(&w()), f64::INFINITY);
        let br = g.best_response(&w());
        assert_eq!(br.bound, Bound::Upper);
        assert_eq!(br.cells, 10);
    }

    #[test]
    fn degenerate_strategy_set_takes_everything() {
        // §VII: "l_tx_i is set equal to l_rx_p when l_rx_p ≤ l_tx_min".
        let g = GameInputs {
            l_tx_min: 5,
            l_rx_parent: 3,
            ..inputs()
        };
        let br = g.best_response(&w());
        assert_eq!(br.cells, 3);
        assert_eq!(br.bound, Bound::Upper);
    }

    #[test]
    fn nodes_closer_to_root_request_more() {
        // eq. 3's priority: larger rank weight ⇒ larger interior optimum.
        let near = GameInputs {
            rank_weight: 1.0,
            ..inputs()
        };
        let far = GameInputs {
            rank_weight: 0.25, // 4 hops deep
            ..inputs()
        };
        assert!(
            near.best_response(&w()).cells >= far.best_response(&w()).cells,
            "closer nodes must win the allocation game"
        );
    }

    #[test]
    fn worse_links_request_fewer_cells() {
        let good = GameInputs {
            etx: 1.0,
            ..inputs()
        };
        let bad = GameInputs {
            etx: 3.0,
            ..inputs()
        };
        assert!(good.best_response(&w()).cells >= bad.best_response(&w()).cells);
    }

    #[test]
    fn fuller_queues_request_more_cells() {
        let empty = GameInputs {
            queue_avg: 0.0,
            ..inputs()
        };
        let full = GameInputs {
            queue_avg: 7.0,
            ..inputs()
        };
        assert!(full.best_response(&w()).cells >= empty.best_response(&w()).cells);
    }

    #[test]
    fn nash_is_fixed_point_of_best_response_dynamics() {
        // Theorem 2 (uniqueness): iterated best response converges in one
        // round and never moves afterwards.
        let players: Vec<GameInputs> = (1..=4)
            .map(|hop| GameInputs {
                rank_weight: 1.0 / hop as f64,
                etx: 1.0 + 0.2 * hop as f64,
                queue_avg: hop as f64,
                queue_max: 8.0,
                l_tx_min: 1,
                l_rx_parent: 12,
            })
            .collect();
        let ne = nash_equilibrium(&players, &w());
        // Re-running best responses from the equilibrium changes nothing.
        let again = nash_equilibrium(&players, &w());
        assert_eq!(ne, again);
        // And no unilateral integer deviation improves any player.
        for (p, &l_star) in players.iter().zip(&ne) {
            let v_star = p.payoff(&w(), l_star as f64);
            for dev in p.l_tx_min..=p.l_rx_parent {
                assert!(p.payoff(&w(), dev as f64) <= v_star + 1e-12);
            }
        }
    }

    #[test]
    fn diagonal_strict_concavity_numeric() {
        // Theorem 2's condition: x'(J + Jᵀ)x < 0. Cross-partials vanish
        // (payoffs decouple), so J is diagonal with the (negative)
        // curvatures on the diagonal; verify the quadratic form on a few
        // random-ish vectors.
        let players: Vec<GameInputs> = (1..=3)
            .map(|h| GameInputs {
                rank_weight: 1.0 / h as f64,
                ..inputs()
            })
            .collect();
        let diag: Vec<f64> = players
            .iter()
            .map(|p| p.payoff_curvature(&w(), 2.0))
            .collect();
        for x in [[1.0, 0.0, 0.0], [0.3, -0.7, 0.2], [1.0, 1.0, 1.0]] {
            let quad: f64 = diag.iter().zip(&x).map(|(d, xi)| 2.0 * d * xi * xi).sum();
            assert!(quad < 0.0, "quadratic form must be negative definite");
        }
    }

    #[test]
    fn rounding_picks_better_integer() {
        // Construct an instance with a fractional interior X and check
        // the rounded value dominates the other neighbor.
        let g = GameInputs {
            etx: 1.1,
            queue_avg: 6.5,
            ..inputs()
        };
        let x = g.stationary_point(&w());
        assert!(x.fract() != 0.0, "want a fractional optimum, got {x}");
        let br = g.best_response(&w());
        assert_eq!(br.bound, Bound::Interior);
        let other = if (br.cells as f64) < x {
            br.cells + 1
        } else {
            br.cells - 1
        };
        assert!(g.payoff(&w(), br.cells as f64) >= g.payoff(&w(), other as f64));
    }

    #[test]
    #[should_panic(expected = "ETX must be ≥ 1")]
    fn sub_unity_etx_rejected() {
        let g = GameInputs {
            etx: 0.5,
            ..inputs()
        };
        let _ = g.best_response(&w());
    }

    #[test]
    #[should_panic(expected = "roots do not play")]
    fn root_cannot_play() {
        let g = GameInputs {
            rank_weight: f64::NAN,
            ..inputs()
        };
        let _ = g.best_response(&w());
    }
}
