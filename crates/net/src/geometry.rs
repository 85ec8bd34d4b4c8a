//! 2-D placement geometry.

use std::fmt;

/// A node position in metres on a 2-D plane.
///
/// The paper's testbed places motes on building floors; a plane is
/// sufficient because a DODAG never spans floors (§VIII: "for each level,
/// we have a DODAG that cannot be seen by IoT nodes placed in other
/// levels").
///
/// # Example
///
/// ```
/// use gtt_net::Position;
/// let a = Position::new(0.0, 0.0);
/// let b = Position::new(3.0, 4.0);
/// assert_eq!(a.distance_to(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
}

impl Position {
    /// The origin.
    pub const ORIGIN: Position = Position { x: 0.0, y: 0.0 };

    /// Creates a position.
    pub const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other` in metres.
    pub fn distance_to(self, other: Position) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared euclidean distance to `other` in m² — range checks on the
    /// medium's hot path compare against a squared radius to skip the
    /// square root.
    pub fn distance_sq(self, other: Position) -> f64 {
        (self.x - other.x).powi(2) + (self.y - other.y).powi(2)
    }

    /// Returns this position translated by `(dx, dy)`.
    pub fn offset(self, dx: f64, dy: f64) -> Position {
        Position::new(self.x + dx, self.y + dy)
    }

    /// Midpoint between this position and `other`.
    pub fn midpoint(self, other: Position) -> Position {
        Position::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Position {
    fn from((x, y): (f64, f64)) -> Self {
        Position::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Position::new(1.0, 2.0);
        let b = Position::new(4.0, 6.0);
        assert_eq!(a.distance_to(b), b.distance_to(a));
        assert_eq!(a.distance_to(b), 5.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Position::new(-3.5, 8.25);
        assert_eq!(p.distance_to(p), 0.0);
    }

    #[test]
    fn offset_and_midpoint() {
        let p = Position::ORIGIN.offset(10.0, 0.0);
        assert_eq!(p, Position::new(10.0, 0.0));
        assert_eq!(Position::ORIGIN.midpoint(p), Position::new(5.0, 0.0));
    }

    #[test]
    fn tuple_conversion() {
        let p: Position = (2.0, 3.0).into();
        assert_eq!(p, Position::new(2.0, 3.0));
    }
}
