//! Fairness over per-node results.

/// Jain's fairness index over a resource-allocation vector:
/// `J = (Σx)² / (n · Σx²)`.
///
/// Ranges from `1/n` (one node gets everything) to `1.0` (perfectly
/// equal shares). Returns 1.0 for an empty or all-zero vector — nothing
/// was allocated, so nothing was allocated unfairly.
///
/// # Example
///
/// ```
/// use gtt_metrics::jain_index;
/// assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
/// assert!((jain_index(&[9.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
/// ```
pub fn jain_index(values: &[f64]) -> f64 {
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|v| v * v).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (values.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_ranges() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[4.0, 4.0, 4.0, 4.0]) - 1.0).abs() < 1e-12);
        // One of n nodes hogging everything gives exactly 1/n.
        assert!((jain_index(&[0.0, 0.0, 0.0, 8.0]) - 0.25).abs() < 1e-12);
        // Mild skew sits strictly between the extremes.
        let j = jain_index(&[1.0, 2.0, 3.0]);
        assert!(j > 1.0 / 3.0 && j < 1.0, "{j}");
    }
}
