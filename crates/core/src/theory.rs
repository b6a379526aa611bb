//! Closed-form bounds from the paper's analysis (Lemmas 3.11–3.14).
//!
//! Experiment E4 compares the recursion trace measured by
//! [`crate::trace::RecursionTrace`] against these formulas. The formulas are
//! stated for the paper's exponents (bin exponent 0.1, decay 0.9); the
//! functions take the decay exponent as a parameter so the scaled-down
//! configurations can be checked against the correspondingly generalized
//! bounds.

/// Lemma 3.11 — bounds on the degree parameter at recursion depth `i`:
/// `½·Δ^{0.9^i} < ℓ_i ≤ Δ^{0.9^i}` (with `decay = 0.9`).
///
/// Returns `(lower, upper)`.
pub fn ell_bounds(delta: u64, depth: u32, decay: f64) -> (f64, f64) {
    let exponent = decay.powi(depth as i32);
    let upper = (delta as f64).powf(exponent);
    (0.5 * upper, upper)
}

/// Lemma 3.12 — upper bound on the number of nodes of an instance at
/// recursion depth `i`: `n_i ≤ 3^i · (𝔫·Δ^{0.9^i − 1} + 𝔫^{0.6})`.
pub fn node_count_bound(n: usize, delta: u64, depth: u32, decay: f64) -> f64 {
    let n = n as f64;
    let delta = (delta as f64).max(1.0);
    let exponent = decay.powi(depth as i32) - 1.0;
    3f64.powi(depth as i32) * (n * delta.powf(exponent) + n.powf(0.6))
}

/// Lemma 3.13 — upper bound on the maximum degree of an instance at
/// recursion depth `i`: `Δ_i ≤ 2^i · Δ^{0.9^i}`.
pub fn degree_bound(delta: u64, depth: u32, decay: f64) -> f64 {
    let exponent = decay.powi(depth as i32);
    2f64.powi(depth as i32) * (delta as f64).powf(exponent)
}

/// Lemma 3.14 — upper bound on the total size (nodes × degree) of the graph
/// induced by any bin at recursion depth `i`:
/// `|G'| ≤ 6^i · (𝔫·Δ^{0.9^i − 1} + 𝔫^{0.6}) · Δ^{0.9^i}`.
pub fn instance_size_bound(n: usize, delta: u64, depth: u32, decay: f64) -> f64 {
    // The 3^i of Lemma 3.12 and the 2^i of Lemma 3.13 combine into the 6^i of
    // Lemma 3.14, so the size bound is exactly the product of the two.
    node_count_bound(n, delta, depth, decay) * degree_bound(delta, depth, decay)
}

/// The recursion depth after which the paper's analysis guarantees every bin
/// instance has size O(𝔫): the smallest `i` with `Δ^{0.9^i} ≤ Δ^{0.4}`
/// (the paper fixes `i = 9` for decay 0.9). For other decay exponents the
/// same criterion `decay^i ≤ 0.4` is used.
pub fn guaranteed_collection_depth(decay: f64) -> u32 {
    let mut depth = 0u32;
    let mut exponent = 1.0f64;
    while exponent > 0.4 && depth < 64 {
        exponent *= decay;
        depth += 1;
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ell_bounds_decrease_with_depth() {
        let delta = 1u64 << 40;
        let (lo0, hi0) = ell_bounds(delta, 0, 0.9);
        let (lo3, hi3) = ell_bounds(delta, 3, 0.9);
        assert_eq!(hi0, delta as f64);
        assert!(hi3 < hi0);
        assert!(lo0 < hi0 && lo3 < hi3);
        assert_eq!(lo0, 0.5 * hi0);
    }

    #[test]
    fn paper_guarantees_depth_nine() {
        assert_eq!(guaranteed_collection_depth(0.9), 9);
        // Faster decay collects sooner.
        assert!(guaranteed_collection_depth(0.6) < 9);
        assert_eq!(guaranteed_collection_depth(0.39), 1);
    }

    #[test]
    fn node_count_bound_at_depth_zero_is_about_n() {
        let bound = node_count_bound(10_000, 1 << 30, 0, 0.9);
        // 3^0 (n·Δ^0 + n^0.6) = n + n^0.6.
        assert!(bound >= 10_000.0);
        assert!(bound <= 10_000.0 + 10_000f64.powf(0.6) + 1.0);
    }

    #[test]
    fn degree_bound_matches_lemma_at_depth_zero() {
        assert_eq!(degree_bound(500, 0, 0.9), 500.0);
        assert!(degree_bound(500, 2, 0.9) < 4.0 * 500.0);
    }

    #[test]
    fn instance_size_at_depth_nine_is_linear_in_n() {
        // Lemma 3.14: at depth 9 the bound is 6^9·(𝔫·Δ^{-0.6} + 𝔫^0.6)·Δ^{0.4}
        // ≤ 6^9·(𝔫·Δ^{-0.2} + 𝔫), i.e. O(𝔫) with constant ≤ 2·6^9 whenever
        // Δ^0.4 ≤ 𝔫^0.4 (always true since Δ < 𝔫).
        let n = 1_000_000usize;
        let delta = 999_999u64;
        let depth = guaranteed_collection_depth(0.9);
        let constant = instance_size_bound(n, delta, depth, 0.9) / n as f64;
        assert!(
            constant <= 2.0 * 6f64.powi(9),
            "constant {constant} too large"
        );
        assert!(constant > 1.0);
    }

    #[test]
    fn size_bound_is_product_of_node_and_degree_bounds() {
        let n = 5000;
        let delta = 4000;
        for depth in 0..5 {
            let size = instance_size_bound(n, delta, depth, 0.9);
            let prod = node_count_bound(n, delta, depth, 0.9) * degree_bound(delta, depth, 0.9);
            assert!((size - prod).abs() < 1e-6 * prod.max(1.0));
        }
    }
}
