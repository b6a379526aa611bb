//! The Bellare–Rompel concentration bound for sums of c-wise independent
//! variables (Lemma 2.2 of the paper).
//!
//! The analysis of `Partition` bounds the probability that a node's
//! within-bin degree or within-bin palette deviates from its expectation via
//!
//! Pr[|Z − μ| ≥ λ] ≤ 2·(c·t / λ²)^{c/2}
//!
//! for Z a sum of `t` c-wise independent `[0,1]` variables. The algorithm
//! only uses it implicitly, through the good/bad thresholds, and nothing
//! outside this module calls it. Its tests show that the worst-case
//! constants only bite at astronomically large ℓ, which README
//! substitution #2 cites for checking each chosen seed's cost at run time.

/// The Bellare–Rompel tail bound `2·(c·t / λ²)^{c/2}` (Lemma 2.2).
///
/// `c` must be an even integer ≥ 4 for the lemma to apply; the function
/// clamps the result to 1 since it is a probability bound.
///
/// # Panics
///
/// Panics if `c < 4` or `c` is odd, or `lambda <= 0`.
pub fn bellare_rompel_bound(c: u32, t: f64, lambda: f64) -> f64 {
    assert!(
        c >= 4 && c.is_multiple_of(2),
        "Lemma 2.2 requires an even c >= 4, got {c}"
    );
    assert!(lambda > 0.0, "deviation lambda must be positive");
    let base = (f64::from(c) * t) / (lambda * lambda);
    let bound = 2.0 * base.powf(f64::from(c) / 2.0);
    bound.min(1.0)
}

/// The smallest even `c ≥ 4` for which the Bellare–Rompel bound at deviation
/// `lambda` over `t` variables drops below `target`. Returns `None` if even
/// `c = c_max` does not suffice (i.e. the base of the power is ≥ 1).
pub fn independence_needed(t: f64, lambda: f64, target: f64, c_max: u32) -> Option<u32> {
    let mut c = 4;
    while c <= c_max {
        if bellare_rompel_bound(c, t, lambda) <= target {
            return Some(c);
        }
        c += 2;
    }
    None
}

/// The deviation threshold ℓ^0.6 and related fractional powers used by the
/// paper's good/bad definitions, provided here so every crate computes them
/// identically (floating point, then compared against integer counts).
pub fn fractional_power(base: u64, exponent: f64) -> f64 {
    (base as f64).powf(exponent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_decreases_with_larger_deviation() {
        let a = bellare_rompel_bound(4, 1000.0, 50.0);
        let b = bellare_rompel_bound(4, 1000.0, 200.0);
        assert!(b < a);
    }

    #[test]
    fn bound_decreases_with_higher_independence_when_base_below_one() {
        // base = c*t/λ² ; keep it well below 1 so increasing c helps.
        let t = 100.0;
        let lambda = 100.0;
        let a = bellare_rompel_bound(4, t, lambda);
        let b = bellare_rompel_bound(8, t, lambda);
        assert!(
            b < a,
            "higher independence should tighten the bound ({a} vs {b})"
        );
    }

    #[test]
    fn bound_is_clamped_to_one() {
        assert_eq!(bellare_rompel_bound(4, 1e9, 1.0), 1.0);
    }

    #[test]
    fn paper_regime_constants_are_asymptotic() {
        // The paper's regime: t ≈ ℓ, λ = ℓ^0.6, target ℓ^{-3}. The bound
        // 2·(c·ℓ^{-0.2})^{c/2} only drops below ℓ^{-3} once ℓ^{0.2} is large
        // compared to the constant c — i.e. for astronomically large ℓ. This
        // is exactly why the default seed selector verifies the achieved cost
        // at runtime instead of relying on the worst-case constants
        // (substitution #2 in the README's Substitutions list).
        let ell_small = 1e6_f64;
        assert_eq!(
            independence_needed(ell_small, ell_small.powf(0.6), ell_small.powf(-3.0), 64),
            None,
            "at laptop-scale ℓ the worst-case constants do not kick in"
        );
        let ell_huge = 1e40_f64;
        let c = independence_needed(ell_huge, ell_huge.powf(0.6), ell_huge.powf(-3.0), 64)
            .expect("for asymptotically large ℓ a constant c suffices");
        assert!((4..=64).contains(&c));
    }

    #[test]
    fn independence_needed_can_fail() {
        // With λ² < c·t the base exceeds 1 and no c helps.
        assert_eq!(independence_needed(100.0, 1.0, 0.5, 32), None);
    }

    #[test]
    #[should_panic(expected = "even c >= 4")]
    fn odd_c_rejected() {
        let _ = bellare_rompel_bound(5, 10.0, 1.0);
    }

    #[test]
    fn fractional_power_matches_f64_pow() {
        assert!((fractional_power(1024, 0.1) - 1024f64.powf(0.1)).abs() < 1e-12);
    }
}
