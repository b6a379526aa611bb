//! Arithmetic in the prime field GF(p) for the Mersenne prime p = 2⁶¹ − 1.
//!
//! The polynomial hash families evaluate degree-(c−1) polynomials over this
//! field. 2⁶¹−1 is chosen because reduction after a 64×64→128-bit multiply is
//! two shifts and an add, and because p comfortably exceeds every domain the
//! algorithms hash from (node ids `< 𝔫` and color ids `< 𝔫²`).

/// The Mersenne prime 2⁶¹ − 1.
pub const MERSENNE_61: u64 = (1u64 << 61) - 1;

/// An element of GF(2⁶¹ − 1), always kept in canonical reduced form
/// `0 <= value < p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Mersenne61(u64);

impl Mersenne61 {
    /// The additive identity.
    pub const ZERO: Mersenne61 = Mersenne61(0);

    /// The multiplicative identity.
    pub const ONE: Mersenne61 = Mersenne61(1);

    /// Builds a field element, reducing `value` modulo p.
    #[inline]
    pub fn new(value: u64) -> Self {
        Mersenne61(reduce64(value))
    }

    /// Returns the canonical representative in `0..p`.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// Field addition.
    // Named `add`/`mul` (not the `ops` traits) so call sites read as field
    // arithmetic and never pick up integer semantics by accident.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn add(self, other: Mersenne61) -> Mersenne61 {
        let mut s = self.0 + other.0; // < 2^62, no overflow
        if s >= MERSENNE_61 {
            s -= MERSENNE_61;
        }
        Mersenne61(s)
    }

    /// Field multiplication.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn mul(self, other: Mersenne61) -> Mersenne61 {
        Mersenne61(reduce128(u128::from(self.0) * u128::from(other.0)))
    }

    /// `constant + Σ aᵢ·xᵢ` over the `(aᵢ, xᵢ)` pairs of `terms`: the
    /// products are summed as 128-bit integers and reduced once at the end
    /// (or whenever the sum passes 2¹²⁷), not after every operation.
    #[inline]
    pub fn sum_of_products(
        constant: Mersenne61,
        terms: impl IntoIterator<Item = (Mersenne61, Mersenne61)>,
    ) -> Mersenne61 {
        let mut sum = u128::from(constant.0);
        for (a, x) in terms {
            // Each product is below p² < 2¹²², so the sum stays below 2¹²⁸.
            sum += u128::from(a.0) * u128::from(x.0);
            if sum >> 127 != 0 {
                sum = u128::from(reduce128(sum));
            }
        }
        Mersenne61(reduce128(sum))
    }

    /// Horner evaluation of the polynomial with the given coefficients
    /// (`coefficients[0]` is the constant term) at point `x`.
    pub fn horner(coefficients: &[Mersenne61], x: Mersenne61) -> Mersenne61 {
        let mut acc = Mersenne61::ZERO;
        for &c in coefficients.iter().rev() {
            acc = acc.mul(x).add(c);
        }
        acc
    }
}

impl From<u64> for Mersenne61 {
    fn from(value: u64) -> Self {
        Mersenne61::new(value)
    }
}

impl std::fmt::Display for Mersenne61 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Reduces a 64-bit value modulo 2⁶¹ − 1.
#[inline]
fn reduce64(x: u64) -> u64 {
    let mut r = (x & MERSENNE_61) + (x >> 61);
    if r >= MERSENNE_61 {
        r -= MERSENNE_61;
    }
    r
}

/// Reduces a 128-bit value modulo 2⁶¹ − 1.
#[inline]
fn reduce128(x: u128) -> u64 {
    let low = (x as u64) & MERSENNE_61;
    let high = x >> 61;
    // `high` can be up to 2^67, reduce it recursively (one more level
    // suffices because 2^67 / 2^61 is tiny).
    let high_low = (high as u64) & MERSENNE_61;
    let high_high = (high >> 61) as u64;
    let mut r = low + high_low + high_high;
    while r >= MERSENNE_61 {
        r -= MERSENNE_61;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulus_is_prime_mersenne() {
        assert_eq!(MERSENNE_61, 2_305_843_009_213_693_951);
    }

    #[test]
    fn reduction_of_modulus_is_zero() {
        assert_eq!(Mersenne61::new(MERSENNE_61).value(), 0);
        assert_eq!(Mersenne61::new(MERSENNE_61 + 5).value(), 5);
        assert_eq!(Mersenne61::new(u64::MAX).value(), u64::MAX % MERSENNE_61);
    }

    #[test]
    fn addition_wraps_correctly() {
        let a = Mersenne61::new(MERSENNE_61 - 1);
        let b = Mersenne61::new(2);
        assert_eq!(a.add(b).value(), 1);
        assert_eq!(a.add(Mersenne61::ZERO), a);
    }

    #[test]
    fn multiplication_matches_u128_reference() {
        let pairs = [
            (0u64, 12345u64),
            (1, MERSENNE_61 - 1),
            (123_456_789, 987_654_321),
            (MERSENNE_61 - 1, MERSENNE_61 - 1),
            (1 << 60, (1 << 60) + 12345),
        ];
        for (a, b) in pairs {
            let expected = ((u128::from(a % MERSENNE_61) * u128::from(b % MERSENNE_61))
                % u128::from(MERSENNE_61)) as u64;
            assert_eq!(
                Mersenne61::new(a).mul(Mersenne61::new(b)).value(),
                expected,
                "a={a} b={b}"
            );
        }
    }

    #[test]
    fn sum_of_products_matches_field_operations() {
        let big = Mersenne61::new(MERSENNE_61 - 1);
        // Enough maximal products to pass 2^127 and force the early
        // reduction.
        for count in [0usize, 1, 3, 40] {
            let terms: Vec<(Mersenne61, Mersenne61)> = (0..count as u64)
                .map(|i| (Mersenne61::new(MERSENNE_61 - 1 - i), big))
                .collect();
            let expected = terms
                .iter()
                .fold(Mersenne61::new(7), |acc, &(a, x)| acc.add(a.mul(x)));
            assert_eq!(
                Mersenne61::sum_of_products(Mersenne61::new(7), terms),
                expected
            );
        }
    }

    #[test]
    fn horner_evaluates_polynomial() {
        // p(x) = 3 + 2x + x^2 at x = 5 -> 3 + 10 + 25 = 38.
        let coeffs = [Mersenne61::new(3), Mersenne61::new(2), Mersenne61::new(1)];
        assert_eq!(Mersenne61::horner(&coeffs, Mersenne61::new(5)).value(), 38);
        // Empty polynomial is zero.
        assert_eq!(
            Mersenne61::horner(&[], Mersenne61::new(5)),
            Mersenne61::ZERO
        );
    }

    #[test]
    fn display_and_from() {
        let x: Mersenne61 = 42u64.into();
        assert_eq!(format!("{x}"), "42");
        assert_eq!(Mersenne61::ONE.value(), 1);
    }
}
