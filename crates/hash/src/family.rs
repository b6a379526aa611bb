//! c-wise independent hash function families (Lemma 2.4).
//!
//! The construction is the textbook one: a uniformly random polynomial of
//! degree c−1 over the prime field GF(2⁶¹−1) is c-wise independent on any
//! domain smaller than the field, and its O(c·log p)-bit coefficient vector
//! is the seed. The field value is then mapped to the target range
//! `{0, …, L-1}` by splitting `[0, p)` into L near-equal intervals — the same
//! "map intervals of the range as equally as possible" trick the paper uses,
//! which perturbs each probability by at most O(L/p) = O(𝔫⁻³)-level error
//! while preserving exact c-wise independence of the pre-mapped values.

use crate::field::{Mersenne61, MERSENNE_61};
use crate::seed::BitSeed;

/// Number of seed bits consumed per polynomial coefficient.
pub const BITS_PER_COEFFICIENT: usize = 61;

/// A family of c-wise independent hash functions `[domain] -> [range]`.
///
/// A member of the family is selected by a [`BitSeed`] of
/// [`PolynomialHashFamily::seed_bits`] bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolynomialHashFamily {
    independence: usize,
    domain: u64,
    range: u64,
}

impl PolynomialHashFamily {
    /// Creates the family of `independence`-wise independent functions from
    /// `{0, …, domain-1}` to `{0, …, range-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `independence == 0`, `range == 0`, the domain does not fit
    /// in the field, or the range exceeds it.
    pub fn new(independence: usize, domain: u64, range: u64) -> Self {
        assert!(independence >= 1, "independence must be at least 1");
        assert!(range >= 1, "range must be non-empty");
        assert!(
            domain < MERSENNE_61,
            "domain must be smaller than the field modulus"
        );
        assert!(
            range <= MERSENNE_61,
            "range must not exceed the field modulus"
        );
        PolynomialHashFamily {
            independence,
            domain,
            range,
        }
    }

    /// The independence parameter c.
    #[inline]
    pub fn independence(&self) -> usize {
        self.independence
    }

    /// Domain size.
    #[inline]
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Range size (number of bins).
    #[inline]
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Number of seed bits needed to specify a member of the family
    /// (c coefficients of 61 bits each — Θ(c·log 𝔫) as in Lemma 2.4).
    #[inline]
    pub fn seed_bits(&self) -> usize {
        self.independence * BITS_PER_COEFFICIENT
    }

    /// Extracts the polynomial coefficients encoded by `seed`.
    ///
    /// Missing trailing bits (if the seed is shorter than
    /// [`Self::seed_bits`]) read as zero, so a prefix-only seed is still a
    /// valid, deterministic function.
    pub fn coefficients(&self, seed: &BitSeed) -> Vec<Mersenne61> {
        (0..self.independence)
            .map(|j| Mersenne61::new(seed.chunk(j * BITS_PER_COEFFICIENT, BITS_PER_COEFFICIENT)))
            .collect()
    }

    /// Evaluates the member selected by `seed` on input `x`, returning a bin
    /// in `{0, …, range-1}`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `x` is outside the domain.
    pub fn eval(&self, seed: &BitSeed, x: u64) -> u64 {
        debug_assert!(
            x < self.domain.max(1),
            "input {x} outside domain {}",
            self.domain
        );
        let coefficients = self.coefficients(seed);
        self.eval_with_coefficients(&coefficients, x)
    }

    /// Evaluates using pre-extracted coefficients (hot path for evaluating
    /// the same function on many inputs).
    #[inline]
    pub fn eval_with_coefficients(&self, coefficients: &[Mersenne61], x: u64) -> u64 {
        let value = Mersenne61::horner(coefficients, Mersenne61::new(x));
        field_value_to_bin(value.value(), self.range)
    }

    /// The powers `x¹, …, x^(c−1)` of an input, as
    /// [`Self::eval_with_powers`] reads them.
    pub fn powers(&self, x: u64) -> impl Iterator<Item = Mersenne61> {
        let x = Mersenne61::new(x);
        std::iter::successors(Some(x), move |&power| Some(power.mul(x))).take(self.independence - 1)
    }

    /// Evaluates using pre-extracted coefficients and the input's
    /// [`Self::powers`]: the value [`Self::eval_with_coefficients`] gives,
    /// with the powers shared by every member evaluated on the same input.
    #[inline]
    pub fn eval_with_powers(&self, coefficients: &[Mersenne61], powers: &[Mersenne61]) -> u64 {
        let (&constant, rest) = coefficients
            .split_first()
            .expect("a family member has at least one coefficient");
        let value =
            Mersenne61::sum_of_products(constant, rest.iter().copied().zip(powers.iter().copied()));
        field_value_to_bin(value.value(), self.range)
    }

    /// Binds a seed to the family, producing a reusable function object.
    pub fn with_seed(&self, seed: BitSeed) -> HashFunction {
        let coefficients = self.coefficients(&seed);
        HashFunction {
            family: self.clone(),
            seed,
            coefficients,
        }
    }
}

/// Maps a field value `value < p` uniformly-ish onto `{0, …, range-1}`
/// (`range ≤ p`) by splitting the field into `range` near-equal intervals:
/// `bin = ⌊value · range / p⌋`.
///
/// No division: with `value · range = q·2⁶¹ + r` and `2⁶¹ = p + 1`, the
/// product is `q·p + (q + r)`, and `q + r < 2p`, so the quotient is `q`
/// plus one when `q + r ≥ p`.
#[inline]
pub fn field_value_to_bin(value: u64, range: u64) -> u64 {
    debug_assert!(value < MERSENNE_61, "{value} is not a reduced field value");
    debug_assert!(range <= MERSENNE_61, "range {range} exceeds the field");
    let product = u128::from(value) * u128::from(range);
    let q = (product >> 61) as u64;
    let r = product as u64 & MERSENNE_61;
    q + u64::from(q + r >= MERSENNE_61)
}

/// A member of a [`PolynomialHashFamily`]: the family plus a concrete seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashFunction {
    family: PolynomialHashFamily,
    seed: BitSeed,
    coefficients: Vec<Mersenne61>,
}

impl HashFunction {
    /// Evaluates the function on `x`.
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        self.family.eval_with_coefficients(&self.coefficients, x)
    }

    /// The family this function belongs to.
    pub fn family(&self) -> &PolynomialHashFamily {
        &self.family
    }

    /// The seed that selected this function.
    pub fn seed(&self) -> &BitSeed {
        &self.seed
    }

    /// Range size (number of bins).
    pub fn range(&self) -> u64 {
        self.family.range()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::splitmix64;

    fn random_seed(family: &PolynomialHashFamily, salt: u64) -> BitSeed {
        let words: Vec<u64> = (0..family.seed_bits().div_ceil(64) as u64)
            .map(|i| splitmix64(salt.wrapping_add(i * 0x1234_5678_9abc_def1)))
            .collect();
        BitSeed::from_words(family.seed_bits(), &words)
    }

    #[test]
    fn outputs_are_in_range() {
        let family = PolynomialHashFamily::new(4, 10_000, 7);
        let seed = random_seed(&family, 3);
        for x in 0..10_000 {
            assert!(family.eval(&seed, x) < 7);
        }
    }

    #[test]
    fn seed_bits_scale_with_independence() {
        assert_eq!(PolynomialHashFamily::new(2, 100, 4).seed_bits(), 122);
        assert_eq!(PolynomialHashFamily::new(8, 100, 4).seed_bits(), 488);
    }

    #[test]
    fn zero_seed_is_constant_function() {
        let family = PolynomialHashFamily::new(3, 1000, 10);
        let seed = BitSeed::zeros(family.seed_bits());
        for x in [0u64, 5, 999] {
            assert_eq!(family.eval(&seed, x), 0);
        }
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let family = PolynomialHashFamily::new(2, 1000, 16);
        let a = random_seed(&family, 1);
        let b = random_seed(&family, 2);
        let differs = (0..1000).any(|x| family.eval(&a, x) != family.eval(&b, x));
        assert!(differs);
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let family = PolynomialHashFamily::new(4, 50_000, 16);
        let seed = random_seed(&family, 99);
        let mut counts = [0usize; 16];
        for x in 0..50_000 {
            counts[family.eval(&seed, x) as usize] += 1;
        }
        let expected = 50_000.0 / 16.0;
        for (bin, &count) in counts.iter().enumerate() {
            assert!(
                (count as f64 - expected).abs() < 0.15 * expected,
                "bin {bin} has {count}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn pairwise_collision_rate_close_to_one_over_range() {
        // Empirical check of pairwise independence: over many seeds, the
        // collision probability of two fixed keys should be ~1/range.
        let range = 8u64;
        let family = PolynomialHashFamily::new(2, 100, range);
        let trials = 4000;
        let collisions = (0..trials)
            .filter(|&t| {
                let seed = random_seed(&family, t);
                family.eval(&seed, 3) == family.eval(&seed, 77)
            })
            .count();
        let rate = collisions as f64 / trials as f64;
        let expected = 1.0 / range as f64;
        assert!(
            (rate - expected).abs() < 0.04,
            "collision rate {rate} too far from {expected}"
        );
    }

    #[test]
    fn hash_function_object_matches_family_eval() {
        let family = PolynomialHashFamily::new(3, 500, 9);
        let seed = random_seed(&family, 5);
        let f = family.with_seed(seed.clone());
        for x in 0..500 {
            assert_eq!(f.eval(x), family.eval(&seed, x));
        }
        assert_eq!(f.range(), 9);
        assert_eq!(f.seed(), &seed);
        assert_eq!(f.family(), &family);
    }

    #[test]
    #[should_panic(expected = "independence must be at least 1")]
    fn zero_independence_rejected() {
        let _ = PolynomialHashFamily::new(0, 10, 2);
    }

    #[test]
    #[should_panic(expected = "range must be non-empty")]
    fn zero_range_rejected() {
        let _ = PolynomialHashFamily::new(2, 10, 0);
    }

    #[test]
    #[should_panic(expected = "range must not exceed the field modulus")]
    fn oversized_range_rejected() {
        let _ = PolynomialHashFamily::new(2, 10, MERSENNE_61 + 1);
    }

    #[test]
    fn powers_evaluate_like_horner() {
        for independence in 1..=5 {
            let family = PolynomialHashFamily::new(independence, 10_000, 13);
            let seed = random_seed(&family, independence as u64);
            let coefficients = family.coefficients(&seed);
            for x in (0..10_000).step_by(97).chain([9_999]) {
                let powers: Vec<Mersenne61> = family.powers(x).collect();
                assert_eq!(powers.len(), independence - 1);
                assert_eq!(
                    family.eval_with_powers(&coefficients, &powers),
                    family.eval_with_coefficients(&coefficients, x),
                    "c = {independence}, x = {x}"
                );
            }
        }
    }

    #[test]
    fn field_value_to_bin_matches_the_division() {
        let p = u128::from(MERSENNE_61);
        let check = |value: u64, range: u64| {
            let expected = (u128::from(value) * u128::from(range) / p) as u64;
            assert_eq!(
                field_value_to_bin(value, range),
                expected,
                "value {value}, range {range}"
            );
        };
        for range in [1u64, 2, 3, 5, 7, 15, 1000, 4000 * 4000] {
            for value in [0, 1, MERSENNE_61 - 2, MERSENNE_61 - 1] {
                check(value, range);
            }
            // Every bin boundary: the last value of one bin, and the first
            // two of the next.
            for bin in 1..range {
                let first = (u128::from(bin) * p).div_ceil(u128::from(range)) as u64;
                check(first - 1, range);
                check(first, range);
                check(first + 1, range);
            }
        }
        // The largest range, where every `q + r` lands exactly on p.
        for value in [0, 1, 12_345, MERSENNE_61 - 1] {
            check(value, MERSENNE_61);
        }
    }

    #[test]
    fn field_value_to_bin_boundaries() {
        assert_eq!(field_value_to_bin(0, 10), 0);
        assert_eq!(field_value_to_bin(MERSENNE_61 - 1, 10), 9);
        // Single bin maps everything to 0.
        assert_eq!(field_value_to_bin(123456, 1), 0);
    }
}
