//! Configuration of the `ColorReduce` algorithm.
//!
//! Every exponent and constant of Algorithms 1–2 is a parameter here, with
//! defaults equal to the paper's values. The benchmark harness also runs a
//! "scaled-down" configuration with a larger bin exponent so that the
//! multi-level recursion of the analysis (Lemmas 3.11–3.14) is exercised at
//! laptop-scale Δ (substitution #4 in the README's Substitutions list).

use crate::error::CoreError;

/// How the hash-function seeds of `Partition` are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedStrategy {
    /// Deterministic selection via the chunked method-of-conditional-
    /// expectations search of `cc-derand` (the paper's algorithm).
    Derandomized {
        /// Bits fixed per chunk (the paper's δ·log 𝔫), at most 61.
        chunk_bits: usize,
        /// Candidate chunk values evaluated in parallel per chunk.
        candidates_per_chunk: usize,
        /// Completion schedules tried before accepting a seed that misses the
        /// expectation bound.
        max_salts: u32,
    },
    /// Skip the search and use the canonical completion of the empty prefix
    /// with the given salt — i.e. a fixed pseudorandom seed. This is the
    /// *randomized-baseline* mode (the algorithm of Section 3 before
    /// derandomization); it is still reproducible because the salt is
    /// explicit.
    FixedSalt {
        /// Salt of the pseudorandom seed.
        salt: u64,
    },
}

impl SeedStrategy {
    /// Checks the `Derandomized` parameters against the selector's ranges.
    pub(crate) fn validate(&self) -> Result<(), CoreError> {
        if let SeedStrategy::Derandomized {
            chunk_bits,
            candidates_per_chunk,
            max_salts,
        } = *self
        {
            if chunk_bits == 0 || chunk_bits > 61 {
                return Err(CoreError::InvalidConfig {
                    reason: format!("chunk_bits = {chunk_bits} must be in 1..=61"),
                });
            }
            if candidates_per_chunk == 0 || max_salts == 0 {
                return Err(CoreError::InvalidConfig {
                    reason: "candidates_per_chunk and max_salts must be positive".to_string(),
                });
            }
        }
        Ok(())
    }
}

impl Default for SeedStrategy {
    fn default() -> Self {
        SeedStrategy::Derandomized {
            chunk_bits: 61,
            candidates_per_chunk: 64,
            max_salts: 4,
        }
    }
}

/// Parameters of `ColorReduce` / `Partition` (Algorithms 1–2).
#[derive(Debug, Clone, PartialEq)]
pub struct ColorReduceConfig {
    /// Bin exponent β: nodes are hashed into ⌊ℓ^β⌋ bins (paper: 0.1).
    pub bin_exponent: f64,
    /// Degree-deviation exponent: a node is good only if its in-bin degree is
    /// within ℓ^x of its expectation (paper: 0.6).
    pub degree_slack_exponent: f64,
    /// Palette-surplus exponent: a node is good only if its in-bin palette
    /// exceeds its expectation by ℓ^y (paper: 0.7).
    pub palette_slack_exponent: f64,
    /// Independence parameter c of the hash families (the paper needs a
    /// sufficiently large constant; 4 suffices empirically at these scales
    /// and is configurable for the ablation experiment).
    pub independence: usize,
    /// Below this ℓ the instance is collected and colored locally without
    /// further partitioning.
    pub min_partition_ell: u64,
    /// Seed-selection strategy.
    pub seed_strategy: SeedStrategy,
    /// Safety cap on recursion depth (the analysis guarantees ≤ 9 with the
    /// paper's exponents).
    pub max_recursion_depth: usize,
}

impl Default for ColorReduceConfig {
    fn default() -> Self {
        ColorReduceConfig {
            bin_exponent: 0.1,
            degree_slack_exponent: 0.6,
            palette_slack_exponent: 0.7,
            independence: 4,
            min_partition_ell: 16,
            seed_strategy: SeedStrategy::default(),
            max_recursion_depth: 32,
        }
    }
}

impl ColorReduceConfig {
    /// The paper's configuration (same as `Default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A scaled-down configuration that uses a larger bin exponent so that
    /// multi-level recursion appears at laptop-scale maximum degree.
    pub fn scaled_down() -> Self {
        ColorReduceConfig {
            bin_exponent: 0.4,
            ..Self::default()
        }
    }

    /// Number of node bins ⌊ℓ^β⌋ used when partitioning at parameter `ell`.
    /// Partitioning is only worthwhile when this is at least 2.
    pub fn bins(&self, ell: u64) -> u64 {
        (ell as f64).powf(self.bin_exponent).floor() as u64
    }

    /// The child parameter ℓ′ for recursive calls (paper: ℓ^0.9 − ℓ^0.6;
    /// generalized to the configured exponents and the *actual* number of
    /// bins used by the partition — which may be the forced minimum of 2
    /// below the paper's asymptotic regime).
    pub fn child_ell(&self, ell: u64, bins: u64) -> u64 {
        let bins = bins.max(2);
        let value = ell as f64 / bins as f64 + (ell as f64).powf(self.degree_slack_exponent);
        (value.floor() as u64).max(1)
    }

    /// Degree-deviation threshold ℓ^0.6.
    pub fn degree_slack(&self, ell: u64) -> f64 {
        (ell as f64).powf(self.degree_slack_exponent)
    }

    /// Palette-surplus threshold ℓ^0.7.
    pub fn palette_slack(&self, ell: u64) -> f64 {
        (ell as f64).powf(self.palette_slack_exponent)
    }

    /// The bound 𝔫/ℓ² on the expected number of bad nodes (Lemma 3.8), used
    /// as the target of the seed search.
    pub fn bad_node_bound(&self, global_nodes: usize, ell: u64) -> f64 {
        global_nodes as f64 / (ell as f64).powi(2)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for out-of-range parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        let check = |name: &str, value: f64| -> Result<(), CoreError> {
            if !(0.0..1.0).contains(&value) || value.is_nan() {
                Err(CoreError::InvalidConfig {
                    reason: format!("{name} = {value} must lie in (0, 1)"),
                })
            } else {
                Ok(())
            }
        };
        check("bin_exponent", self.bin_exponent)?;
        check("degree_slack_exponent", self.degree_slack_exponent)?;
        check("palette_slack_exponent", self.palette_slack_exponent)?;
        if self.bin_exponent <= 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: "bin_exponent must be positive".to_string(),
            });
        }
        if self.independence == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "independence must be at least 1".to_string(),
            });
        }
        if self.max_recursion_depth == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "max_recursion_depth must be at least 1".to_string(),
            });
        }
        self.seed_strategy.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_exponents() {
        let c = ColorReduceConfig::default();
        assert_eq!(c.bin_exponent, 0.1);
        assert_eq!(c.degree_slack_exponent, 0.6);
        assert_eq!(c.palette_slack_exponent, 0.7);
        c.validate().unwrap();
        assert_eq!(c, ColorReduceConfig::paper());
    }

    #[test]
    fn bins_need_large_ell_with_paper_exponent() {
        let c = ColorReduceConfig::paper();
        assert_eq!(c.bins(1000), 1);
        assert_eq!(c.bins(1024), 2);
        assert_eq!(c.bins(1 << 20), 4);
        let scaled = ColorReduceConfig::scaled_down();
        assert_eq!(scaled.bins(1000), 15);
    }

    #[test]
    fn child_ell_shrinks() {
        let c = ColorReduceConfig::scaled_down();
        let ell = 10_000u64;
        let child = c.child_ell(ell, c.bins(ell));
        assert!(child < ell);
        assert!(child >= 1);
        // Paper configuration on a huge ℓ: ℓ' ≈ ℓ^0.9.
        let paper = ColorReduceConfig::paper();
        let ell = 1u64 << 40;
        let child = paper.child_ell(ell, paper.bins(ell));
        let expected = (ell as f64).powf(0.9);
        assert!((child as f64) > 0.4 * expected && (child as f64) < 2.5 * expected);
        // Forced halving (bins = 2) still strictly decreases ℓ.
        assert!(paper.child_ell(100, 2) < 100);
    }

    #[test]
    fn slacks_and_bad_node_bound() {
        let c = ColorReduceConfig::paper();
        let ell = 1u64 << 20;
        assert!((c.degree_slack(ell) - (ell as f64).powf(0.6)).abs() < 1e-6);
        assert!((c.palette_slack(ell) - (ell as f64).powf(0.7)).abs() < 1e-6);
        assert_eq!(c.bad_node_bound(1000, 10), 10.0);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let c = ColorReduceConfig {
            bin_exponent: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ColorReduceConfig {
            independence: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ColorReduceConfig {
            seed_strategy: SeedStrategy::Derandomized {
                chunk_bits: 0,
                candidates_per_chunk: 8,
                max_salts: 1,
            },
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ColorReduceConfig {
            max_recursion_depth: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn fixed_salt_strategy_is_valid() {
        let c = ColorReduceConfig {
            seed_strategy: SeedStrategy::FixedSalt { salt: 7 },
            ..Default::default()
        };
        c.validate().unwrap();
    }
}
