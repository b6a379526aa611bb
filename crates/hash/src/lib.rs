//! Families of bounded-independence hash functions (Lemma 2.4 of the paper)
//! together with the arithmetic and seed plumbing the derandomization needs.
//!
//! The paper's algorithms hash nodes and colors into bins using functions
//! drawn from c-wise independent families whose members are specified by an
//! O(log 𝔫)-bit seed. The method of conditional expectations then fixes that
//! seed a few bits at a time. This crate provides:
//!
//! * [`field::Mersenne61`] — arithmetic modulo the prime 2⁶¹−1,
//! * [`seed::BitSeed`] — a fixed-length bit string with chunked prefix
//!   fixing, the object the derandomization searches over,
//! * [`family::PolynomialHashFamily`] — the classic degree-(c−1) polynomial
//!   construction of a c-wise independent family, with the paper's
//!   interval-based range reduction,
//! * [`moments`] — the Bellare–Rompel tail bound (Lemma 2.2) the analysis
//!   relies on. No algorithm or experiment calls it: its unit tests show
//!   that its worst-case constants only bite at astronomically large ℓ,
//!   which README substitution #2 cites.
//!
//! ```
//! use cc_hash::family::PolynomialHashFamily;
//! use cc_hash::seed::BitSeed;
//!
//! // A 4-wise independent family mapping 1000 keys into 16 bins.
//! let family = PolynomialHashFamily::new(4, 1000, 16);
//! let seed = BitSeed::zeros(family.seed_bits());
//! let bin = family.eval(&seed, 123);
//! assert!(bin < 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod family;
pub mod field;
pub mod moments;
pub mod seed;

pub use family::{HashFunction, PolynomialHashFamily};
pub use seed::BitSeed;
