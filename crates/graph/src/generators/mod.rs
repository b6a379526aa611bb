//! Graph and palette generators used by tests, examples, and every
//! experiment in the benchmark harness.
//!
//! All generators are deterministic functions of an explicit `seed`, so every
//! experiment in the README's Experiments section is reproducible
//! bit-for-bit. The randomness here is *instance* randomness only — the
//! coloring algorithm itself is deterministic and never draws random bits.

mod clustered;
mod gnp;
mod near_regular;
mod power_law;

pub use clustered::clustered;
pub use gnp::gnp;
pub use near_regular::near_regular;
pub use power_law::power_law;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::instance::ListColoringInstance;
use crate::palette::Palette;
use crate::{Color, GraphError};

/// The graph families exercised by the experiment harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphFamily {
    /// Erdős–Rényi G(n, p).
    Gnp {
        /// Edge probability.
        p: f64,
    },
    /// Random near-regular graph of the given target degree.
    NearRegular {
        /// Target degree of every node.
        degree: usize,
    },
    /// Power-law (preferential-attachment style) graph.
    PowerLaw {
        /// Edges attached per arriving node.
        edges_per_node: usize,
    },
    /// Planted community ("social network") graph.
    Clustered {
        /// Number of communities.
        communities: usize,
        /// Intra-community edge probability.
        p_in: f64,
        /// Inter-community edge probability.
        p_out: f64,
    },
    /// The complete graph K_n.
    Complete,
    /// The cycle C_n.
    Cycle,
}

impl GraphFamily {
    /// A short label for result tables.
    pub fn label(&self) -> String {
        match self {
            GraphFamily::Gnp { p } => format!("gnp(p={p})"),
            GraphFamily::NearRegular { degree } => format!("regular(d={degree})"),
            GraphFamily::PowerLaw { edges_per_node } => format!("powerlaw(k={edges_per_node})"),
            GraphFamily::Clustered { communities, .. } => format!("clustered(c={communities})"),
            GraphFamily::Complete => "complete".to_string(),
            GraphFamily::Cycle => "cycle".to_string(),
        }
    }

    /// Generates an `n`-node member of the family with the given seed.
    pub fn generate(&self, n: usize, seed: u64) -> Result<CsrGraph, GraphError> {
        match *self {
            GraphFamily::Gnp { p } => gnp(n, p, seed),
            GraphFamily::NearRegular { degree } => near_regular(n, degree, seed),
            GraphFamily::PowerLaw { edges_per_node } => power_law(n, edges_per_node, seed),
            GraphFamily::Clustered {
                communities,
                p_in,
                p_out,
            } => clustered(n, communities, p_in, p_out, seed),
            GraphFamily::Complete => Ok(GraphBuilder::complete(n).build()),
            GraphFamily::Cycle => Ok(GraphBuilder::cycle(n).build()),
        }
    }
}

/// How palettes are populated for a generated instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaletteKind {
    /// Every node gets the implicit palette `{0, …, Δ}` — the (Δ+1)-coloring
    /// problem.
    DeltaPlusOne,
    /// Every node gets Δ+1 distinct colors drawn from a universe of the given
    /// size — the (Δ+1)-list coloring problem. The universe must have at
    /// least Δ+1 colors; the paper allows up to 𝔫² distinct colors overall.
    DeltaPlusOneList {
        /// Size of the color universe colors are drawn from.
        universe: u64,
    },
    /// Node `v` gets deg(v)+1 distinct colors from the universe — the
    /// (deg+1)-list coloring problem.
    DegPlusOneList {
        /// Size of the color universe colors are drawn from.
        universe: u64,
    },
}

/// Generates a list-coloring instance over `graph` with the requested palette
/// kind, deterministically from `seed`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidGeneratorParameters`] if the universe is too
/// small for the requested palettes.
pub fn instance_with_palettes(
    graph: &CsrGraph,
    kind: PaletteKind,
    seed: u64,
) -> Result<ListColoringInstance, GraphError> {
    match kind {
        PaletteKind::DeltaPlusOne => ListColoringInstance::delta_plus_one(graph),
        PaletteKind::DeltaPlusOneList { universe } => {
            let need = graph.max_degree() as u64 + 1;
            random_list_palettes(graph, universe, |_, _| need as usize, seed)
        }
        PaletteKind::DegPlusOneList { universe } => {
            random_list_palettes(graph, universe, |_, d| d + 1, seed)
        }
    }
}

/// Draws, for each node, `size_of(node, degree)` distinct colors uniformly
/// from `{0, …, universe-1}`.
fn random_list_palettes(
    graph: &CsrGraph,
    universe: u64,
    mut size_of: impl FnMut(usize, usize) -> usize,
    seed: u64,
) -> Result<ListColoringInstance, GraphError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut palettes = Vec::with_capacity(graph.node_count());
    for v in graph.nodes() {
        let degree = graph.degree(v);
        let size = size_of(v.index(), degree);
        if (size as u64) > universe {
            return Err(GraphError::InvalidGeneratorParameters {
                reason: format!(
                    "universe of {universe} colors cannot supply a palette of {size} distinct colors"
                ),
            });
        }
        palettes.push(sample_distinct_colors(&mut rng, universe, size));
    }
    ListColoringInstance::from_palettes(graph.clone(), palettes)
}

/// Samples `count` distinct colors from `{0, …, universe-1}`.
///
/// Uses rejection sampling when the universe is much larger than the sample
/// (the common case) and a shuffle otherwise. Rejection sampling draws the
/// missing colors in a batch, then sorts and dedups: a draw adds at most one
/// color, so the set can reach `count` only on a batch's last draw, and the
/// colors and the RNG's stream position are those of drawing one color at a
/// time until `count` are distinct.
fn sample_distinct_colors(rng: &mut impl Rng, universe: u64, count: usize) -> Palette {
    if universe <= 4 * count as u64 && universe <= 1 << 22 {
        let mut all: Vec<u64> = (0..universe).collect();
        all.shuffle(rng);
        all.truncate(count);
        Palette::explicit(all.into_iter().map(Color))
    } else {
        let mut chosen = Vec::with_capacity(count);
        while chosen.len() < count {
            let missing = count - chosen.len();
            chosen.extend((0..missing).map(|_| Color(rng.gen_range(0..universe))));
            chosen.sort_unstable();
            chosen.dedup();
        }
        Palette::explicit(chosen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_labels_and_generation() {
        let families = [
            GraphFamily::Gnp { p: 0.1 },
            GraphFamily::NearRegular { degree: 4 },
            GraphFamily::PowerLaw { edges_per_node: 3 },
            GraphFamily::Clustered {
                communities: 4,
                p_in: 0.3,
                p_out: 0.01,
            },
            GraphFamily::Complete,
            GraphFamily::Cycle,
        ];
        for family in families {
            let g = family.generate(40, 7).unwrap();
            assert_eq!(g.node_count(), 40);
            assert!(!family.label().is_empty());
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let family = GraphFamily::Gnp { p: 0.2 };
        let a = family.generate(60, 11).unwrap();
        let b = family.generate(60, 11).unwrap();
        let c = family.generate(60, 12).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn delta_plus_one_list_palettes_have_correct_sizes() {
        let g = GraphFamily::Gnp { p: 0.2 }.generate(50, 3).unwrap();
        let inst =
            instance_with_palettes(&g, PaletteKind::DeltaPlusOneList { universe: 10_000 }, 5)
                .unwrap();
        let expect = g.max_degree() + 1;
        for v in g.nodes() {
            assert_eq!(inst.palette(v).size(), expect);
        }
        inst.validate().unwrap();
    }

    #[test]
    fn deg_plus_one_list_palettes_have_correct_sizes() {
        let g = GraphFamily::PowerLaw { edges_per_node: 2 }
            .generate(50, 3)
            .unwrap();
        let inst = instance_with_palettes(&g, PaletteKind::DegPlusOneList { universe: 10_000 }, 5)
            .unwrap();
        for v in g.nodes() {
            assert_eq!(inst.palette(v).size(), g.degree(v) + 1);
        }
    }

    #[test]
    fn list_palettes_are_deterministic_in_seed() {
        let g = GraphFamily::Cycle.generate(20, 0).unwrap();
        let kind = PaletteKind::DeltaPlusOneList { universe: 100 };
        let a = instance_with_palettes(&g, kind, 9).unwrap();
        let b = instance_with_palettes(&g, kind, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn too_small_universe_is_rejected() {
        let g = GraphFamily::Complete.generate(10, 0).unwrap();
        let err = instance_with_palettes(&g, PaletteKind::DeltaPlusOneList { universe: 5 }, 1)
            .unwrap_err();
        assert!(matches!(err, GraphError::InvalidGeneratorParameters { .. }));
    }

    #[test]
    fn small_universe_shuffle_path_yields_distinct_colors() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = sample_distinct_colors(&mut rng, 12, 10);
        assert_eq!(p.size(), 10);
    }

    /// The sampler drawing one color at a time into a `BTreeSet`: the
    /// reference for the batched draws.
    fn sample_one_at_a_time(rng: &mut impl Rng, universe: u64, count: usize) -> Palette {
        if universe <= 4 * count as u64 && universe <= 1 << 22 {
            let mut all: Vec<u64> = (0..universe).collect();
            all.shuffle(rng);
            all.truncate(count);
            Palette::explicit(all.into_iter().map(Color))
        } else {
            let mut chosen = std::collections::BTreeSet::new();
            while chosen.len() < count {
                chosen.insert(rng.gen_range(0..universe));
            }
            Palette::explicit(chosen.into_iter().map(Color))
        }
    }

    #[test]
    fn batched_draws_match_one_at_a_time_draws() {
        let mut cases = ChaCha8Rng::seed_from_u64(0x5a3e);
        for case in 0..800 {
            let count = cases.gen_range(0..=300usize);
            let universe = match case % 4 {
                // Just below, at and above the shuffle path's bound.
                0 => 4 * count as u64 + cases.gen_range(0..3) - 1,
                1 => cases.gen_range(1..=20_000),
                2 => 1 << 50,
                _ => count as u64 + cases.gen_range(0..=8 * count as u64),
            }
            .max(count as u64)
            .max(1);
            let seed = cases.gen();
            let (mut batched, mut reference) = (
                ChaCha8Rng::seed_from_u64(seed),
                ChaCha8Rng::seed_from_u64(seed),
            );
            let palette = sample_distinct_colors(&mut batched, universe, count);
            let case = format!("{count} of {universe}, seed {seed}");
            assert_eq!(palette.size(), count, "{case}");
            assert_eq!(
                palette,
                sample_one_at_a_time(&mut reference, universe, count),
                "{case}"
            );
            assert_eq!(batched.get_word_pos(), reference.get_word_pos(), "{case}");
        }
    }
}
