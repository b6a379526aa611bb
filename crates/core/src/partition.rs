//! `Partition` (Algorithm 2): derandomized hashing of nodes and colors into
//! bins.
//!
//! A call hashes the active nodes into B = ⌊ℓ^β⌋ bins with `h1` and the
//! colors into B−1 bins with `h2`, where the pair (h1, h2) is drawn from
//! c-wise independent families and selected deterministically by the method
//! of conditional expectations so that (Lemma 3.9) no bin is bad and at most
//! 𝔫/ℓ² nodes are bad. Bad nodes form the graph G₀ that the caller colors
//! locally at the end of the call.

use cc_derand::{GreedyChunkSelector, SeedCost, SelectionOutcome};
use cc_graph::csr::CsrGraph;
use cc_graph::palette::Palette;
use cc_graph::NodeId;
use cc_hash::family::HashFunction;
use cc_hash::{BitSeed, PolynomialHashFamily};
use cc_sim::constants::BROADCAST_ROUNDS;
use cc_sim::ClusterContext;

use crate::config::{ColorReduceConfig, SeedStrategy};
use crate::good_bad::{evaluate_binning, ActiveSubgraph, BinningEvaluation, BinningParams};
use crate::trace::PartitionRecord;

/// Result of one `Partition` call.
#[derive(Debug, Clone)]
pub struct PartitionOutcome {
    /// Node lists of the B bins, in bin order. The last bin is the one that
    /// receives no colors; bins `0..B-2` have disjoint color sub-palettes.
    pub bins: Vec<Vec<NodeId>>,
    /// The bad nodes (graph G₀), colored locally by the caller after
    /// everything else.
    pub bad_nodes: Vec<NodeId>,
    /// The selected color hash function h2 (used by the caller to restrict
    /// palettes of nodes in bins `0..B-2`).
    pub color_hash: HashFunction,
    /// Number of node bins B.
    pub bin_count: u64,
    /// The full good/bad evaluation under the selected seed.
    pub evaluation: BinningEvaluation,
    /// Trace record (statistics) of this call.
    pub record: PartitionRecord,
}

/// Extracts `len` bits starting at `start` from `seed` into a fresh seed.
pub(crate) fn slice_seed(seed: &BitSeed, start: usize, len: usize) -> BitSeed {
    let mut out = BitSeed::zeros(len);
    let mut copied = 0usize;
    while copied < len {
        let width = (len - copied).min(61);
        out.set_chunk(copied, width, seed.chunk(start + copied, width));
        copied += width;
    }
    out
}

/// The hash families of one `Partition` or `LowSpacePartition` call: h1
/// hashes node ids into the `bins` node bins, h2 hashes colors into the
/// `bins − 1` color bins (one when B = 2). A combined seed is h1's seed
/// followed by h2's.
pub(crate) struct HashPair {
    nodes: PolynomialHashFamily,
    colors: PolynomialHashFamily,
}

impl HashPair {
    pub(crate) fn new(
        independence: usize,
        graph: &CsrGraph,
        sub: &ActiveSubgraph,
        bins: u64,
    ) -> Self {
        HashPair {
            nodes: PolynomialHashFamily::new(
                independence,
                (graph.node_count() as u64).max(2),
                bins,
            ),
            colors: PolynomialHashFamily::new(
                independence,
                sub.color_domain.max(2),
                (bins - 1).max(1),
            ),
        }
    }

    /// Length of a combined seed.
    pub(crate) fn seed_bits(&self) -> usize {
        self.nodes.seed_bits() + self.colors.seed_bits()
    }

    /// The functions (h1, h2) a combined seed selects.
    pub(crate) fn functions(&self, seed: &BitSeed) -> (HashFunction, HashFunction) {
        let node_bits = self.nodes.seed_bits();
        (
            self.nodes.with_seed(slice_seed(seed, 0, node_bits)),
            self.colors
                .with_seed(slice_seed(seed, node_bits, self.colors.seed_bits())),
        )
    }
}

/// Picks the combined seed of one partition call on `sub`.
///
/// `Derandomized` runs the chunked seed search over `cost`. `FixedSalt` is
/// the randomized baseline: one pseudorandom seed, distributed by one
/// broadcast, with no search. Its salt is remixed with the call's active set
/// and `tweak` so that, like fresh randomness, each recursive call gets an
/// independent-looking hash pair (reusing one function on a bin *it*
/// defined would be degenerate).
pub(crate) fn select_seed(
    ctx: &mut ClusterContext,
    label: &str,
    strategy: SeedStrategy,
    seed_bits: usize,
    cost: &dyn SeedCost,
    sub: &ActiveSubgraph,
    tweak: u64,
) -> SelectionOutcome {
    match strategy {
        SeedStrategy::Derandomized {
            chunk_bits,
            candidates_per_chunk,
            max_salts,
        } => GreedyChunkSelector::new(chunk_bits, candidates_per_chunk, max_salts)
            .select(ctx, label, seed_bits, cost),
        SeedStrategy::FixedSalt { salt } => {
            ctx.charge_rounds(label, BROADCAST_ROUNDS);
            let fingerprint = sub
                .nodes
                .first()
                .map(|v| u64::from(v.0))
                .unwrap_or_default()
                ^ ((sub.len() as u64) << 24)
                ^ tweak;
            let effective_salt = salt ^ cc_hash::seed::splitmix64(fingerprint);
            let seed = BitSeed::zeros(seed_bits).canonical_completion(0, effective_salt);
            let achieved_cost = cost.total_cost(&seed);
            let bound = cost.expectation_bound();
            SelectionOutcome {
                met_bound: achieved_cost <= bound,
                seed,
                achieved_cost,
                bound,
                candidates_evaluated: 1,
                escalations: 0,
            }
        }
    }
}

/// The cost function of Lemma 3.9: 𝔮(h1, h2) = #bad nodes + 𝔫·#bad bins,
/// decomposed over one machine per active node plus one machine per bin.
struct PartitionCost<'a> {
    graph: &'a CsrGraph,
    sub: &'a ActiveSubgraph,
    palettes: &'a [Palette],
    params: BinningParams,
    hashes: HashPair,
    bound: f64,
}

impl PartitionCost<'_> {
    /// The binning evaluation for a combined seed.
    fn evaluation(&self, seed: &BitSeed) -> BinningEvaluation {
        let (h1, h2) = self.hashes.functions(seed);
        evaluate_binning(
            self.graph,
            self.sub,
            self.palettes,
            &self.params,
            |x| h1.eval(x),
            |x| h2.eval(x),
        )
    }
}

impl SeedCost for PartitionCost<'_> {
    fn machine_count(&self) -> usize {
        self.sub.len() + self.params.bins as usize
    }

    fn total_cost(&self, seed: &BitSeed) -> f64 {
        self.evaluation(seed).cost(self.params.global_nodes)
    }

    fn expectation_bound(&self) -> f64 {
        self.bound
    }
}

/// Runs `Partition(G, ℓ)` on the active subgraph, selecting hash functions
/// according to the configured [`SeedStrategy`] and classifying nodes and
/// bins under the selected pair.
#[allow(clippy::too_many_arguments)]
pub fn partition(
    ctx: &mut ClusterContext,
    label: &str,
    graph: &CsrGraph,
    palettes: &[Palette],
    sub: &ActiveSubgraph,
    ell: u64,
    bins: u64,
    global_nodes: usize,
    config: &ColorReduceConfig,
) -> PartitionOutcome {
    debug_assert!(bins >= 2, "partition needs at least two bins");
    let bound = config.bad_node_bound(global_nodes, ell);
    let cost = PartitionCost {
        graph,
        sub,
        palettes,
        params: BinningParams::new(config, ell, bins, global_nodes, sub.len()),
        hashes: HashPair::new(config.independence, graph, sub, bins),
        bound,
    };
    let outcome = select_seed(
        ctx,
        label,
        config.seed_strategy,
        cost.hashes.seed_bits(),
        &cost,
        sub,
        ell.rotate_left(17),
    );
    let evaluation = cost.evaluation(&outcome.seed);
    let (_, color_hash) = cost.hashes.functions(&outcome.seed);

    // Split the active nodes into bins and the bad set.
    let mut bin_lists: Vec<Vec<NodeId>> = vec![Vec::new(); bins as usize];
    let mut bad_nodes: Vec<NodeId> = Vec::new();
    for (i, &v) in sub.nodes.iter().enumerate() {
        if evaluation.node_good[i] {
            bin_lists[evaluation.node_bin[i] as usize].push(v);
        } else {
            bad_nodes.push(v);
        }
    }

    // Size of the bad-node graph G₀ (Corollary 3.10).
    let bad_graph_words = if bad_nodes.is_empty() {
        0
    } else {
        ActiveSubgraph::new(graph, palettes, &bad_nodes).size_words()
    };

    let record = PartitionRecord {
        bins,
        bad_nodes: bad_nodes.len(),
        bad_bins: evaluation.bad_bin_count(),
        bad_node_bound: bound,
        bad_graph_words,
        max_bin_nodes: evaluation.max_bin_count(),
        seed_outcome: outcome,
    };

    PartitionOutcome {
        bins: bin_lists,
        bad_nodes,
        color_hash,
        bin_count: bins,
        evaluation,
        record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;
    use cc_graph::instance::ListColoringInstance;
    use cc_sim::ExecutionModel;

    fn setup(n: usize, p: f64, seed: u64) -> (CsrGraph, Vec<Palette>) {
        let g = generators::gnp(n, p, seed).unwrap();
        let inst = ListColoringInstance::delta_plus_one(&g).unwrap();
        let palettes = inst.palettes().to_vec();
        (g, palettes)
    }

    fn ctx(n: usize) -> ClusterContext {
        ClusterContext::new(ExecutionModel::congested_clique(n))
    }

    #[test]
    fn slice_seed_round_trip() {
        let mut seed = BitSeed::zeros(200);
        seed.set_chunk(0, 61, 0x1234_5678_9abc);
        seed.set_chunk(61, 61, 0x0fed_cba9_8765);
        seed.set_chunk(122, 61, 0x0011_2233_4455);
        let first = slice_seed(&seed, 0, 122);
        let second = slice_seed(&seed, 122, 78);
        assert_eq!(first.chunk(0, 61), 0x1234_5678_9abc);
        assert_eq!(first.chunk(61, 61), 0x0fed_cba9_8765);
        assert_eq!(second.chunk(0, 61), 0x0011_2233_4455);
        assert_eq!(first.len(), 122);
        assert_eq!(second.len(), 78);
    }

    #[test]
    fn partition_splits_nodes_into_bins_and_bad_set() {
        let (g, palettes) = setup(150, 0.3, 3);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let sub = ActiveSubgraph::new(&g, &palettes, &nodes);
        let config = ColorReduceConfig {
            seed_strategy: SeedStrategy::Derandomized {
                chunk_bits: 61,
                candidates_per_chunk: 8,
                max_salts: 1,
            },
            ..ColorReduceConfig::paper()
        };
        let ell = g.max_degree() as u64;
        let mut c = ctx(150);
        let out = partition(
            &mut c,
            "partition",
            &g,
            &palettes,
            &sub,
            ell,
            2,
            150,
            &config,
        );
        // Every active node lands in exactly one bin or the bad set.
        let total: usize = out.bins.iter().map(Vec::len).sum::<usize>() + out.bad_nodes.len();
        assert_eq!(total, 150);
        assert_eq!(out.bin_count, 2);
        assert_eq!(out.bins.len(), 2);
        assert!(c.rounds() > 0);
        // Statistics are consistent.
        assert_eq!(out.record.bad_nodes, out.bad_nodes.len());
        assert_eq!(out.record.bins, 2);
        assert!(out.record.max_bin_nodes <= 150);
    }

    #[test]
    fn partition_is_deterministic() {
        let (g, palettes) = setup(100, 0.2, 5);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let sub = ActiveSubgraph::new(&g, &palettes, &nodes);
        let config = ColorReduceConfig {
            seed_strategy: SeedStrategy::Derandomized {
                chunk_bits: 61,
                candidates_per_chunk: 8,
                max_salts: 1,
            },
            ..ColorReduceConfig::paper()
        };
        let ell = g.max_degree() as u64;
        let a = partition(
            &mut ctx(100),
            "p",
            &g,
            &palettes,
            &sub,
            ell,
            2,
            100,
            &config,
        );
        let b = partition(
            &mut ctx(100),
            "p",
            &g,
            &palettes,
            &sub,
            ell,
            2,
            100,
            &config,
        );
        assert_eq!(a.bins, b.bins);
        assert_eq!(a.bad_nodes, b.bad_nodes);
        assert_eq!(a.record.seed_outcome.seed, b.record.seed_outcome.seed);
    }

    #[test]
    fn derandomized_seed_is_no_worse_than_fixed_salt() {
        let (g, palettes) = setup(200, 0.25, 9);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let sub = ActiveSubgraph::new(&g, &palettes, &nodes);
        let ell = g.max_degree() as u64;
        let derand_config = ColorReduceConfig {
            seed_strategy: SeedStrategy::Derandomized {
                chunk_bits: 61,
                candidates_per_chunk: 16,
                max_salts: 1,
            },
            ..ColorReduceConfig::paper()
        };
        let fixed_config = ColorReduceConfig {
            seed_strategy: SeedStrategy::FixedSalt { salt: 1 },
            ..ColorReduceConfig::paper()
        };
        let derand = partition(
            &mut ctx(200),
            "p",
            &g,
            &palettes,
            &sub,
            ell,
            2,
            200,
            &derand_config,
        );
        let fixed = partition(
            &mut ctx(200),
            "p",
            &g,
            &palettes,
            &sub,
            ell,
            2,
            200,
            &fixed_config,
        );
        assert!(
            derand.record.seed_outcome.achieved_cost <= fixed.record.seed_outcome.achieved_cost
        );
    }

    #[test]
    fn three_bins_restrict_palettes_to_disjoint_color_sets() {
        // Force three bins so h2 actually partitions the colors; check that
        // the color hash maps every color to a bin < bins - 1.
        let (g, palettes) = setup(120, 0.4, 11);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let sub = ActiveSubgraph::new(&g, &palettes, &nodes);
        let config = ColorReduceConfig {
            seed_strategy: SeedStrategy::FixedSalt { salt: 3 },
            ..ColorReduceConfig::paper()
        };
        let ell = g.max_degree() as u64;
        let out = partition(
            &mut ctx(120),
            "p",
            &g,
            &palettes,
            &sub,
            ell,
            3,
            120,
            &config,
        );
        assert_eq!(out.bins.len(), 3);
        for color in palettes[0].iter() {
            assert!(out.color_hash.eval(color.0) < 2);
        }
    }
}
