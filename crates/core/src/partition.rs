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
use cc_hash::BitSeed;
use cc_sim::constants::BROADCAST_ROUNDS;
use cc_sim::ClusterContext;

use crate::config::{ColorReduceConfig, SeedStrategy};
use crate::good_bad::{
    bin_good, binning_costs, chosen_lane, ActiveSubgraph, BinningParams, HashPair, NodeTests,
    ScoredLanes,
};
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
    /// Trace record (statistics) of this call.
    pub record: PartitionRecord,
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
    cost: &mut dyn SeedCost,
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
    params: BinningParams,
    tests: NodeTests,
    hashes: HashPair,
    bound: f64,
    /// Each node's bin and good lanes under the seeds of the latest
    /// [`SeedCost::total_costs`] call.
    lanes: ScoredLanes,
}

impl<'a> PartitionCost<'a> {
    /// The cost of one `Partition(G, ℓ)` call on `sub` into `bins` bins.
    #[allow(clippy::too_many_arguments)]
    fn new(
        graph: &'a CsrGraph,
        palettes: &[Palette],
        sub: &'a ActiveSubgraph,
        ell: u64,
        bins: u64,
        global_nodes: usize,
        config: &ColorReduceConfig,
    ) -> Self {
        let params = BinningParams::new(config, ell, bins, global_nodes, sub.len());
        PartitionCost {
            graph,
            sub,
            tests: NodeTests::new(sub, &params),
            params,
            hashes: HashPair::new(config.independence, graph, sub, palettes, bins),
            bound: config.bad_node_bound(global_nodes, ell),
            lanes: ScoredLanes::default(),
        }
    }
}

impl SeedCost for PartitionCost<'_> {
    fn machine_count(&self) -> usize {
        self.sub.len() + self.params.bins as usize
    }

    fn total_cost(&mut self, seed: &BitSeed) -> f64 {
        self.total_costs(std::slice::from_ref(seed))[0]
    }

    /// One bit-sliced pass over the edges per group of 64 seeds, which also
    /// records every node's bin and verdict under each seed.
    fn total_costs(&mut self, seeds: &[BitSeed]) -> Vec<f64> {
        let lanes = &mut self.lanes;
        lanes.start(seeds, self.params.bins);
        self.hashes
            .lane_planes(self.sub, seeds)
            .flat_map(|planes| {
                binning_costs(
                    self.graph,
                    self.sub,
                    &self.params,
                    &self.tests,
                    &planes,
                    lanes,
                )
            })
            .collect()
    }

    fn expectation_bound(&self) -> f64 {
        self.bound
    }

    /// Lemma 3.9 asks only for a seed within the bound, so the search stops
    /// at the first chunk whose minimizer's completion meets it.
    fn stop_threshold(&self) -> Option<f64> {
        Some(self.bound)
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
    let mut cost = PartitionCost::new(graph, palettes, sub, ell, bins, global_nodes, config);
    let outcome = select_seed(
        ctx,
        label,
        config.seed_strategy,
        cost.hashes.seed_bits(),
        &mut cost,
        sub,
        ell.rotate_left(17),
    );
    let (_, color_hash) = cost.hashes.functions(&outcome.seed);

    // Split the active nodes into bins and the bad set by the chosen seed's
    // lane, as its search scored it.
    let mut bin_lists: Vec<Vec<NodeId>> = vec![Vec::new(); bins as usize];
    let mut bin_counts = vec![0usize; bins as usize];
    let mut bad_nodes: Vec<NodeId> = Vec::new();
    let lane = chosen_lane(&mut cost, |cost| &cost.lanes, &outcome.seed);
    for (&v, (bin, good)) in sub.nodes.iter().zip(lane) {
        bin_counts[bin as usize] += 1;
        if good {
            bin_lists[bin as usize].push(v);
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
        bad_bins: bin_counts
            .iter()
            .filter(|&&count| !bin_good(&cost.params, count as u64))
            .count(),
        bad_node_bound: cost.bound,
        bad_graph_words,
        max_bin_nodes: bin_counts.iter().copied().max().unwrap_or(0),
        seed_outcome: outcome,
    };

    PartitionOutcome {
        bins: bin_lists,
        bad_nodes,
        color_hash,
        record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::good_bad::{evaluate_binning, BinningEvaluation};
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

    /// `seed`'s classification the plain way: lane 0 of the one-lane group
    /// `HashPair::planes` builds for it.
    fn one_lane(cost: &PartitionCost<'_>, seed: &BitSeed) -> BinningEvaluation {
        let planes = cost.hashes.planes(cost.sub, seed);
        evaluate_binning(cost.graph, cost.sub, &cost.params, &cost.tests, &planes)
    }

    #[test]
    fn partition_splits_nodes_into_bins_and_bad_set() {
        let (g, palettes) = setup(150, 0.3, 3);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let sub = ActiveSubgraph::new(&g, &palettes, &nodes);
        let derandomized = |candidates_per_chunk, max_salts| ColorReduceConfig {
            seed_strategy: SeedStrategy::Derandomized {
                chunk_bits: 61,
                candidates_per_chunk,
                max_salts,
            },
            ..ColorReduceConfig::paper()
        };
        let fixed = ColorReduceConfig {
            seed_strategy: SeedStrategy::FixedSalt { salt: 5 },
            ..ColorReduceConfig::paper()
        };
        let ell = g.max_degree() as u64;
        // (config, ℓ, whether the chosen seed is scored alone): 8
        // candidates; the default search, which stops at chunk 0; 128
        // candidates, two groups in one call; three salts under a palette
        // slack ℓ^0.7 no palette meets, where no seed meets the bound and
        // an earlier pass than the last wins; and a fixed salt.
        let cases = [
            (derandomized(8, 1), ell, false),
            (ColorReduceConfig::paper(), ell, false),
            (derandomized(128, 1), ell, false),
            (derandomized(8, 3), 1 << 20, true),
            (fixed, ell, false),
        ];
        for (case, (config, ell, alone)) in cases.into_iter().enumerate() {
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
            assert_eq!(out.bins.len(), 2);
            assert!(c.rounds() > 0);
            // Statistics are consistent.
            assert_eq!(out.record.bad_nodes, out.bad_nodes.len());
            assert_eq!(out.record.bins, 2);
            assert!(out.record.max_bin_nodes <= 150);

            // The same search again, then the read-out of its chosen seed,
            // which the latest scoring call holds unless an earlier pass won.
            let mut cost = PartitionCost::new(&g, &palettes, &sub, ell, 2, 150, &config);
            let strategy = config.seed_strategy;
            let bits = cost.hashes.seed_bits();
            let tweak = ell.rotate_left(17);
            let searched = select_seed(&mut ctx(150), "p", strategy, bits, &mut cost, &sub, tweak);
            let seed = &out.record.seed_outcome.seed;
            assert_eq!(&searched.seed, seed, "case {case}");
            assert_eq!(cost.lanes.lane(seed).is_none(), alone, "case {case}");
            let lane = chosen_lane(&mut cost, |cost| &cost.lanes, seed);
            assert!(cost.lanes.lane(seed).is_some());
            let eval = one_lane(&cost, seed);
            let expected: Vec<(u32, bool)> = eval
                .node_bin
                .iter()
                .copied()
                .zip(eval.node_good.iter().copied())
                .collect();
            assert_eq!(lane, expected, "case {case}");
            let mut bins = vec![Vec::new(); 2];
            let mut bad = Vec::new();
            for (&v, &(bin, good)) in sub.nodes.iter().zip(&expected) {
                if good {
                    bins[bin as usize].push(v);
                } else {
                    bad.push(v);
                }
            }
            assert_eq!((&out.bins, &out.bad_nodes), (&bins, &bad), "case {case}");
            assert_eq!(out.record.bad_bins, eval.bad_bin_count());
            assert_eq!(
                Some(out.record.max_bin_nodes),
                eval.bin_counts.iter().copied().max()
            );
            let outcome = &out.record.seed_outcome;
            match case {
                1 => assert_eq!(outcome.candidates_evaluated, 64),
                3 => assert!(!outcome.met_bound && outcome.escalations == 2),
                _ => {}
            }
        }
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
