//! `LowSpacePartition` (Algorithm 4): derandomized hashing of the
//! high-degree nodes and the colors into 𝔫^δ bins.
//!
//! The cost function minimized by the seed search counts, per Lemma 4.5, the
//! nodes whose in-bin degree exceeds twice its expectation and the nodes
//! (outside the colorless bin) whose in-bin palette does not exceed their
//! in-bin degree. The paper shows a random seed makes this cost < 1 in
//! expectation, i.e. the selected seed leaves no violating node; at small
//! scales a handful of violations can survive, and those nodes are moved to
//! the colorless last bin (they then keep their full palettes, so
//! correctness is unaffected) — the driver reports this as `safety_moves`.

use cc_derand::{SeedCost, SelectionOutcome};
use cc_graph::csr::CsrGraph;
use cc_graph::palette::Palette;
use cc_graph::NodeId;
use cc_hash::family::HashFunction;
use cc_hash::BitSeed;
use cc_sim::ClusterContext;

use crate::good_bad::{bin_nodes, ActiveSubgraph, NodeBinning};
use crate::partition::{select_seed, HashPair};

use super::LowSpaceConfig;

/// Result of one `LowSpacePartition` call on the high-degree node set.
#[derive(Debug, Clone)]
pub struct LowSpacePartitionOutcome {
    /// Node lists of the 𝔫^δ bins; the last bin receives no colors.
    pub bins: Vec<Vec<NodeId>>,
    /// The selected color hash function h2.
    pub color_hash: HashFunction,
    /// Number of bins.
    pub bin_count: u64,
    /// Seed-selection outcome.
    pub seed_outcome: SelectionOutcome,
    /// Nodes moved to the colorless bin because their restricted palette
    /// would not have exceeded their in-bin degree.
    pub safety_moves: usize,
}

/// The cost function of Lemma 4.5: one machine per high-degree node, which
/// costs 1 when the node violates either condition of the lemma.
struct LowSpaceCost<'a> {
    graph: &'a CsrGraph,
    sub: &'a ActiveSubgraph,
    palettes: &'a [Palette],
    bins: u64,
    hashes: HashPair,
}

impl LowSpaceCost<'_> {
    /// Bins, in-bin degrees and in-bin palettes under a combined seed.
    fn binning(&self, seed: &BitSeed) -> NodeBinning {
        let (h1, h2) = self.hashes.functions(seed);
        bin_nodes(
            self.graph,
            self.sub,
            self.palettes,
            self.bins,
            |x| h1.eval(x),
            |x| h2.eval(x),
        )
    }
}

impl SeedCost for LowSpaceCost<'_> {
    fn machine_count(&self) -> usize {
        self.sub.len()
    }

    fn local_costs(&self, seed: &BitSeed) -> Vec<f64> {
        let binning = self.binning(seed);
        let bins = self.bins as f64;
        self.sub
            .nodes
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let d_in = binning.in_bin_degree[i];
                let d = f64::from(self.sub.degree_in[v.index()]);
                // Lemma 4.5 (i): d'(v) < 2·d(v)/𝔫^δ.
                let degree_violation = f64::from(d_in) >= (2.0 * d / bins).max(1.0);
                // Lemma 4.5 (ii): d'(v) < p'(v) for nodes with a color class.
                let is_last_bin = u64::from(binning.node_bin[i]) == self.bins - 1;
                let palette_violation = !is_last_bin && binning.in_bin_palette[i] <= d_in;
                if degree_violation || palette_violation {
                    1.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    fn expectation_bound(&self) -> f64 {
        // Lemma 4.4: the expected number of bad machines is below 1.
        1.0
    }
}

/// Hashes the high-degree nodes of `sub` into `bins` bins and the colors into
/// `bins − 1` classes, with deterministically selected seeds.
pub fn low_space_partition(
    ctx: &mut ClusterContext,
    label: &str,
    graph: &CsrGraph,
    palettes: &[Palette],
    sub: &ActiveSubgraph,
    bins: u64,
    config: &LowSpaceConfig,
) -> LowSpacePartitionOutcome {
    debug_assert!(bins >= 2);
    let cost = LowSpaceCost {
        graph,
        sub,
        palettes,
        bins,
        hashes: HashPair::new(config.independence, graph, sub, bins),
    };
    let seed_outcome = select_seed(
        ctx,
        label,
        config.seed_strategy,
        cost.hashes.seed_bits(),
        &cost,
        sub,
        0,
    );
    let binning = cost.binning(&seed_outcome.seed);
    let (_, color_hash) = cost.hashes.functions(&seed_outcome.seed);

    let mut bin_lists: Vec<Vec<NodeId>> = vec![Vec::new(); bins as usize];
    let mut safety_moves = 0usize;
    for (i, &v) in sub.nodes.iter().enumerate() {
        let assigned = binning.node_bin[i] as usize;
        let is_last = assigned as u64 == bins - 1;
        // Safety valve: a node whose restricted palette would not strictly
        // exceed its in-bin degree keeps its full palette by joining the
        // colorless bin instead.
        let unsafe_restriction =
            !is_last && (bins - 1) >= 2 && binning.in_bin_palette[i] <= binning.in_bin_degree[i];
        if unsafe_restriction {
            safety_moves += 1;
            bin_lists[(bins - 1) as usize].push(v);
        } else {
            bin_lists[assigned].push(v);
        }
    }

    LowSpacePartitionOutcome {
        bins: bin_lists,
        color_hash,
        bin_count: bins,
        seed_outcome,
        safety_moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SeedStrategy;
    use cc_graph::generators;
    use cc_graph::instance::ListColoringInstance;
    use cc_sim::ExecutionModel;

    fn ctx(n: usize) -> ClusterContext {
        ClusterContext::new(ExecutionModel::mpc_low_space(n, 0.5, 1 << 22))
    }

    #[test]
    fn partition_covers_all_nodes() {
        let g = generators::gnp(120, 0.2, 3).unwrap();
        let inst = ListColoringInstance::deg_plus_one(&g).unwrap();
        let palettes = inst.palettes().to_vec();
        let nodes: Vec<NodeId> = g.nodes().collect();
        let sub = ActiveSubgraph::new(&g, &palettes, &nodes);
        let config = LowSpaceConfig::scaled_down(0.5);
        let out = low_space_partition(&mut ctx(120), "lsp", &g, &palettes, &sub, 3, &config);
        let total: usize = out.bins.iter().map(Vec::len).sum();
        assert_eq!(total, 120);
        assert_eq!(out.bin_count, 3);
    }

    #[test]
    fn partition_is_deterministic() {
        let g = generators::gnp(90, 0.25, 7).unwrap();
        let inst = ListColoringInstance::deg_plus_one(&g).unwrap();
        let palettes = inst.palettes().to_vec();
        let nodes: Vec<NodeId> = g.nodes().collect();
        let sub = ActiveSubgraph::new(&g, &palettes, &nodes);
        let config = LowSpaceConfig::scaled_down(0.5);
        let a = low_space_partition(&mut ctx(90), "lsp", &g, &palettes, &sub, 2, &config);
        let b = low_space_partition(&mut ctx(90), "lsp", &g, &palettes, &sub, 2, &config);
        assert_eq!(a.bins, b.bins);
        assert_eq!(a.safety_moves, b.safety_moves);
    }

    #[test]
    fn safety_valve_nodes_keep_full_palettes() {
        // With three bins and tight (deg+1) palettes, some nodes may be
        // unable to survive restriction; they must land in the last bin.
        let g = generators::gnp(100, 0.3, 5).unwrap();
        let inst = ListColoringInstance::deg_plus_one(&g).unwrap();
        let palettes = inst.palettes().to_vec();
        let nodes: Vec<NodeId> = g.nodes().collect();
        let sub = ActiveSubgraph::new(&g, &palettes, &nodes);
        let config = LowSpaceConfig {
            seed_strategy: SeedStrategy::FixedSalt { salt: 2 },
            ..LowSpaceConfig::scaled_down(0.5)
        };
        let out = low_space_partition(&mut ctx(100), "lsp", &g, &palettes, &sub, 3, &config);
        // Every node is somewhere, and the statistics line up.
        let total: usize = out.bins.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        assert!(out.safety_moves <= 100);
    }
}
