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

use crate::good_bad::{
    at_least, bin_lanes, chosen_lane, exceeds, first_passing, ActiveSubgraph, HashPair, LaneTotals,
    ScoredLanes,
};
use crate::partition::select_seed;

use super::LowSpaceConfig;

/// Result of one `LowSpacePartition` call on the high-degree node set.
#[derive(Debug, Clone)]
pub struct LowSpacePartitionOutcome {
    /// Node lists of the 𝔫^δ bins; the last bin receives no colors.
    pub bins: Vec<Vec<NodeId>>,
    /// The selected color hash function h2.
    pub color_hash: HashFunction,
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
    bins: u64,
    hashes: HashPair,
    /// The least in-bin degree that breaks Lemma 4.5 (i), per active node.
    degree_limit: Vec<u64>,
    /// Each node's bin, and the lanes in which its in-bin palette exceeds
    /// its in-bin degree, under the seeds of the latest
    /// [`SeedCost::total_costs`] call.
    lanes: ScoredLanes,
}

impl<'a> LowSpaceCost<'a> {
    fn new(
        graph: &'a CsrGraph,
        sub: &'a ActiveSubgraph,
        palettes: &'a [Palette],
        bins: u64,
        independence: usize,
    ) -> Self {
        let degree_limit = sub
            .nodes
            .iter()
            .map(|v| {
                // Lemma 4.5 (i): d'(v) < 2·d(v)/𝔫^δ.
                let d = sub.degree_in[v.index()];
                let limit = (2.0 * f64::from(d) / bins as f64).max(1.0);
                first_passing(0, u64::from(d) + 1, |x| x as f64 >= limit)
            })
            .collect();
        LowSpaceCost {
            graph,
            sub,
            bins,
            hashes: HashPair::new(independence, graph, sub, palettes, bins),
            degree_limit,
            lanes: ScoredLanes::default(),
        }
    }
}

impl SeedCost for LowSpaceCost<'_> {
    fn machine_count(&self) -> usize {
        self.sub.len()
    }

    fn total_cost(&mut self, seed: &BitSeed) -> f64 {
        self.total_costs(std::slice::from_ref(seed))[0]
    }

    /// One bit-sliced pass over the edges per group of 64 seeds, which also
    /// records every node's bin and palette verdict under each seed.
    fn total_costs(&mut self, seeds: &[BitSeed]) -> Vec<f64> {
        let lanes = &mut self.lanes;
        lanes.start(seeds, self.bins);
        let mut costs = Vec::with_capacity(seeds.len());
        for planes in self.hashes.lane_planes(self.sub, seeds) {
            let mut violators = LaneTotals::new(self.sub.len());
            bin_lanes(self.graph, self.sub, &planes, |node| {
                let degree_violation = at_least(node.degree, self.degree_limit[node.index]);
                // Lemma 4.5 (ii): d'(v) < p'(v) for nodes with a color class.
                let palette_exceeds = exceeds(node.palette, node.degree);
                let palette_violation = !node.last & !palette_exceeds;
                violators.add((degree_violation | palette_violation) & node.lanes);
                lanes.record(node, palette_exceeds);
            });
            costs.extend((0..planes.lane_count()).map(|lane| violators.get(lane) as f64));
        }
        costs
    }

    fn expectation_bound(&self) -> f64 {
        // Lemma 4.4: the expected number of bad machines is below 1.
        1.0
    }

    /// A seed that no node violates costs 0.
    fn floor(&self) -> Option<f64> {
        Some(0.0)
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
    let mut cost = LowSpaceCost::new(graph, sub, palettes, bins, config.independence);
    let seed_outcome = select_seed(
        ctx,
        label,
        config.seed_strategy,
        cost.hashes.seed_bits(),
        &mut cost,
        sub,
        0,
    );
    let (_, color_hash) = cost.hashes.functions(&seed_outcome.seed);

    // Bin the nodes by the chosen seed's lane, as its search scored it.
    let mut bin_lists: Vec<Vec<NodeId>> = vec![Vec::new(); bins as usize];
    let mut safety_moves = 0usize;
    let lane = chosen_lane(&mut cost, |cost| &cost.lanes, &seed_outcome.seed);
    for (&v, (bin, palette_exceeds)) in sub.nodes.iter().zip(lane) {
        let is_last = u64::from(bin) == bins - 1;
        // Safety valve: a node whose restricted palette would not strictly
        // exceed its in-bin degree keeps its full palette by joining the
        // colorless bin instead.
        let unsafe_restriction = !is_last && (bins - 1) >= 2 && !palette_exceeds;
        if unsafe_restriction {
            safety_moves += 1;
            bin_lists[(bins - 1) as usize].push(v);
        } else {
            bin_lists[bin as usize].push(v);
        }
    }

    LowSpacePartitionOutcome {
        bins: bin_lists,
        color_hash,
        seed_outcome,
        safety_moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SeedStrategy;
    use crate::good_bad::{evaluate_binning, BinningEvaluation, BinningParams, NodeTests};
    use cc_graph::generators::{self, instance_with_palettes, PaletteKind};
    use cc_graph::instance::ListColoringInstance;
    use cc_graph::Color;
    use cc_sim::ExecutionModel;

    fn ctx(n: usize) -> ClusterContext {
        ClusterContext::new(ExecutionModel::mpc_low_space(n, 0.5, 1 << 22))
    }

    /// `seed`'s bins and in-bin counts the plain way: lane 0 of the one-lane
    /// group `HashPair::planes` builds for it (the tests, which this cost
    /// does not use, pass everything).
    fn one_lane(cost: &LowSpaceCost<'_>, seed: &BitSeed) -> BinningEvaluation {
        let params = BinningParams {
            bins: cost.bins,
            global_nodes: cost.graph.node_count(),
            degree_slack: f64::INFINITY,
            palette_slack: 0.0,
            bin_node_threshold: f64::INFINITY,
        };
        let tests = NodeTests::new(cost.sub, &params);
        let planes = cost.hashes.planes(cost.sub, seed);
        evaluate_binning(cost.graph, cost.sub, &params, &tests, &planes)
    }

    /// `low_space_partition`'s bins and safety moves on `sub` against the
    /// one-lane read-out of the seed it chose.
    fn check_bins(
        out: &LowSpacePartitionOutcome,
        g: &CsrGraph,
        palettes: &[Palette],
        sub: &ActiveSubgraph,
        config: &LowSpaceConfig,
    ) {
        let bins = out.bins.len() as u64;
        let cost = LowSpaceCost::new(g, sub, palettes, bins, config.independence);
        let eval = one_lane(&cost, &out.seed_outcome.seed);
        let mut expected = vec![Vec::new(); bins as usize];
        let mut moves = 0;
        for (i, &v) in sub.nodes.iter().enumerate() {
            let bin = u64::from(eval.node_bin[i]);
            let unsafe_restriction =
                bin != bins - 1 && bins >= 3 && eval.in_bin_palette[i] <= eval.in_bin_degree[i];
            moves += usize::from(unsafe_restriction);
            let bin = if unsafe_restriction { bins - 1 } else { bin };
            expected[bin as usize].push(v);
        }
        assert_eq!((&out.bins, out.safety_moves), (&expected, moves));
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
        assert_eq!(out.bins.len(), 3);
        check_bins(&out, &g, &palettes, &sub, &config);
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
    fn lane_costs_match_lemma_4_5_one_seed_at_a_time() {
        let g = generators::gnp(90, 0.3, 4).unwrap();
        let nodes: Vec<NodeId> = g.nodes().filter(|v| v.0 % 4 != 1).collect();
        // Colors 0..=deg, then colors drawn from 𝔫² and from 2⁵⁰.
        let mut instances = vec![ListColoringInstance::deg_plus_one(&g).unwrap()];
        for universe in [90 * 90, 1 << 50] {
            let kind = PaletteKind::DegPlusOneList { universe };
            instances.push(instance_with_palettes(&g, kind, 4).unwrap());
        }
        let largest = instances[2]
            .palettes()
            .iter()
            .filter_map(Palette::max_color);
        assert!(largest.max() >= Some(Color(1 << 40)));
        for (inst, bins) in instances
            .iter()
            .flat_map(|inst| [2u64, 3, 5].map(|bins| (inst, bins)))
        {
            let palettes = inst.palettes();
            let sub = ActiveSubgraph::new(&g, palettes, &nodes);
            let mut cost = LowSpaceCost::new(&g, &sub, palettes, bins, 3);
            let seeds: Vec<BitSeed> = (0..70)
                .map(|k| BitSeed::zeros(cost.hashes.seed_bits()).canonical_completion(0, k))
                .collect();
            let costs = cost.total_costs(&seeds);
            assert_eq!(costs.len(), seeds.len());
            for (seed, lane_cost) in seeds.iter().zip(costs) {
                // The plain way: hash each node, neighbor and palette color.
                let (h1, h2) = cost.hashes.functions(seed);
                let bin = |v: NodeId| h1.eval(u64::from(v.0));
                let binning = one_lane(&cost, seed);
                let recorded: Vec<(u32, bool)> = cost.lanes.lane(seed).unwrap().collect();
                let violators = sub.nodes.iter().enumerate().filter(|&(i, &v)| {
                    let same_bin = |u: &NodeId| sub.active[u.index()] && bin(*u) == bin(v);
                    let d_in = g.neighbors(v).filter(same_bin).count() as u32;
                    let p_in = palettes[v.index()]
                        .iter()
                        .filter(|c| h2.eval(c.0) == bin(v))
                        .count() as u32;
                    let last = bin(v) == bins - 1;
                    assert_eq!(binning.node_bin[i], bin(v) as u32);
                    assert_eq!(binning.in_bin_degree[i], d_in);
                    assert!(last || binning.in_bin_palette[i] == p_in, "B = {bins}");
                    // The lane the search recorded: the bin, and whether the
                    // in-bin palette exceeds the in-bin degree.
                    let exceeds = binning.in_bin_palette[i] > d_in;
                    assert_eq!(recorded[i], (bin(v) as u32, exceeds), "B = {bins}");
                    let d = f64::from(sub.degree_in[v.index()]);
                    let degree_violation = f64::from(d_in) >= (2.0 * d / bins as f64).max(1.0);
                    degree_violation || (!last && p_in <= d_in)
                });
                assert_eq!(lane_cost, violators.count() as f64, "B = {bins}");
            }
        }
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
        check_bins(&out, &g, &palettes, &sub, &config);
    }
}
