//! Good/bad classification of nodes and bins (Definition 3.1) and the
//! active-subgraph bookkeeping `Partition` operates on.
//!
//! `ColorReduce` never materializes the graphs induced by bins; it keeps the
//! global graph and works on *active node sets*. [`ActiveSubgraph`]
//! precomputes, for one such set, the in-set degrees and palette sizes.
//! `bin_nodes` hashes the set into bins under a concrete pair of hash
//! functions and counts every node's in-bin degree and palette; on top of
//! it, [`evaluate_binning`] classifies every active node and every bin as
//! good or bad — the quantity both the seed-search cost function and the
//! final partition read off. The low-space partition reads `bin_nodes`
//! directly.

use cc_graph::csr::CsrGraph;
use cc_graph::palette::Palette;
use cc_graph::NodeId;

use crate::config::ColorReduceConfig;

/// Numeric thresholds of Definition 3.1 for one `Partition` call.
#[derive(Debug, Clone, PartialEq)]
pub struct BinningParams {
    /// The degree parameter ℓ of the call.
    pub ell: u64,
    /// Number of node bins B = ⌊ℓ^β⌋ (≥ 2).
    pub bins: u64,
    /// 𝔫 — the number of nodes of the *original* input graph (used in the
    /// bad-bin threshold and the cost weighting).
    pub global_nodes: usize,
    /// Degree-deviation threshold ℓ^0.6.
    pub degree_slack: f64,
    /// Palette-surplus threshold ℓ^0.7.
    pub palette_slack: f64,
    /// A bin is good if it holds fewer than `2·n_G/B + 𝔫^0.6` nodes.
    pub bin_node_threshold: f64,
}

impl BinningParams {
    /// Derives the thresholds for a call on `active_count` nodes with
    /// parameter `ell`, using `config`'s exponents.
    pub fn new(
        config: &ColorReduceConfig,
        ell: u64,
        bins: u64,
        global_nodes: usize,
        active_count: usize,
    ) -> Self {
        BinningParams {
            ell,
            bins,
            global_nodes,
            degree_slack: config.degree_slack(ell),
            palette_slack: config.palette_slack(ell),
            bin_node_threshold: 2.0 * active_count as f64 / bins as f64
                + (global_nodes as f64).powf(0.6),
        }
    }
}

/// Precomputed view of the subgraph induced by an active node set.
#[derive(Debug, Clone)]
pub struct ActiveSubgraph {
    /// The active nodes, sorted by id.
    pub nodes: Vec<NodeId>,
    /// Global-indexed membership flags.
    pub active: Vec<bool>,
    /// Global-indexed position of each node in `nodes`
    /// (`usize::MAX` for inactive nodes).
    pub position: Vec<usize>,
    /// Global-indexed degree *within the active set* (0 for inactive nodes).
    pub degree_in: Vec<u32>,
    /// Palette size of each active node (indexed like `nodes`).
    pub palette_size: Vec<u32>,
    /// Total palette storage of active nodes in words.
    pub palette_words: usize,
    /// One plus the largest color value appearing in an active palette
    /// (domain for the color hash function h2).
    pub color_domain: u64,
    /// Number of edges with both endpoints active.
    pub edges_within: usize,
}

impl ActiveSubgraph {
    /// Builds the view for `nodes` (deduplicated) over `graph` with the
    /// current `palettes`.
    pub fn new(graph: &CsrGraph, palettes: &[Palette], nodes: &[NodeId]) -> Self {
        let n = graph.node_count();
        let mut sorted: Vec<NodeId> = nodes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut active = vec![false; n];
        let mut position = vec![usize::MAX; n];
        for (i, &v) in sorted.iter().enumerate() {
            active[v.index()] = true;
            position[v.index()] = i;
        }
        let mut degree_in = vec![0u32; n];
        let mut edges_within = 0usize;
        for &v in &sorted {
            let d = graph.neighbors(v).filter(|u| active[u.index()]).count();
            degree_in[v.index()] = d as u32;
            edges_within += d;
        }
        edges_within /= 2;
        let mut palette_size = Vec::with_capacity(sorted.len());
        let mut palette_words = 0usize;
        let mut color_domain = 1u64;
        for &v in &sorted {
            let palette = &palettes[v.index()];
            palette_size.push(palette.size() as u32);
            palette_words += palette.words();
            if let Some(max) = palette.iter().last() {
                color_domain = color_domain.max(max.0 + 1);
            }
        }
        ActiveSubgraph {
            nodes: sorted,
            active,
            position,
            degree_in,
            palette_size,
            palette_words,
            color_domain,
            edges_within,
        }
    }

    /// Number of active nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the active set is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Maximum in-set degree.
    pub fn max_degree(&self) -> usize {
        self.nodes
            .iter()
            .map(|v| self.degree_in[v.index()] as usize)
            .max()
            .unwrap_or(0)
    }

    /// Instance size in machine words: one word per node, two per in-set
    /// edge, plus palette storage.
    pub fn size_words(&self) -> usize {
        self.len() + 2 * self.edges_within + self.palette_words
    }
}

/// The classification produced by evaluating one (h1, h2) pair on an active
/// subgraph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinningEvaluation {
    /// Bin of each active node (indexed like `ActiveSubgraph::nodes`).
    pub node_bin: Vec<u32>,
    /// In-bin degree d′(v) of each active node.
    pub in_bin_degree: Vec<u32>,
    /// In-bin palette size p′(v) of each active node (only meaningful for
    /// nodes outside the last bin; equals the full palette size otherwise).
    pub in_bin_palette: Vec<u32>,
    /// Whether each active node is good (Definition 3.1).
    pub node_good: Vec<bool>,
    /// Number of nodes hashed to each bin.
    pub bin_counts: Vec<usize>,
    /// Whether each bin is good (Definition 3.1).
    pub bin_good: Vec<bool>,
}

impl BinningEvaluation {
    /// Number of bad nodes.
    pub fn bad_node_count(&self) -> usize {
        self.node_good.iter().filter(|&&g| !g).count()
    }

    /// Number of bad bins.
    pub fn bad_bin_count(&self) -> usize {
        self.bin_good.iter().filter(|&&g| !g).count()
    }

    /// The paper's cost 𝔮 = #bad nodes + 𝔫·#bad bins (Equation (1)).
    pub fn cost(&self, global_nodes: usize) -> f64 {
        self.bad_node_count() as f64 + (global_nodes * self.bad_bin_count()) as f64
    }

    /// The largest bin size.
    pub fn max_bin_count(&self) -> usize {
        self.bin_counts.iter().copied().max().unwrap_or(0)
    }
}

/// Where one (h1, h2) pair puts the active nodes, indexed like
/// `ActiveSubgraph::nodes`.
#[derive(Debug)]
pub(crate) struct NodeBinning {
    /// Bin of each active node.
    pub(crate) node_bin: Vec<u32>,
    /// In-bin degree d′(v) of each active node.
    pub(crate) in_bin_degree: Vec<u32>,
    /// In-bin palette size p′(v) of each active node: the palette colors
    /// `h2` maps to the node's bin, or the full palette size for nodes in
    /// the last bin and when there is a single color bin (B = 2), matching
    /// the identity palette restriction the caller applies in those cases.
    pub(crate) in_bin_palette: Vec<u32>,
}

/// Hashes every active node into one of `bins` bins with `h1` (domain =
/// global node ids) and counts its in-bin degree and, with `h2` (colors →
/// the `bins − 1` color bins, domain = color values), its in-bin palette.
pub(crate) fn bin_nodes(
    graph: &CsrGraph,
    sub: &ActiveSubgraph,
    palettes: &[Palette],
    bins: u64,
    h1: impl Fn(u64) -> u64,
    h2: impl Fn(u64) -> u64,
) -> NodeBinning {
    let color_bins = (bins - 1).max(1);
    let node_bin: Vec<u32> = sub
        .nodes
        .iter()
        .map(|v| {
            let b = h1(v.0 as u64);
            debug_assert!(b < bins, "h1 produced bin {b} outside 0..{bins}");
            b as u32
        })
        .collect();
    let mut in_bin_degree = vec![0u32; sub.len()];
    let mut in_bin_palette = vec![0u32; sub.len()];
    for (i, &v) in sub.nodes.iter().enumerate() {
        let my_bin = node_bin[i];
        // d'(v): active neighbors in the same bin. Neighbor bins are looked
        // up through their positions.
        let mut d_in = 0u32;
        for u in graph.neighbors(v) {
            let pos = sub.position[u.index()];
            if pos != usize::MAX && node_bin[pos] == my_bin {
                d_in += 1;
            }
        }
        in_bin_degree[i] = d_in;
        in_bin_palette[i] = if u64::from(my_bin) == bins - 1 || color_bins == 1 {
            sub.palette_size[i]
        } else {
            palettes[v.index()]
                .iter()
                .filter(|c| h2(c.0) == u64::from(my_bin))
                .count() as u32
        };
    }
    NodeBinning {
        node_bin,
        in_bin_degree,
        in_bin_palette,
    }
}

/// Classifies every active node and bin for the hash functions `h1` (nodes →
/// bins, domain = global node ids) and `h2` (colors → color bins, domain =
/// color values).
///
/// Nodes hashed to the last bin (`bins - 1`) are judged only by the degree
/// condition; all other nodes additionally need the palette condition, with
/// their in-bin palette counted against the color bin equal to their node
/// bin.
pub fn evaluate_binning(
    graph: &CsrGraph,
    sub: &ActiveSubgraph,
    palettes: &[Palette],
    params: &BinningParams,
    h1: impl Fn(u64) -> u64,
    h2: impl Fn(u64) -> u64,
) -> BinningEvaluation {
    let NodeBinning {
        node_bin,
        in_bin_degree,
        in_bin_palette,
    } = bin_nodes(graph, sub, palettes, params.bins, h1, h2);
    let bins = params.bins as f64;
    let mut bin_counts = vec![0usize; params.bins as usize];
    let mut node_good = vec![false; sub.len()];
    for (i, &v) in sub.nodes.iter().enumerate() {
        bin_counts[node_bin[i] as usize] += 1;
        let expected = f64::from(sub.degree_in[v.index()]) / bins;
        let degree_ok = (f64::from(in_bin_degree[i]) - expected).abs() <= params.degree_slack;
        node_good[i] = if u64::from(node_bin[i]) == params.bins - 1 {
            degree_ok
        } else {
            let p = f64::from(sub.palette_size[i]);
            degree_ok && f64::from(in_bin_palette[i]) >= p / bins + params.palette_slack
        };
    }
    let bin_good = bin_counts
        .iter()
        .map(|&count| (count as f64) < params.bin_node_threshold)
        .collect();
    BinningEvaluation {
        node_bin,
        in_bin_degree,
        in_bin_palette,
        node_good,
        bin_counts,
        bin_good,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::builder::GraphBuilder;
    use cc_graph::instance::ListColoringInstance;

    #[test]
    fn active_subgraph_precomputes_degrees_and_sizes() {
        let g = GraphBuilder::cycle(6).build();
        let inst = ListColoringInstance::delta_plus_one(&g).unwrap();
        // Activate nodes 0..4: a path 0-1-2-3 inside the cycle.
        let sub = ActiveSubgraph::new(
            g_ref(&g),
            inst.palettes(),
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
        );
        assert_eq!(sub.len(), 4);
        assert_eq!(sub.edges_within, 3);
        assert_eq!(sub.degree_in[1], 2);
        assert_eq!(sub.degree_in[0], 1);
        assert_eq!(sub.max_degree(), 2);
        assert_eq!(sub.palette_size, vec![3, 3, 3, 3]);
        // 4 node words + 6 edge words + 4 implicit palette words.
        assert_eq!(sub.size_words(), 4 + 6 + 4);
        assert!(sub.color_domain >= 3);
        assert!(!sub.is_empty());
    }

    fn g_ref(g: &cc_graph::csr::CsrGraph) -> &cc_graph::csr::CsrGraph {
        g
    }

    #[test]
    fn binning_params_thresholds() {
        let config = ColorReduceConfig::paper();
        let p = BinningParams::new(&config, 1 << 20, 4, 100_000, 50_000);
        assert_eq!(p.bins, 4);
        assert!((p.degree_slack - ((1u64 << 20) as f64).powf(0.6)).abs() < 1e-6);
        assert!(p.bin_node_threshold > 25_000.0);
    }

    #[test]
    fn evaluate_binning_counts_in_bin_degrees_and_palettes() {
        // A 4-cycle with generous palettes; split nodes into two bins by
        // parity. Thresholds are chosen loose so everything is good.
        let g = GraphBuilder::cycle(4).build();
        let palettes: Vec<Palette> = (0..4).map(|_| Palette::range(100)).collect();
        let sub = ActiveSubgraph::new(&g, &palettes, &g.nodes().collect::<Vec<_>>());
        let params = BinningParams {
            ell: 100,
            bins: 2,
            global_nodes: 4,
            degree_slack: 10.0,
            palette_slack: 5.0,
            bin_node_threshold: 100.0,
        };
        let eval = evaluate_binning(&g, &sub, &palettes, &params, |v| v % 2, |_| 0);
        // Parity split of C4 puts both neighbors of every node in the other
        // bin.
        assert_eq!(eval.in_bin_degree, vec![0, 0, 0, 0]);
        assert_eq!(eval.bin_counts, vec![2, 2]);
        assert_eq!(eval.bad_node_count(), 0);
        assert_eq!(eval.bad_bin_count(), 0);
        assert_eq!(eval.cost(4), 0.0);
        assert_eq!(eval.max_bin_count(), 2);
        // Single color bin: nodes outside the last bin keep their palettes.
        assert_eq!(eval.in_bin_palette[0], 100);
    }

    #[test]
    fn evaluate_binning_flags_overfull_bins_and_degree_deviations() {
        // A star: the hub has high degree; put everything in one bin with a
        // tiny deviation threshold and a tiny bin threshold.
        let g = GraphBuilder::star(10).build();
        let palettes: Vec<Palette> = (0..10).map(|_| Palette::range(50)).collect();
        let sub = ActiveSubgraph::new(&g, &palettes, &g.nodes().collect::<Vec<_>>());
        let params = BinningParams {
            ell: 9,
            bins: 2,
            global_nodes: 10,
            degree_slack: 0.5,
            palette_slack: 1.0,
            bin_node_threshold: 5.0,
        };
        // Everything to bin 0 (not the last bin).
        let eval = evaluate_binning(&g, &sub, &palettes, &params, |_| 0, |_| 0);
        // Bin 0 has 10 >= 5 nodes -> bad bin; bin 1 empty -> good.
        assert_eq!(eval.bad_bin_count(), 1);
        // The hub keeps all 9 neighbors in its bin: |9 - 4.5| > 0.5 -> bad.
        let hub_pos = sub.position[0];
        assert!(!eval.node_good[hub_pos]);
        assert!(eval.cost(10) >= 10.0);
    }
}
