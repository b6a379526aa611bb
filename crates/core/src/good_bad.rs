//! Good/bad classification of nodes and bins (Definition 3.1) and the
//! active-subgraph bookkeeping `Partition` operates on.
//!
//! `ColorReduce` never materializes the graphs induced by bins; it keeps the
//! global graph and works on *active node sets*. [`ActiveSubgraph`]
//! precomputes, for one such set, the in-set degrees and palette sizes.
//!
//! Binning is bit-sliced over up to [`LANES`] (h1, h2) pairs at once, one
//! bit lane per pair, the way §2.4 has every machine score every candidate
//! of a chunk. [`LanePlanes`] stores each node's bin under every pair in
//! ⌈log₂ B⌉ global-indexed `u64` planes (bit `lane` of plane `j` is bit `j`
//! of the bin), with inactive nodes masked out, and, when B ≥ 3, the h2 bin
//! of each distinct color of the active palettes the same way: one row per
//! color in use, so the planes grow with the palettes, not with the largest
//! color id. `bin_lanes` is the one loop that walks adjacency lists: a
//! single pass over the active nodes' edges (and, when B ≥ 3, their
//! palettes) counts every node's in-bin degree and palette under all lanes
//! in bit-sliced counters. [`NodeTests`] turns Definition 3.1's tests into
//! integer thresholds per node, each found by evaluating the f64 test, and
//! the counters are compared with them bit-sliced too.
//! On top of that loop:
//!
//! * [`binning_costs`] scores a group of pairs for the seed search, reading
//!   out only each lane's bad-node and bin totals, and the low-space cost
//!   counts Lemma 4.5's violators the same way;
//! * both costs also keep, in [`ScoredLanes`], each active node's bin planes
//!   and one verdict lane mask for every group of their latest scoring
//!   call: whether the node is good for `Partition`, whether its in-bin
//!   palette exceeds its in-bin degree for `LowSpacePartition`. As in §2.4,
//!   where every machine scores every candidate of a chunk, each node
//!   already holds its bin and verdict under the broadcast minimizer, so
//!   the partition reads its chosen seed's lane from that record, with no
//!   second pass over the edges. A multi-salt search can pick a seed from
//!   an earlier pass, which the latest call did not score: that seed is
//!   scored alone first, so there is one read-out path;
//! * [`evaluate_binning`] classifies every active node and bin under the
//!   one-lane group [`HashPair::planes`] builds for a seed: the plain
//!   read-out the tests check the lanes against.
//!
//! `ColorReduce` and `LowSpaceColorReduce` then color the bins through one
//! recursion step, `color_reduce::color_bins`.

use cc_derand::SeedCost;
use cc_graph::csr::CsrGraph;
use cc_graph::palette::Palette;
use cc_graph::{Color, NodeId};
use cc_hash::family::HashFunction;
use cc_hash::field::{Mersenne61, MERSENNE_61};
use cc_hash::{BitSeed, PolynomialHashFamily};

use crate::config::ColorReduceConfig;
use crate::error::CoreError;

/// How many (h1, h2) pairs one [`LanePlanes`] holds: one per bit of a `u64`.
pub const LANES: usize = 64;

/// The largest color [`HashPair`] can bin, 2⁶¹ − 3: h2's domain, one past
/// the largest active color, must stay below the field modulus 2⁶¹ − 1.
pub const MAX_HASHABLE_COLOR: Color = Color(MERSENNE_61 - 2);

/// Rejects palettes holding a color above [`MAX_HASHABLE_COLOR`], naming the
/// first such node and its largest color.
pub(crate) fn check_hashable_colors(palettes: &[Palette]) -> Result<(), CoreError> {
    for (i, palette) in palettes.iter().enumerate() {
        if let Some(color) = palette.max_color().filter(|&c| c > MAX_HASHABLE_COLOR) {
            return Err(CoreError::ColorOutOfRange {
                node: NodeId::from_index(i),
                color,
            });
        }
    }
    Ok(())
}

/// Numeric thresholds of Definition 3.1 for one `Partition` call.
#[derive(Debug, Clone, PartialEq)]
pub struct BinningParams {
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
        for &v in &sorted {
            active[v.index()] = true;
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
            if let Some(max) = palette.max_color() {
                color_domain = color_domain.max(max.0 + 1);
            }
        }
        ActiveSubgraph {
            nodes: sorted,
            active,
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
}

/// Extracts `len` bits starting at `start` from `seed` into a fresh seed.
fn slice_seed(seed: &BitSeed, start: usize, len: usize) -> BitSeed {
    let mut out = BitSeed::zeros(len);
    let mut copied = 0usize;
    while copied < len {
        let width = (len - copied).min(61);
        out.set_chunk(copied, width, seed.chunk(start + copied, width));
        copied += width;
    }
    out
}

/// The colors h2 bins: the distinct colors of the active palettes, and each
/// active node's palette as indices into them. Empty when B = 2, where h2
/// has one bin and is never evaluated.
#[derive(Debug, Clone, Default)]
struct PaletteColors {
    /// The distinct colors of the active palettes, ascending.
    distinct: Vec<u64>,
    /// The palettes of the active nodes, in `ActiveSubgraph::nodes` order,
    /// as indices into `distinct`.
    rows: Vec<u32>,
    /// Where each active node's palette starts in `rows`, then `rows.len()`.
    starts: Vec<usize>,
}

impl PaletteColors {
    /// The colors of `sub`'s palettes when binning into `bins` bins.
    fn new(sub: &ActiveSubgraph, palettes: &[Palette], bins: u64) -> Self {
        if bins <= 2 {
            return PaletteColors::default();
        }
        let active = || sub.nodes.iter().map(|v| &palettes[v.index()]);
        let mut distinct: Vec<u64> = active().flat_map(|p| p.iter().map(|c| c.0)).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut rows = Vec::with_capacity(sub.palette_size.iter().map(|&p| p as usize).sum());
        let mut starts = vec![0];
        for palette in active() {
            rows.extend(palette.iter().map(|c| {
                let row = distinct
                    .binary_search(&c.0)
                    .expect("every color was collected");
                u32::try_from(row).expect("fewer than 2³² distinct colors")
            }));
            starts.push(rows.len());
        }
        PaletteColors {
            distinct,
            rows,
            starts,
        }
    }

    /// The palette of the active node at `index`, as rows.
    fn palette(&self, index: usize) -> &[u32] {
        &self.rows[self.starts[index]..self.starts[index + 1]]
    }
}

/// The hash families of one `Partition` or `LowSpacePartition` call: h1
/// hashes node ids into the `bins` node bins, h2 hashes colors into the
/// `bins − 1` color bins (one when B = 2). A combined seed is h1's seed
/// followed by h2's.
#[derive(Debug, Clone)]
pub struct HashPair {
    nodes: PolynomialHashFamily,
    colors: PolynomialHashFamily,
    /// `x¹, …, x^(c−1)` of every active node, in `ActiveSubgraph::nodes`
    /// order.
    node_powers: Vec<Mersenne61>,
    /// The colors h2 bins.
    palette_colors: PaletteColors,
    /// The same powers for each of those colors, in their order.
    color_powers: Vec<Mersenne61>,
}

impl HashPair {
    /// The families binning `sub`, whose palettes are `palettes`, into
    /// `bins` bins with `independence`-wise independent functions.
    pub fn new(
        independence: usize,
        graph: &CsrGraph,
        sub: &ActiveSubgraph,
        palettes: &[Palette],
        bins: u64,
    ) -> Self {
        let nodes =
            PolynomialHashFamily::new(independence, (graph.node_count() as u64).max(2), bins);
        let colors =
            PolynomialHashFamily::new(independence, sub.color_domain.max(2), (bins - 1).max(1));
        let node_powers = sub
            .nodes
            .iter()
            .flat_map(|v| nodes.powers(u64::from(v.0)))
            .collect();
        let palette_colors = PaletteColors::new(sub, palettes, bins);
        let color_powers = palette_colors
            .distinct
            .iter()
            .flat_map(|&c| colors.powers(c))
            .collect();
        HashPair {
            nodes,
            colors,
            node_powers,
            palette_colors,
            color_powers,
        }
    }

    /// Length of a combined seed.
    pub fn seed_bits(&self) -> usize {
        self.nodes.seed_bits() + self.colors.seed_bits()
    }

    /// The seeds of h1 and h2 in a combined seed.
    fn split(&self, seed: &BitSeed) -> (BitSeed, BitSeed) {
        let node_bits = self.nodes.seed_bits();
        (
            slice_seed(seed, 0, node_bits),
            slice_seed(seed, node_bits, self.colors.seed_bits()),
        )
    }

    /// The functions (h1, h2) a combined seed selects.
    pub fn functions(&self, seed: &BitSeed) -> (HashFunction, HashFunction) {
        let (h1, h2) = self.split(seed);
        (self.nodes.with_seed(h1), self.colors.with_seed(h2))
    }

    /// The lane planes of `seeds` on `sub` (the subgraph the pair was built
    /// for), [`LANES`] seeds per group: lane `k` of group `g` holds the pair
    /// that seed `g·LANES + k` selects.
    pub fn lane_planes<'a>(
        &'a self,
        sub: &'a ActiveSubgraph,
        seeds: &'a [BitSeed],
    ) -> impl Iterator<Item = LanePlanes<'a>> + 'a {
        seeds
            .chunks(LANES)
            .map(move |group| self.group_planes(sub, group))
    }

    /// The one-lane planes of `seed` on `sub`: lane 0 holds the pair it
    /// selects, exactly as in the group [`HashPair::lane_planes`] scored it
    /// in.
    pub fn planes(&self, sub: &ActiveSubgraph, seed: &BitSeed) -> LanePlanes<'_> {
        self.group_planes(sub, std::slice::from_ref(seed))
    }

    /// The planes of at most [`LANES`] seeds. Each distinct h1 is evaluated
    /// once per node: the chunks that fix h2's bits leave h1 the same in
    /// every lane.
    fn group_planes(&self, sub: &ActiveSubgraph, seeds: &[BitSeed]) -> LanePlanes<'_> {
        let pairs: Vec<(Vec<Mersenne61>, Vec<Mersenne61>)> = seeds
            .iter()
            .map(|seed| {
                let (h1, h2) = self.split(seed);
                (self.nodes.coefficients(&h1), self.colors.coefficients(&h2))
            })
            .collect();
        let mut node_functions: Vec<(&[Mersenne61], u64)> = Vec::new();
        for (lane, (h1, _)) in pairs.iter().enumerate() {
            match node_functions.iter_mut().find(|(f, _)| *f == h1.as_slice()) {
                Some((_, lanes)) => *lanes |= 1 << lane,
                None => node_functions.push((h1, 1 << lane)),
            }
        }
        let mut planes =
            LanePlanes::new(sub, &self.palette_colors, self.nodes.range(), seeds.len());
        // Powers per input: c − 1, possibly none.
        let k = self.nodes.independence() - 1;
        for (i, &v) in sub.nodes.iter().enumerate() {
            let powers = &self.node_powers[i * k..(i + 1) * k];
            for &(h1, lanes) in &node_functions {
                planes.set_node(v, lanes, self.nodes.eval_with_powers(h1, powers));
            }
        }
        for row in 0..self.palette_colors.distinct.len() {
            let powers = &self.color_powers[row * k..(row + 1) * k];
            for (lane, (_, h2)) in pairs.iter().enumerate() {
                planes.set_color(row, 1 << lane, self.colors.eval_with_powers(h2, powers));
            }
        }
        planes
    }
}

/// Where up to [`LANES`] (h1, h2) pairs put the nodes and colors of one
/// active subgraph, one bit lane per pair: bit `lane` of plane `j` holds bit
/// `j` of the bin that lane's pair picks.
#[derive(Debug, Clone)]
pub struct LanePlanes<'a> {
    /// Number of node bins B.
    bins: u64,
    /// Planes per node or color: ⌈log₂ B⌉.
    width: usize,
    /// The lanes in use.
    lanes: u64,
    /// Global-indexed rows of `1 + width` words: the lanes in use for an
    /// active node (0 for an inactive one), then the node's bin planes.
    nodes: Vec<u64>,
    /// The colors h2 bins, and the active palettes as rows of `colors`.
    palette_colors: &'a PaletteColors,
    /// One row of `width` words per distinct color of `palette_colors`,
    /// holding h2's bin planes; empty when B = 2 (one color bin).
    colors: Vec<u64>,
}

impl<'a> LanePlanes<'a> {
    /// Planes for `lanes` pairs binning `sub` into `bins` bins and
    /// `palette_colors` into `bins − 1`, with every node and color in bin 0
    /// until set.
    fn new(
        sub: &ActiveSubgraph,
        palette_colors: &'a PaletteColors,
        bins: u64,
        lanes: usize,
    ) -> Self {
        assert!(bins >= 2, "binning needs at least two bins");
        assert!(
            (1..=LANES).contains(&lanes),
            "{lanes} lanes outside 1..={LANES}"
        );
        let width = bit_length(bins - 1);
        let lane_mask = u64::MAX >> (LANES - lanes);
        let mut nodes = vec![0u64; sub.active.len() * (1 + width)];
        for v in &sub.nodes {
            nodes[v.index() * (1 + width)] = lane_mask;
        }
        LanePlanes {
            bins,
            width,
            lanes: lane_mask,
            nodes,
            palette_colors,
            colors: vec![0u64; palette_colors.distinct.len() * width],
        }
    }

    /// Number of lanes in use.
    pub fn lane_count(&self) -> usize {
        self.lanes.count_ones() as usize
    }

    /// Whether colors are binned: B ≥ 3, so there is more than one color
    /// bin.
    fn has_colors(&self) -> bool {
        self.bins > 2
    }

    /// Puts node `v` in bin `bin` under `lanes`.
    fn set_node(&mut self, v: NodeId, lanes: u64, bin: u64) {
        debug_assert!(
            bin < self.bins,
            "h1 produced bin {bin} outside 0..{}",
            self.bins
        );
        let row = v.index() * (1 + self.width) + 1;
        set_bits(&mut self.nodes[row..row + self.width], lanes, bin);
    }

    /// Puts the color of row `row` in color bin `bin` under `lanes`.
    fn set_color(&mut self, row: usize, lanes: u64, bin: u64) {
        debug_assert!(
            bin < self.bins - 1,
            "h2 produced bin {bin} outside 0..{}",
            self.bins - 1
        );
        let start = row * self.width;
        set_bits(&mut self.colors[start..start + self.width], lanes, bin);
    }
}

/// One active node's bin and in-bin counts under every lane, bit-sliced:
/// plane `j` of a count holds bit `j` of each lane's value.
pub(crate) struct NodeLanes<'a> {
    /// Position of the node in `ActiveSubgraph::nodes`.
    pub(crate) index: usize,
    /// The lanes in use.
    pub(crate) lanes: u64,
    /// The node's bin planes.
    pub(crate) bin: &'a [u64],
    /// The lanes in which the node sits in the last bin.
    pub(crate) last: u64,
    /// In-bin degree d′(v).
    pub(crate) degree: &'a [u64],
    /// In-bin palette size p′(v): the palette colors `h2` maps to the
    /// node's bin, or the full palette size for a node in the last bin and
    /// when there is a single color bin (B = 2), matching the identity
    /// palette restriction the caller applies in those cases.
    pub(crate) palette: &'a [u64],
}

impl NodeLanes<'_> {
    /// The lanes in which the node sits in bin `bin`.
    fn in_bin(&self, bin: u64) -> u64 {
        lanes_equal(self.bin, bin) & self.lanes
    }
}

/// The binning loop, the only one that walks adjacency lists. For every
/// active node, one pass over its edges and, when B ≥ 3, its palette counts
/// its in-bin degree and palette under every lane of `planes`; `visit` then
/// reads the node's lanes.
pub(crate) fn bin_lanes(
    graph: &CsrGraph,
    sub: &ActiveSubgraph,
    planes: &LanePlanes<'_>,
    mut visit: impl FnMut(&NodeLanes<'_>),
) {
    let width = planes.width;
    let stride = 1 + width;
    // Counts never exceed a node's degree or palette size, both u32.
    let mut degree_planes = [0u64; 32];
    let mut palette_planes = [0u64; 32];
    for (index, &v) in sub.nodes.iter().enumerate() {
        let row = &planes.nodes[v.index() * stride..][..stride];
        let (lanes, bin) = (row[0], &row[1..]);
        // At least three planes, for `count_lanes`' carry-save digits.
        let degree = &mut degree_planes[..bit_length(u64::from(sub.degree_in[v.index()])).max(3)];
        degree.fill(0);
        count_lanes(degree, graph.neighbor_slice(v), |u| {
            let other = &planes.nodes[u.index() * stride..][..stride];
            // 0 for an inactive neighbor, else the lanes where it shares
            // v's bin.
            other[1..]
                .iter()
                .zip(bin)
                .fold(other[0], |same, (a, b)| same & !(a ^ b))
        });
        let last = lanes_equal(bin, planes.bins - 1) & lanes;
        let size = u64::from(sub.palette_size[index]);
        let palette = &mut palette_planes[..bit_length(size)];
        palette.fill(0);
        // The lanes that keep the whole palette: all of them when there is
        // one color bin, else those in the last bin.
        let full = if planes.has_colors() { last } else { u64::MAX };
        if full & lanes != lanes {
            for &row in planes.palette_colors.palette(index) {
                let color = &planes.colors[row as usize * width..][..width];
                let same = color
                    .iter()
                    .zip(bin)
                    .fold(lanes, |same, (a, b)| same & !(a ^ b));
                add(palette, same);
            }
        }
        for (j, plane) in palette.iter_mut().enumerate() {
            *plane = (*plane & !full) | (full & ((size >> j) & 1).wrapping_neg());
        }
        visit(&NodeLanes {
            index,
            lanes,
            bin,
            last,
            degree,
            palette,
        });
    }
}

/// Definition 3.1's node tests as integer thresholds, one set per active
/// node: the in-bin degrees `lo..hi` that pass the degree test, and the
/// least in-bin palette that passes the palette test. Each threshold is
/// found by evaluating the f64 test, so comparing a count with it decides
/// what the test decides.
#[derive(Debug, Clone)]
pub struct NodeTests {
    degree: Vec<(u64, u64)>,
    palette: Vec<u64>,
}

impl NodeTests {
    /// The thresholds of every node of `sub` under `params`.
    pub fn new(sub: &ActiveSubgraph, params: &BinningParams) -> Self {
        let bins = params.bins as f64;
        let mut degree = Vec::with_capacity(sub.len());
        let mut palette = Vec::with_capacity(sub.len());
        for (i, v) in sub.nodes.iter().enumerate() {
            // |d′(v) − d(v)/B| ≤ ℓ^0.6. The deviation is monotone in d′(v),
            // so the passing in-bin degrees (at most d(v)) form a range.
            let d = sub.degree_in[v.index()];
            let expected = f64::from(d) / bins;
            let deviation = |x: u64| x as f64 - expected;
            let end = u64::from(d) + 1;
            let lo = first_passing(0, end, |x| deviation(x) >= -params.degree_slack);
            let hi = first_passing(lo, end, |x| deviation(x) > params.degree_slack);
            degree.push((lo, hi));
            // p′(v) ≥ p(v)/B + ℓ^0.7, with p′(v) at most p(v).
            let p = sub.palette_size[i];
            let wanted = f64::from(p) / bins + params.palette_slack;
            palette.push(first_passing(0, u64::from(p) + 1, |x| x as f64 >= wanted));
        }
        NodeTests { degree, palette }
    }

    /// The lanes in which `node` is good: its in-bin degree passes and, off
    /// the last bin, its in-bin palette passes too.
    fn good(&self, node: &NodeLanes<'_>) -> u64 {
        let (lo, hi) = self.degree[node.index];
        let degree_ok = at_least(node.degree, lo) & !at_least(node.degree, hi);
        let palette_ok = at_least(node.palette, self.palette[node.index]);
        degree_ok & (node.last | palette_ok) & node.lanes
    }
}

/// Whether a bin of `count` nodes is good: it holds fewer than
/// `2·n_G/B + 𝔫^0.6` nodes.
pub(crate) fn bin_good(params: &BinningParams, count: u64) -> bool {
    (count as f64) < params.bin_node_threshold
}

/// The cost 𝔮 = #bad nodes + 𝔫·#bad bins (Equation (1)) under every lane of
/// `planes`, in lane order: one pass over the edges for the whole group,
/// reading out only each lane's bad-node and bin totals. Each active node's
/// good lanes and bin planes go to `lanes` as the group's record.
pub fn binning_costs(
    graph: &CsrGraph,
    sub: &ActiveSubgraph,
    params: &BinningParams,
    tests: &NodeTests,
    planes: &LanePlanes<'_>,
    lanes: &mut ScoredLanes,
) -> Vec<f64> {
    debug_assert_eq!(params.bins, planes.bins);
    let mut bad_nodes = LaneTotals::new(sub.len());
    let mut bin_sizes: Vec<LaneTotals> = (0..params.bins)
        .map(|_| LaneTotals::new(sub.len()))
        .collect();
    bin_lanes(graph, sub, planes, |node| {
        let good = tests.good(node);
        bad_nodes.add(node.lanes & !good);
        for (bin, sizes) in (0..).zip(&mut bin_sizes) {
            sizes.add(node.in_bin(bin));
        }
        lanes.record(node, good);
    });
    (0..planes.lane_count())
        .map(|lane| {
            let bad_bins = bin_sizes
                .iter()
                .filter(|sizes| !bin_good(params, sizes.get(lane)))
                .count();
            bad_nodes.get(lane) as f64 + (params.global_nodes * bad_bins) as f64
        })
        .collect()
}

/// Each active node's bin and one verdict under every seed of a cost's
/// latest scoring call, recorded while its groups were scored: what every
/// machine holds once the search broadcasts its minimizer.
#[derive(Debug, Default)]
pub struct ScoredLanes {
    /// The seeds of the call, in lane order.
    seeds: Vec<BitSeed>,
    /// Words per node row: the verdict lanes, then ⌈log₂ B⌉ bin planes.
    stride: usize,
    /// Group after group, one row per active node, in
    /// `ActiveSubgraph::nodes` order.
    rows: Vec<u64>,
}

impl ScoredLanes {
    /// Forgets the previous call and starts one that bins into `bins` bins
    /// under `seeds`: its groups of [`LANES`] seeds are then recorded in
    /// order, one [`binning_costs`] call each.
    pub fn start(&mut self, seeds: &[BitSeed], bins: u64) {
        self.seeds.clear();
        self.seeds.extend_from_slice(seeds);
        self.stride = 1 + bit_length(bins - 1);
        self.rows.clear();
    }

    /// Records the next active node's `verdict` lanes and its bin planes.
    pub(crate) fn record(&mut self, node: &NodeLanes<'_>, verdict: u64) {
        debug_assert_eq!(node.bin.len() + 1, self.stride);
        self.rows.push(verdict & node.lanes);
        self.rows.extend_from_slice(node.bin);
    }

    /// The bin and verdict of every active node, in `ActiveSubgraph::nodes`
    /// order, in the lane that scored `seed`; `None` if the call did not
    /// score it.
    pub fn lane(&self, seed: &BitSeed) -> Option<impl Iterator<Item = (u32, bool)> + '_> {
        let k = self.seeds.iter().position(|s| s == seed)?;
        let group_rows = self.rows.len() / self.seeds.len().div_ceil(LANES);
        let lane = k % LANES;
        let group = &self.rows[k / LANES * group_rows..][..group_rows];
        Some(group.chunks_exact(self.stride).map(move |row| {
            let bin = lane_value(&row[1..], lane) as u32;
            (bin, (row[0] >> lane) & 1 == 1)
        }))
    }
}

/// The bin and verdict of every active node under `seed`, the seed `cost`'s
/// search chose, read from `lanes`, where the cost records its latest
/// scoring call. A seed that call did not score (a multi-salt search can
/// pick one from an earlier pass) is scored alone first.
pub(crate) fn chosen_lane<C: SeedCost>(
    cost: &mut C,
    lanes: impl Fn(&C) -> &ScoredLanes,
    seed: &BitSeed,
) -> Vec<(u32, bool)> {
    if lanes(cost).lane(seed).is_none() {
        cost.total_costs(std::slice::from_ref(seed));
    }
    let lane = lanes(cost).lane(seed).expect("the chosen seed was scored");
    lane.collect()
}

/// Classifies every active node and bin under the pair in lane 0 of
/// `planes` (see [`HashPair::planes`]), with the `tests` built for `params`:
/// the one-lane read-out of [`binning_costs`]' loop and tests, which the
/// tests check the partitions' lane read-out against.
///
/// Nodes hashed to the last bin (`bins - 1`) are judged only by the degree
/// condition; all other nodes additionally need the palette condition, with
/// their in-bin palette counted against the color bin equal to their node
/// bin.
pub fn evaluate_binning(
    graph: &CsrGraph,
    sub: &ActiveSubgraph,
    params: &BinningParams,
    tests: &NodeTests,
    planes: &LanePlanes<'_>,
) -> BinningEvaluation {
    debug_assert_eq!(params.bins, planes.bins);
    let mut eval = BinningEvaluation {
        node_bin: Vec::with_capacity(sub.len()),
        in_bin_degree: Vec::with_capacity(sub.len()),
        in_bin_palette: Vec::with_capacity(sub.len()),
        node_good: Vec::with_capacity(sub.len()),
        bin_counts: vec![0; params.bins as usize],
        bin_good: Vec::new(),
    };
    bin_lanes(graph, sub, planes, |node| {
        let bin = lane_value(node.bin, 0);
        eval.node_bin.push(bin as u32);
        eval.in_bin_degree.push(lane_value(node.degree, 0) as u32);
        eval.in_bin_palette.push(lane_value(node.palette, 0) as u32);
        eval.node_good.push(tests.good(node) & 1 == 1);
        eval.bin_counts[bin as usize] += 1;
    });
    eval.bin_good = eval
        .bin_counts
        .iter()
        .map(|&count| bin_good(params, count as u64))
        .collect();
    eval
}

/// Per-lane totals over the active nodes, kept bit-sliced: one addition per
/// node, read out once per lane.
pub(crate) struct LaneTotals(Vec<u64>);

impl LaneTotals {
    /// Totals that can reach `max`.
    pub(crate) fn new(max: usize) -> Self {
        LaneTotals(vec![0; bit_length(max as u64)])
    }

    /// Adds one in `lanes`.
    pub(crate) fn add(&mut self, lanes: u64) {
        add(&mut self.0, lanes);
    }

    /// The total of `lane`.
    pub(crate) fn get(&self, lane: usize) -> u64 {
        lane_value(&self.0, lane)
    }
}

/// Bits needed to write `x`: the planes of a counter that reaches `x`.
fn bit_length(x: u64) -> usize {
    (u64::BITS - x.leading_zeros()) as usize
}

/// ORs `value`'s bits into `planes` in `lanes`.
fn set_bits(planes: &mut [u64], lanes: u64, value: u64) {
    for (j, plane) in planes.iter_mut().enumerate() {
        *plane |= lanes & ((value >> j) & 1).wrapping_neg();
    }
}

/// Adds one to the bit-sliced `counter` in the lanes of `carry`.
#[inline]
fn add(counter: &mut [u64], mut carry: u64) {
    for plane in counter {
        if carry == 0 {
            return;
        }
        let next = *plane & carry;
        *plane ^= carry;
        carry = next;
    }
    debug_assert_eq!(carry, 0, "bit-sliced counter overflowed");
}

/// Adds to the bit-sliced `counter` (zero, with at least three planes), in
/// every lane, the number of `items` whose `mask` has the lane set. Eight
/// masks at a time go through a carry-save adder tree into ones, twos and
/// fours digits, so only the eights ripple through the counter.
#[inline]
fn count_lanes<T>(counter: &mut [u64], items: &[T], mask: impl Fn(&T) -> u64) {
    /// The sum and carry bits of three one-bit inputs, per lane.
    #[inline]
    fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
        let u = a ^ b;
        (u ^ c, (a & b) | (u & c))
    }
    let (mut ones, mut twos, mut fours) = (0u64, 0u64, 0u64);
    let mut blocks = items.chunks_exact(8);
    for block in &mut blocks {
        let m: [u64; 8] = std::array::from_fn(|k| mask(&block[k]));
        let (o, twos_a) = csa(ones, m[0], m[1]);
        let (o, twos_b) = csa(o, m[2], m[3]);
        let (t, fours_a) = csa(twos, twos_a, twos_b);
        let (o, twos_a) = csa(o, m[4], m[5]);
        let (o, twos_b) = csa(o, m[6], m[7]);
        let (t, fours_b) = csa(t, twos_a, twos_b);
        let (f, eights) = csa(fours, fours_a, fours_b);
        (ones, twos, fours) = (o, t, f);
        add(&mut counter[3..], eights);
    }
    counter[..3].copy_from_slice(&[ones, twos, fours]);
    for item in blocks.remainder() {
        add(counter, mask(item));
    }
}

/// The value `lane` holds in bit-sliced `planes`.
fn lane_value(planes: &[u64], lane: usize) -> u64 {
    planes
        .iter()
        .enumerate()
        .fold(0, |value, (j, &plane)| value | ((plane >> lane) & 1) << j)
}

/// The lanes in which bit-sliced `planes` hold `value`.
fn lanes_equal(planes: &[u64], value: u64) -> u64 {
    (0..).zip(planes).fold(u64::MAX, |equal, (j, &plane)| {
        equal & !(plane ^ ((value >> j) & 1).wrapping_neg())
    })
}

/// The lanes in which the bit-sliced `counter` holds at least `k`.
pub(crate) fn at_least(counter: &[u64], k: u64) -> u64 {
    let mut constant = [0u64; 64];
    let constant = &mut constant[..bit_length(k)];
    set_bits(constant, u64::MAX, k);
    !exceeds(constant, counter)
}

/// The lanes in which bit-sliced `a` holds more than bit-sliced `b`.
pub(crate) fn exceeds(a: &[u64], b: &[u64]) -> u64 {
    let (mut greater, mut equal) = (0u64, u64::MAX);
    for j in (0..a.len().max(b.len())).rev() {
        let x = a.get(j).copied().unwrap_or(0);
        let y = b.get(j).copied().unwrap_or(0);
        greater |= equal & x & !y;
        equal &= !(x ^ y);
    }
    greater
}

/// The least `x` in `lo..hi` at which `pass` holds, or `hi`; `pass` must be
/// monotone there (false, then true).
pub(crate) fn first_passing(mut lo: u64, mut hi: u64, pass: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pass(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::builder::GraphBuilder;
    use cc_graph::instance::ListColoringInstance;
    use cc_graph::Color;

    impl<'a> LanePlanes<'a> {
        /// One lane, holding the pair (h1, h2): the reference the lane
        /// kernel is checked against, and a way to hand-pick bins.
        fn single(
            sub: &ActiveSubgraph,
            palette_colors: &'a PaletteColors,
            bins: u64,
            h1: impl Fn(u64) -> u64,
            h2: impl Fn(u64) -> u64,
        ) -> Self {
            let mut planes = LanePlanes::new(sub, palette_colors, bins, 1);
            for &v in &sub.nodes {
                planes.set_node(v, 1, h1(u64::from(v.0)));
            }
            for (row, &c) in palette_colors.distinct.iter().enumerate() {
                planes.set_color(row, 1, h2(c));
            }
            planes
        }
    }

    /// [`evaluate_binning`] under the pair (h1, h2).
    fn evaluate_pair(
        graph: &CsrGraph,
        sub: &ActiveSubgraph,
        palettes: &[Palette],
        params: &BinningParams,
        h1: impl Fn(u64) -> u64,
        h2: impl Fn(u64) -> u64,
    ) -> BinningEvaluation {
        let palette_colors = PaletteColors::new(sub, palettes, params.bins);
        let planes = LanePlanes::single(sub, &palette_colors, params.bins, h1, h2);
        evaluate_binning(graph, sub, params, &NodeTests::new(sub, params), &planes)
    }

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
    fn lane_costs_match_one_pair_at_a_time() {
        let g = cc_graph::generators::gnp(60, 0.3, 2).unwrap();
        let inst = ListColoringInstance::delta_plus_one(&g).unwrap();
        // The same palettes with every color moved up by 2⁶⁰.
        let shifted: Vec<Palette> = inst
            .palettes()
            .iter()
            .map(|p| p.iter().map(|c| Color(c.0 + (1 << 60))).collect())
            .collect();
        let half: Vec<NodeId> = g.nodes().filter(|v| v.0 % 3 != 0).collect();
        let cases = [(1, 2), (1, 3), (2, 4), (4, 2), (5, 5)];
        for palettes in [inst.palettes(), &shifted] {
            let sub = ActiveSubgraph::new(&g, palettes, &half);
            for (independence, bins) in cases {
                let params = BinningParams {
                    bins,
                    global_nodes: 60,
                    degree_slack: 1.5,
                    palette_slack: 0.0,
                    bin_node_threshold: 25.0,
                };
                let hashes = HashPair::new(independence, &g, &sub, palettes, bins);
                let seeds: Vec<BitSeed> = (0..70u64)
                    .map(|k| BitSeed::zeros(hashes.seed_bits()).canonical_completion(0, k))
                    .collect();
                let tests = NodeTests::new(&sub, &params);
                let mut lanes = ScoredLanes::default();
                lanes.start(&seeds, bins);
                let costs: Vec<f64> = hashes
                    .lane_planes(&sub, &seeds)
                    .flat_map(|planes| {
                        binning_costs(&g, &sub, &params, &tests, &planes, &mut lanes)
                    })
                    .collect();
                for (seed, cost) in seeds.iter().zip(costs) {
                    let (h1, h2) = hashes.functions(seed);
                    let eval =
                        evaluate_pair(&g, &sub, palettes, &params, |x| h1.eval(x), |x| h2.eval(x));
                    assert_eq!(
                        cost.to_bits(),
                        eval.cost(60).to_bits(),
                        "c = {independence}"
                    );
                    // The seed's lane, in either group, holds its bins and
                    // verdicts.
                    let lane: Vec<(u32, bool)> = lanes.lane(seed).unwrap().collect();
                    let bins = eval.node_bin.iter().copied();
                    let expected: Vec<(u32, bool)> = bins.zip(eval.node_good).collect();
                    assert_eq!(lane, expected, "c = {independence}");
                }
            }
        }
    }

    #[test]
    fn bit_sliced_helpers_count_and_compare() {
        // Lane k counts k ones: lanes 0..=40 of a 64-lane counter.
        let mut counter = vec![0u64; bit_length(40)];
        for step in 1..=40u64 {
            add(&mut counter, u64::MAX << step);
        }
        let mut counted = [0u64; 6];
        count_lanes(&mut counted, &(1..=40u64).collect::<Vec<_>>(), |&step| {
            u64::MAX << step
        });
        assert_eq!(counter, counted);
        for lane in 0..64 {
            assert_eq!(lane_value(&counter, lane), (lane as u64).min(40));
        }
        for k in [0u64, 1, 17, 40, 41, 64] {
            let lanes = at_least(&counter, k);
            for lane in 0..64 {
                assert_eq!(
                    lanes >> lane & 1 == 1,
                    (lane as u64).min(40) >= k,
                    "{k} {lane}"
                );
            }
        }
        let mut other = vec![0u64; 3];
        for _ in 0..5 {
            add(&mut other, u64::MAX);
        }
        let greater = exceeds(&counter, &other);
        assert_eq!(greater, u64::MAX << 6);
        assert_eq!(lanes_equal(&counter, 7), 1 << 7);
        let mut totals = LaneTotals::new(3);
        totals.add(0b101);
        totals.add(0b100);
        assert_eq!((totals.get(0), totals.get(1), totals.get(2)), (1, 0, 2));
        assert_eq!(first_passing(0, 10, |x| x * x >= 20), 5);
        assert_eq!(first_passing(3, 10, |_| false), 10);
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
            bins: 2,
            global_nodes: 4,
            degree_slack: 10.0,
            palette_slack: 5.0,
            bin_node_threshold: 100.0,
        };
        let eval = evaluate_pair(&g, &sub, &palettes, &params, |v| v % 2, |_| 0);
        // Parity split of C4 puts both neighbors of every node in the other
        // bin.
        assert_eq!(eval.in_bin_degree, vec![0, 0, 0, 0]);
        assert_eq!(eval.bin_counts, vec![2, 2]);
        assert_eq!(eval.bad_node_count(), 0);
        assert_eq!(eval.bad_bin_count(), 0);
        assert_eq!(eval.cost(4), 0.0);
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
            bins: 2,
            global_nodes: 10,
            degree_slack: 0.5,
            palette_slack: 1.0,
            bin_node_threshold: 5.0,
        };
        // Everything to bin 0 (not the last bin).
        let eval = evaluate_pair(&g, &sub, &palettes, &params, |_| 0, |_| 0);
        // Bin 0 has 10 >= 5 nodes -> bad bin; bin 1 empty -> good.
        assert_eq!(eval.bad_bin_count(), 1);
        // The hub keeps all 9 neighbors in its bin: |9 - 4.5| > 0.5 -> bad.
        // The hub, node 0, comes first among the sorted active nodes.
        assert_eq!(sub.nodes[0], NodeId(0));
        assert!(!eval.node_good[0]);
        assert!(eval.cost(10) >= 10.0);
    }
}
