//! Property-based tests (proptest) for the core invariants.

use std::collections::BTreeSet;
use std::sync::Arc;

use cc_graph::csr::CsrGraph;
use cc_graph::generators::{instance_with_palettes, GraphFamily, PaletteKind};
use cc_graph::palette::{Base, Palette};
use cc_hash::family::{HashFunction, BITS_PER_COEFFICIENT};
use cc_hash::seed::splitmix64;
use cc_hash::{BitSeed, PolynomialHashFamily};
use cc_mis::greedy::greedy_mis;
use cc_mis::reduction::ReductionGraph;
use cc_mis::verify::verify_mis;
use cc_sim::constants::{BROADCAST_ROUNDS, PREFIX_SUM_ROUNDS};
use cc_sim::ClusterContext;
use congested_clique_coloring::coloring::config::SeedStrategy;
use congested_clique_coloring::coloring::error::CoreError;
use congested_clique_coloring::coloring::good_bad::{
    binning_costs, evaluate_binning, ActiveSubgraph, BinningEvaluation, BinningParams, HashPair,
    NodeTests, ScoredLanes, MAX_HASHABLE_COLOR,
};
use congested_clique_coloring::coloring::local_color::{
    color_greedily, update_palettes_from_neighbors,
};
use congested_clique_coloring::derand::{GreedyChunkSelector, SeedCost};
use congested_clique_coloring::prelude::*;
use proptest::prelude::*;

mod common;
use common::mismatched_searches;

fn fast_config() -> ColorReduceConfig {
    ColorReduceConfig {
        independence: 2,
        seed_strategy: SeedStrategy::Derandomized {
            chunk_bits: 61,
            candidates_per_chunk: 4,
            max_salts: 1,
        },
        ..ColorReduceConfig::default()
    }
}

/// Strategy: an arbitrary simple graph on up to `max_n` nodes.
fn arb_graph(max_n: usize) -> impl Strategy<Value = CsrGraph> {
    (2usize..=max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n), 0..=max_edges.min(4 * n)).prop_map(move |pairs| {
            let edges = pairs
                .into_iter()
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (NodeId::from_index(a), NodeId::from_index(b)));
            CsrGraph::from_edges(n, edges).expect("filtered edges are valid")
        })
    })
}

/// Dense members of every generator family. At 120–200 nodes most of them
/// exceed one congested-clique machine (64n words), so `ColorReduce` has to
/// partition them rather than collect them at depth 0.
const DENSE_FAMILIES: [GraphFamily; 4] = [
    GraphFamily::Gnp { p: 0.5 },
    GraphFamily::PowerLaw { edges_per_node: 40 },
    GraphFamily::Clustered {
        communities: 2,
        p_in: 0.9,
        p_out: 0.3,
    },
    GraphFamily::NearRegular { degree: 80 },
];

/// The palette kinds over a color universe of `4n`.
fn palette_kinds(n: usize) -> [PaletteKind; 3] {
    let universe = 4 * n as u64;
    [
        PaletteKind::DeltaPlusOne,
        PaletteKind::DeltaPlusOneList { universe },
        PaletteKind::DegPlusOneList { universe },
    ]
}

/// (deg+1)-list palettes whose colors are nearly all distinct: drawn from
/// the 𝔫² colors the paper allows, and from 2⁵⁰ colors, nearly all at
/// least 2⁴⁰.
fn sparse_palette_kinds(n: usize) -> [PaletteKind; 2] {
    [(n * n) as u64, 1 << 50].map(|universe| PaletteKind::DegPlusOneList { universe })
}

/// A `SeedCost` given by a table: on the seed whose value is `s`, machine
/// `x` costs `table[x][s]`. Integer entries keep every sum exact. With
/// `stop`, its bound is also the selector's stop threshold; with `floor`, it
/// names floor 0. It counts the totals it is asked for in `asked`.
#[derive(Clone)]
struct TableCost {
    table: Vec<Vec<f64>>,
    seed_bits: usize,
    bound: f64,
    stop: bool,
    floor: bool,
    asked: u64,
}

impl TableCost {
    /// The sum of every machine's entry for `seed`'s first chunk.
    fn total(&self, seed: &BitSeed) -> f64 {
        let value = seed.chunk(0, self.seed_bits) as usize;
        self.table.iter().map(|row| row[value]).sum()
    }
}

impl SeedCost for TableCost {
    fn machine_count(&self) -> usize {
        self.table.len()
    }

    fn total_cost(&mut self, seed: &BitSeed) -> f64 {
        self.asked += 1;
        self.total(seed)
    }

    fn expectation_bound(&self) -> f64 {
        self.bound
    }

    fn stop_threshold(&self) -> Option<f64> {
        self.stop.then_some(self.bound)
    }

    fn floor(&self) -> Option<f64> {
        self.floor.then_some(0.0)
    }
}

/// Strategy: 1–8 machines, a 1–12-bit seed, entries in `0..16` and a bound
/// anywhere from 0 to the largest possible total. About one seed value in
/// five costs 0 on every machine, so codebooks hold totals at floor 0.
fn arb_table_cost() -> impl Strategy<Value = TableCost> {
    (1usize..=8, 1usize..=12).prop_flat_map(|(machines, seed_bits)| {
        (
            proptest::collection::vec(0u64..16, machines << seed_bits),
            proptest::collection::vec(0u8..5, 1 << seed_bits),
            0u64..=15 * machines as u64,
        )
            .prop_map(move |(entries, zero, bound)| TableCost {
                table: entries
                    .chunks(1 << seed_bits)
                    .map(|row| {
                        let row = row.iter().zip(&zero);
                        row.map(|(&e, &z)| if z == 0 { 0.0 } else { e as f64 })
                            .collect()
                    })
                    .collect(),
                seed_bits,
                bound: bound as f64,
                stop: false,
                floor: false,
                asked: 0,
            })
    })
}

/// One scored chunk of a reference pass: its candidate count, and its first
/// minimizer's completed seed with that seed's total.
type ScoredChunk = (u64, BitSeed, f64);

/// The selector's passes written out plainly, one per completion salt and
/// never stopping: each chunk scores its codebook (the whole chunk space when
/// it is small enough) under the salt's canonical completion and fixes its
/// first minimizer.
fn reference_passes(
    cost: &TableCost,
    chunk_bits: usize,
    candidates: usize,
    salts: u32,
) -> Vec<Vec<ScoredChunk>> {
    let passes = (0..salts).map(|salt_index| {
        let salt = u64::from(salt_index).wrapping_mul(0xd1b5_4a32_d192_ed03) ^ 0x5bf0_3635;
        let mut prefix = BitSeed::zeros(cost.seed_bits);
        let starts = (0..cost.seed_bits).step_by(chunk_bits).enumerate();
        let pass = starts.map(|(chunk, start)| {
            let width = chunk_bits.min(cost.seed_bits - start);
            let space = 1u64 << width;
            let codebook: Vec<u64> = if candidates as u64 >= space {
                (0..space).collect()
            } else {
                let base = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((chunk as u64) << 32);
                (0..candidates as u64)
                    .map(|j| splitmix64(base ^ j) & (space - 1))
                    .collect()
            };
            let mut best: Option<(u64, BitSeed, f64)> = None;
            for &value in &codebook {
                let mut trial = prefix.clone();
                trial.set_chunk(start, width, value);
                let completed = trial.canonical_completion(start + width, salt);
                let total = cost.total(&completed);
                if best.as_ref().is_none_or(|b| total < b.2) {
                    best = Some((value, completed, total));
                }
            }
            let (value, completed, total) = best.expect("at least one candidate");
            prefix.set_chunk(start, width, value);
            (codebook.len() as u64, completed, total)
        });
        pass.collect()
    });
    passes.collect()
}

/// What the selector should report and charge on `passes`.
#[derive(Debug, PartialEq)]
struct Schedule {
    seed: BitSeed,
    cost: f64,
    escalations: u32,
    candidates: u64,
    rounds: u64,
    words: u64,
}

/// The pass schedule under `bound`: with `stop`, a pass ends at its first
/// chunk whose minimizer totals at most the bound. Each scored chunk charges
/// one aggregation of `c` words per machine and one broadcast. The search
/// keeps the best pass so far and returns once it meets the bound.
fn reference_schedule(
    passes: &[Vec<ScoredChunk>],
    bound: f64,
    stop: bool,
    machines: u64,
    broadcast_words: u64,
) -> Schedule {
    let (mut candidates, mut rounds, mut words) = (0u64, 0u64, 0u64);
    let (mut best, mut escalations): (Option<(BitSeed, f64)>, u32) = (None, 0);
    for (salt_index, pass) in (0u32..).zip(passes) {
        escalations = salt_index;
        let scored = match pass.iter().position(|chunk| chunk.2 <= bound) {
            Some(chunk) if stop => chunk + 1,
            _ => pass.len(),
        };
        for &(c, _, _) in &pass[..scored] {
            candidates += c;
            rounds += PREFIX_SUM_ROUNDS + BROADCAST_ROUNDS;
            words += c + machines * c + broadcast_words;
        }
        let (_, seed, total) = &pass[scored - 1];
        if best.as_ref().is_none_or(|b| *total < b.1) {
            best = Some((seed.clone(), *total));
        }
        if best.as_ref().is_some_and(|b| b.1 <= bound) {
            break;
        }
    }
    let (seed, cost) = best.expect("at least one pass");
    Schedule {
        seed,
        cost,
        escalations,
        candidates,
        rounds,
        words,
    }
}

/// The palettes of `sub`'s nodes, written once for every (h1, h2) pair of
/// `reference_bins`: the distinct colors, ascending, and each active node's
/// palette as indices into them.
struct ActiveColors {
    colors: Vec<u64>,
    palettes: Vec<Vec<usize>>,
}

impl ActiveColors {
    fn new(sub: &ActiveSubgraph, palettes: &[Palette]) -> Self {
        let active = || sub.nodes.iter().map(|v| &palettes[v.index()]);
        let colors: BTreeSet<u64> = active().flat_map(|p| p.iter().map(|c| c.0)).collect();
        let colors: Vec<u64> = colors.into_iter().collect();
        let palettes = active()
            .map(|p| {
                p.iter()
                    .map(|c| colors.binary_search(&c.0).unwrap())
                    .collect()
            })
            .collect();
        ActiveColors { colors, palettes }
    }
}

/// Where one (h1, h2) pair puts the active nodes, the plain way: hash every
/// node and every active color, then count each node's in-bin neighbors and
/// palette colors one by one. The in-bin palette is the whole palette in the
/// last bin and when B = 2.
fn reference_bins(
    graph: &CsrGraph,
    sub: &ActiveSubgraph,
    active: &ActiveColors,
    bins: u64,
    (h1, h2): &(HashFunction, HashFunction),
) -> BinningEvaluation {
    let node_bin: Vec<u32> = sub
        .nodes
        .iter()
        .map(|v| h1.eval(u64::from(v.0)) as u32)
        .collect();
    let mut eval = BinningEvaluation {
        node_bin,
        in_bin_degree: Vec::new(),
        in_bin_palette: Vec::new(),
        node_good: Vec::new(),
        bin_counts: vec![0; bins as usize],
        bin_good: Vec::new(),
    };
    let color_bin: Vec<u64> = active.colors.iter().map(|&c| h2.eval(c)).collect();
    for (i, &v) in sub.nodes.iter().enumerate() {
        let bin = eval.node_bin[i];
        let d_in = graph
            .neighbors(v)
            .filter(|u| sub.active[u.index()] && h1.eval(u64::from(u.0)) == u64::from(bin))
            .count();
        let p_in = if u64::from(bin) == bins - 1 || bins == 2 {
            sub.palette_size[i]
        } else {
            active.palettes[i]
                .iter()
                .filter(|&&c| color_bin[c] == u64::from(bin))
                .count() as u32
        };
        eval.in_bin_degree.push(d_in as u32);
        eval.in_bin_palette.push(p_in);
        eval.bin_counts[bin as usize] += 1;
    }
    eval
}

/// Definition 3.1's f64 tests applied to `bins`' counts.
fn reference_binning(
    sub: &ActiveSubgraph,
    params: &BinningParams,
    bins: &BinningEvaluation,
) -> BinningEvaluation {
    let b = params.bins as f64;
    let node_good = sub
        .nodes
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let expected = f64::from(sub.degree_in[v.index()]) / b;
            let degree_ok =
                (f64::from(bins.in_bin_degree[i]) - expected).abs() <= params.degree_slack;
            let p = f64::from(sub.palette_size[i]);
            let palette_ok = f64::from(bins.in_bin_palette[i]) >= p / b + params.palette_slack;
            degree_ok && (u64::from(bins.node_bin[i]) == params.bins - 1 || palette_ok)
        })
        .collect();
    let bin_good = bins
        .bin_counts
        .iter()
        .map(|&count| (count as f64) < params.bin_node_threshold)
        .collect();
    BinningEvaluation {
        node_good,
        bin_good,
        ..bins.clone()
    }
}

/// Equation (1) from a plain evaluation.
fn reference_cost(eval: &BinningEvaluation, global_nodes: usize) -> f64 {
    let bad_nodes = eval.node_good.iter().filter(|&&good| !good).count();
    let bad_bins = eval.bin_good.iter().filter(|&&good| !good).count();
    bad_nodes as f64 + (global_nodes * bad_bins) as f64
}

/// 65 combined seeds drawn from `salt`. Seeds 40 and up share seed 0's h1
/// coefficients, the way the chunks that fix h2 leave h1 alone.
fn lane_seeds(seed_bits: usize, node_coefficients: usize, salt: u64) -> Vec<BitSeed> {
    (0..65u64)
        .map(|k| {
            let mut seed = BitSeed::zeros(seed_bits);
            for j in 0..seed_bits.div_ceil(BITS_PER_COEFFICIENT) {
                let source = if k >= 40 && j < node_coefficients {
                    0
                } else {
                    k
                };
                let value = splitmix64(salt ^ (source << 32) ^ j as u64);
                seed.set_chunk(j * BITS_PER_COEFFICIENT, BITS_PER_COEFFICIENT, value);
            }
            seed
        })
        .collect()
}

/// Definition 3.1's thresholds two ways: the ones a call derives from ℓ, and
/// ones that make `d/B ± slack` (for nodes with B | d, and every node when
/// B = 2) and `p/B + slack` (for the largest palette, and every palette that
/// size) exact integers, with a bin threshold some bins reach.
fn binning_params(sub: &ActiveSubgraph, bins: u64, global_nodes: usize) -> [BinningParams; 2] {
    let ell = (sub.max_degree() as u64).max(2);
    let derived = BinningParams::new(
        &ColorReduceConfig::default(),
        ell,
        bins,
        global_nodes,
        sub.len(),
    );
    let p = sub.palette_size.iter().copied().max().unwrap_or(0);
    // The whole palette when B = 2, about its share of B − 1 color bins
    // otherwise; within a factor two of p/B, so the sum below is exact.
    let target = if bins == 2 {
        u64::from(p)
    } else {
        u64::from(p).div_ceil(bins - 1)
    };
    let exact = BinningParams {
        bins,
        global_nodes,
        degree_slack: if bins == 2 { 0.5 } else { 1.0 },
        palette_slack: target as f64 - f64::from(p) / bins as f64,
        bin_node_threshold: sub.len().div_ceil(bins as usize) as f64,
    };
    [derived, exact]
}

/// A palette as a `BTreeSet<Color>`: an explicit palette's available
/// colors, or a range's removed colors, so that a range 2⁴⁰ wide fits.
#[derive(Debug, Clone)]
enum PaletteModel {
    Range { len: u64, removed: BTreeSet<Color> },
    List(BTreeSet<Color>),
}

impl PaletteModel {
    fn contains(&self, color: Color) -> bool {
        match self {
            PaletteModel::Range { len, removed } => color.0 < *len && !removed.contains(&color),
            PaletteModel::List(colors) => colors.contains(&color),
        }
    }

    fn remove(&mut self, color: Color) -> bool {
        let present = self.contains(color);
        match self {
            PaletteModel::Range { removed, .. } if present => removed.insert(color),
            PaletteModel::Range { .. } => false,
            PaletteModel::List(colors) => colors.remove(&color),
        }
    }

    /// (size, words), as `Palette::size` and `Palette::words` count them.
    fn size_and_words(&self) -> (usize, usize) {
        match self {
            PaletteModel::Range { len, removed } => {
                (*len as usize - removed.len(), 1 + removed.len())
            }
            PaletteModel::List(colors) => (colors.len(), colors.len()),
        }
    }

    /// The available colors, ascending.
    fn colors(&self) -> Box<dyn Iterator<Item = Color> + '_> {
        match self {
            PaletteModel::Range { len, removed } => {
                Box::new((0..*len).map(Color).filter(|c| !removed.contains(c)))
            }
            PaletteModel::List(colors) => Box::new(colors.iter().copied()),
        }
    }

    fn max_color(&self) -> Option<Color> {
        match self {
            PaletteModel::Range { len, removed } => {
                (0..*len).rev().map(Color).find(|c| !removed.contains(c))
            }
            PaletteModel::List(colors) => colors.last().copied(),
        }
    }
}

/// A color for the palette property from a drawn `(kind, x)`: within a few
/// of 2⁴⁰, of `MAX_HASHABLE_COLOR` or of `u64::MAX` (itself included), or,
/// for half the kinds, `x`, which is small.
fn palette_color((kind, x): (u8, u64)) -> Color {
    match kind {
        0 => Color((1 << 40) - 2 + x % 3),
        1 => Color(MAX_HASHABLE_COLOR.0 - 1 + x % 3),
        2 => Color(u64::MAX - x % 3),
        _ => Color(x),
    }
}

/// A drawn palette and its model: with `list`, the explicit palette of the
/// drawn colors, else the range `0..len`, or `0..2⁴⁰` for `len` 80.
fn palette_and_model(list: bool, len: u64, colors: &[(u8, u64)]) -> (Palette, PaletteModel) {
    if list {
        let colors: BTreeSet<Color> = colors.iter().copied().map(palette_color).collect();
        return (
            Palette::explicit(colors.iter().copied()),
            PaletteModel::List(colors),
        );
    }
    let len = if len == 80 { 1 << 40 } else { len };
    let model = PaletteModel::Range {
        len,
        removed: BTreeSet::new(),
    };
    (Palette::range(len), model)
}

/// The greedy step written out plainly: collect, sort and dedup the colors
/// of a node's colored neighbors, then take the first palette color not
/// among them.
fn reference_greedy(
    graph: &CsrGraph,
    palettes: &[Palette],
    coloring: &mut Coloring,
    nodes: &[NodeId],
) -> Result<(), CoreError> {
    for &v in nodes {
        let mut used: Vec<Color> = graph
            .neighbors(v)
            .filter_map(|u| coloring.color_of(u))
            .collect();
        used.sort_unstable();
        used.dedup();
        let color = palettes[v.index()]
            .iter()
            .find(|c| used.binary_search(c).is_err())
            .ok_or(CoreError::PaletteExhausted { node: v })?;
        coloring.assign(v, color)?;
    }
    Ok(())
}

/// The palette update written out plainly: one `Palette::remove` per
/// colored neighbor.
fn reference_update(
    graph: &CsrGraph,
    palettes: &mut [Palette],
    coloring: &Coloring,
    nodes: &[NodeId],
) -> usize {
    let mut removed = 0;
    for &v in nodes {
        for u in graph.neighbors(v) {
            if let Some(color) = coloring.color_of(u) {
                removed += usize::from(palettes[v.index()].remove(color));
            }
        }
    }
    removed
}

/// The palettes [`local_coloring_input`] draws.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DrawnPalettes {
    Ranges,
    Lists,
    ListsWithRemovals,
}

/// An input of the local-coloring property, drawn from `seed`: palettes,
/// a partial coloring, the uncolored nodes in a drawn order, and every
/// node in a drawn order with the first two repeated.
///
/// Range palettes are `0..len` minus a drawn removed set, with `len` up to
/// d(v) + 3 (so some have p(v) ≤ d(v)) and now and then 2⁴⁰, far wider
/// than any degree. Explicit lists hold up to d(v) + 3 colors; with
/// removals, up to 7 more, minus a drawn removed set of up to 8 of their
/// own colors and one drawn color. Colors of lists and of the coloring are
/// small, or within a few of 2⁴⁰ or of `MAX_HASHABLE_COLOR`.
fn local_coloring_input(
    graph: &CsrGraph,
    kind: DrawnPalettes,
    seed: u64,
) -> (Vec<Palette>, Coloring, Vec<NodeId>, Vec<NodeId>) {
    let mut draws = 0u64;
    let mut draw = |below: u64| {
        draws += 1;
        splitmix64(seed ^ draws.wrapping_mul(0x9e37_79b9_7f4a_7c15)) % below
    };
    let small = graph.max_degree() as u64 + 4;
    let color = |draw: &mut dyn FnMut(u64) -> u64| match draw(8) {
        0 => Color(MAX_HASHABLE_COLOR.0 - draw(4)),
        1 => Color((1 << 40) - 1 - draw(4)),
        _ => Color(draw(small)),
    };
    let palettes = graph
        .nodes()
        .map(|v| {
            let size = draw(graph.degree(v) as u64 + 4);
            match kind {
                DrawnPalettes::Lists => {
                    return Palette::explicit((0..size).map(|_| color(&mut draw)));
                }
                DrawnPalettes::ListsWithRemovals => {
                    let extra = draw(8);
                    let mut palette =
                        Palette::explicit((0..size + extra).map(|_| color(&mut draw)));
                    let own = palette.to_vec();
                    for _ in 0..draw(extra + 2).min(own.len() as u64) {
                        palette.remove(own[draw(own.len() as u64) as usize]);
                    }
                    palette.remove(color(&mut draw));
                    return palette;
                }
                DrawnPalettes::Ranges => {}
            }
            let len = if draw(8) == 0 { 1 << 40 } else { size };
            let mut palette = Palette::range(len);
            for _ in 0..draw(small) {
                palette.remove(color(&mut draw));
            }
            palette
        })
        .collect();
    let mut coloring = Coloring::empty(graph.node_count());
    for v in graph.nodes() {
        if draw(2) == 0 {
            coloring.assign(v, color(&mut draw)).unwrap();
        }
    }
    let mut order: Vec<(u64, NodeId)> = graph.nodes().map(|v| (draw(u64::MAX), v)).collect();
    order.sort_unstable();
    let mut everyone: Vec<NodeId> = order.into_iter().map(|(_, v)| v).collect();
    let uncolored = everyone
        .iter()
        .copied()
        .filter(|&v| !coloring.is_colored(v))
        .collect();
    everyone.extend_from_within(..2);
    (palettes, coloring, uncolored, everyone)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline invariant: on any graph, the deterministic algorithm
    /// outputs a complete proper coloring where every node's color comes
    /// from its palette — for both the (Δ+1) and (deg+1) variants.
    #[test]
    fn color_reduce_always_produces_proper_list_colorings(graph in arb_graph(60)) {
        let n = graph.node_count();
        for instance in [
            ListColoringInstance::delta_plus_one(&graph).unwrap(),
            ListColoringInstance::deg_plus_one(&graph).unwrap(),
        ] {
            let outcome = ColorReduce::new(fast_config())
                .run(&instance, ExecutionModel::congested_clique(n))
                .unwrap();
            prop_assert!(outcome.coloring().verify(&instance).is_ok());
            // Lemma 3.9's headline promise at any scale: no bad bins.
            prop_assert_eq!(outcome.trace().total_bad_bins(), 0);
        }
    }

    /// Palette bookkeeping never removes the last usable color: after
    /// removing the colors of any subset of neighbors, a node still has a
    /// color available (because p(v) > d(v)).
    #[test]
    fn palette_updates_preserve_colorability(graph in arb_graph(40), mask in any::<u64>()) {
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        for v in graph.nodes() {
            // Color the masked neighbors, the i-th with i mod (Δ + 1).
            let mut coloring = Coloring::empty(graph.node_count());
            for (i, u) in graph.neighbors(v).enumerate() {
                if (mask >> (i % 64)) & 1 == 1 {
                    let color = Color(i as u64 % (graph.max_degree() as u64 + 1));
                    coloring.assign(u, color).unwrap();
                }
            }
            let mut palettes = instance.palettes().to_vec();
            update_palettes_from_neighbors(&graph, &mut palettes, &coloring, &[v]);
            let palette = &palettes[v.index()];
            prop_assert!(palette.size() >= instance.palette(v).size() - graph.degree(v));
            prop_assert!(!palette.is_empty() || graph.degree(v) >= instance.palette(v).size());
        }
    }

    /// Both local-coloring kernels against the plain references, on range
    /// palettes with drawn removed sets and on explicit lists with and
    /// without them, under a drawn partial coloring: the update removes the same colors and counts them
    /// the same, and greedy coloring, from the drawn palettes and from the
    /// updated ones, gives the same partial coloring and the same error
    /// (`PaletteExhausted` at the same node) or none.
    #[test]
    fn local_coloring_kernels_match_plain_references(graph in arb_graph(40), seed in any::<u64>()) {
        use DrawnPalettes::{Lists, ListsWithRemovals, Ranges};
        for kind in [Ranges, Lists, ListsWithRemovals] {
            let (palettes, coloring, uncolored, everyone) = local_coloring_input(&graph, kind, seed);
            let (mut updated, mut expected) = (palettes.clone(), palettes.clone());
            let removed = update_palettes_from_neighbors(&graph, &mut updated, &coloring, &everyone);
            let reference = reference_update(&graph, &mut expected, &coloring, &everyone);
            prop_assert_eq!(removed, reference);
            prop_assert_eq!(&updated, &expected);
            for palettes in [&palettes, &updated] {
                let (mut colored, mut expected) = (coloring.clone(), coloring.clone());
                let result = color_greedily(&graph, palettes, &mut colored, &uncolored);
                let reference = reference_greedy(&graph, palettes, &mut expected, &uncolored);
                prop_assert_eq!(result, reference);
                prop_assert_eq!(&colored, &expected);
            }
        }
    }

    /// Hash families always map into their declared range, and the same seed
    /// always gives the same function.
    #[test]
    fn hash_families_stay_in_range(domain in 2u64..5_000, range in 1u64..64, words in any::<[u64; 4]>()) {
        let family = PolynomialHashFamily::new(3, domain, range);
        let seed = BitSeed::from_words(family.seed_bits(), &words);
        for x in (0..domain).step_by((domain as usize / 50).max(1)) {
            let y = family.eval(&seed, x);
            prop_assert!(y < range);
            prop_assert_eq!(y, family.eval(&seed, x));
        }
    }

    /// Any MIS of the reduction graph decodes to a proper list coloring
    /// (Section 4.1), on arbitrary graphs.
    #[test]
    fn mis_reduction_round_trip(graph in arb_graph(30)) {
        let instance = ListColoringInstance::deg_plus_one(&graph).unwrap();
        let reduction = ReductionGraph::build(&instance);
        let mis = greedy_mis(reduction.graph());
        prop_assert!(verify_mis(reduction.graph(), &mis.in_set).is_ok());
        let mut coloring = cc_graph::coloring::Coloring::empty(graph.node_count());
        reduction.write_coloring(&mis.in_set, &mut coloring).unwrap();
        prop_assert!(coloring.verify(&instance).is_ok());
    }

    /// Induced subinstances preserve adjacency: an edge exists in the
    /// subgraph iff both endpoints were selected and adjacent in the parent.
    #[test]
    fn induced_subgraphs_preserve_adjacency(graph in arb_graph(40), selector in any::<u64>()) {
        let nodes: Vec<NodeId> = graph
            .nodes()
            .filter(|v| (selector >> (v.index() % 64)) & 1 == 1)
            .collect();
        let sub = cc_graph::subgraph::InducedSubgraph::new(&graph, &nodes);
        for u in sub.graph.nodes() {
            for w in sub.graph.neighbors(u) {
                prop_assert!(graph.has_edge(sub.to_global(u), sub.to_global(w)));
            }
        }
        let kept_edges = graph
            .edges()
            .filter(|(a, b)| nodes.contains(a) && nodes.contains(b))
            .count();
        prop_assert_eq!(sub.graph.edge_count(), kept_edges);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both palette kinds against a `BTreeSet` model, under a drawn sequence
    /// of removals, membership tests and restrictions to a drawn residue
    /// class (`filtered`, which makes a range explicit): after every step,
    /// size, words, largest color and the first colors agree, as do the
    /// `k`-th colors (every `k` of a palette narrow enough to list, else the
    /// first and the last ones, and none at `k` = size), and all colors
    /// once the palette is narrow enough to list; clones share an explicit
    /// palette's list, and an explicit palette equals the one its available
    /// colors make.
    #[test]
    fn palettes_match_a_set_model(
        list in any::<bool>(),
        len in 0u64..=80,
        colors in proptest::collection::vec((0u8..6, 0u64..80), 0..40),
        steps in proptest::collection::vec((0u8..4, (0u8..6, 0u64..80)), 0..60),
    ) {
        let (mut palette, mut model) = palette_and_model(list, len, &colors);
        for (op, color) in steps {
            let color = palette_color(color);
            match op {
                0 | 1 => prop_assert_eq!(palette.remove(color), model.remove(color)),
                2 => prop_assert_eq!(palette.contains(color), model.contains(color)),
                // Only a palette narrow enough to walk is filtered.
                _ if palette.base().size() <= 1 << 12 => {
                    let class = color.0 % 3;
                    palette = palette.filtered(|c| c.0 % 3 == class);
                    let kept = model.colors().filter(|c| c.0 % 3 == class).collect();
                    model = PaletteModel::List(kept);
                    prop_assert!(!palette.is_implicit());
                }
                _ => {}
            }
            prop_assert_eq!(palette.is_implicit(), matches!(model, PaletteModel::Range { .. }));
            prop_assert_eq!((palette.size(), palette.words()), model.size_and_words());
            prop_assert_eq!(palette.max_color(), model.max_color());
            prop_assert!(palette.iter().take(8).eq(model.colors().take(8)));
            let narrow = palette.base().size() <= 1 << 12;
            let listed = model.colors().take(if narrow { usize::MAX } else { 8 });
            for (k, color) in listed.enumerate() {
                prop_assert_eq!(palette.nth_color(k), Some(color));
            }
            let size = palette.size();
            let last = size.checked_sub(1).and_then(|k| palette.nth_color(k));
            prop_assert_eq!(last, model.max_color());
            prop_assert_eq!(palette.nth_color(size), None);
        }
        if palette.base().size() <= 1 << 12 {
            prop_assert!(palette.iter().eq(model.colors()));
        }
        if let PaletteModel::List(colors) = &model {
            let copy = palette.clone();
            let (Base::List(a), Base::List(b)) = (palette.base(), copy.base()) else {
                panic!("an explicit palette has a list");
            };
            prop_assert!(Arc::ptr_eq(a, b));
            prop_assert_eq!(&palette, &Palette::explicit(colors.iter().copied()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `ColorReduce` on instances too large to collect: every generator
    /// family × palette kind gives a proper list coloring within the model,
    /// with no bad bins, and partitions whenever the input exceeds one
    /// machine; every partition's seed search scored the classification it
    /// produced. The (deg+1)-list instances also go through the low-space
    /// algorithm.
    #[test]
    fn color_reduce_partitions_large_instances(n in 120usize..=200, seed in any::<u64>()) {
        for family in DENSE_FAMILIES {
            let graph = family.generate(n, seed).unwrap();
            for kind in palette_kinds(n) {
                let case = format!("{} with {kind:?}", family.label());
                let instance = instance_with_palettes(&graph, kind, seed).unwrap();
                let model = ExecutionModel::congested_clique(n);
                let past_one_machine = !model.fits_on_one_machine(instance.size_words());
                let outcome = ColorReduce::new(fast_config()).run(&instance, model).unwrap();
                let report = outcome.report();
                prop_assert!(outcome.coloring().verify(&instance).is_ok(), "{case}");
                prop_assert!(report.within_limits(), "{case}: {:?}", report.violations);
                prop_assert_eq!(outcome.trace().total_bad_bins(), 0);
                prop_assert!(
                    !past_one_machine || outcome.trace().partition_count() >= 1,
                    "{case}"
                );
                let mismatched = mismatched_searches(outcome.trace(), n);
                prop_assert!(mismatched.is_empty(), "{case}: {mismatched:?}");
                if let PaletteKind::DegPlusOneList { .. } = kind {
                    let config = LowSpaceConfig::scaled_down(0.5);
                    let budget = instance.size_words() * 8;
                    let model = ExecutionModel::mpc_low_space(n, config.epsilon, budget);
                    let outcome = LowSpaceColorReduce::new(config).run(&instance, model).unwrap();
                    let report = &outcome.report;
                    prop_assert!(outcome.coloring.verify(&instance).is_ok(), "{case}, low space");
                    prop_assert!(report.within_limits(), "{case}, low space: {:?}", report.violations);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The selector scores each candidate once and charges the paper's
    /// aggregation: the cost it reports is the true total of the seed it
    /// returns, the bound flag agrees with that cost, and every chunk of a
    /// pass scores `c = min(candidates, 2^width)` candidates, then charges
    /// one aggregation of `c` words per machine and one broadcast. Without
    /// a stop threshold every pass scores every chunk. With one, its seed,
    /// cost, escalations and charges follow `reference_schedule`, and it
    /// never scores, escalates or charges more, nor misses a bound the full
    /// search meets. The bound is the drawn one, or one that ends the first
    /// pass in chunk 0, in a later chunk, or never. A cost that names floor
    /// 0 gets the same seed, cost, escalations, count and charges, while
    /// asking for at most one lead (8 totals) more than the count; without a
    /// floor it asks for exactly the count. Codebooks of up to 24 candidates
    /// exceed the lead.
    #[test]
    fn greedy_selector_scores_each_candidate_once(
        cost in arb_table_cost(),
        chunk_bits in 1usize..=7,
        candidates in 1usize..=24,
        salts in 1u32..=3,
        shape in 0u8..4
    ) {
        let selector = GreedyChunkSelector::new(chunk_bits, candidates, salts);
        let model = ExecutionModel::congested_clique(16);
        let broadcast_words = model.machines as u64;
        let machines = cost.machine_count() as u64;
        let passes = reference_passes(&cost, chunk_bits, candidates, salts);
        let totals: Vec<f64> = passes[0].iter().map(|chunk| chunk.2).collect();
        let lowest_before = |j: usize| totals[..j].iter().copied().fold(f64::INFINITY, f64::min);
        let bound = match shape {
            1 => totals[0],
            2 => (1..totals.len())
                .find(|&j| totals[j] < lowest_before(j))
                .map_or(cost.bound, |j| totals[j]),
            3 => lowest_before(totals.len()) - 1.0,
            _ => cost.bound,
        };
        let mut runs = Vec::new();
        for stop in [false, true] {
            let want = reference_schedule(&passes, bound, stop, machines, broadcast_words);
            for floor in [false, true] {
                let mut cost = TableCost { bound, stop, floor, ..cost.clone() };
                let mut ctx = ClusterContext::new(model.clone());
                let outcome = selector.select(&mut ctx, "prop", cost.seed_bits, &mut cost);
                prop_assert_eq!(outcome.achieved_cost, cost.total(&outcome.seed));
                prop_assert_eq!(outcome.met_bound, outcome.achieved_cost <= outcome.bound);
                let got = Schedule {
                    seed: outcome.seed.clone(),
                    cost: outcome.achieved_cost,
                    escalations: outcome.escalations,
                    candidates: outcome.candidates_evaluated,
                    rounds: ctx.rounds(),
                    words: ctx.communication_words(),
                };
                prop_assert_eq!(&got, &want);
                if floor {
                    prop_assert!(cost.asked <= outcome.candidates_evaluated + 8);
                } else {
                    prop_assert_eq!(cost.asked, outcome.candidates_evaluated);
                    runs.push((outcome, ctx));
                }
            }
        }
        let ((full, full_ctx), (stopping, stopping_ctx)) = (&runs[0], &runs[1]);

        let (mut per_pass, mut rounds, mut words) = (0u64, 0u64, 0u64);
        for start in (0..cost.seed_bits).step_by(chunk_bits) {
            let c = candidates.min(1 << chunk_bits.min(cost.seed_bits - start)) as u64;
            per_pass += c;
            rounds += PREFIX_SUM_ROUNDS + BROADCAST_ROUNDS;
            words += c + machines * c + broadcast_words;
        }
        let passes = u64::from(full.escalations + 1);
        prop_assert_eq!(full.candidates_evaluated, passes * per_pass);
        prop_assert_eq!(full_ctx.rounds(), passes * rounds);
        prop_assert_eq!(full_ctx.communication_words(), passes * words);

        prop_assert!(stopping.candidates_evaluated <= full.candidates_evaluated);
        prop_assert!(stopping.escalations <= full.escalations);
        prop_assert!(stopping_ctx.rounds() <= full_ctx.rounds());
        prop_assert!(stopping_ctx.communication_words() <= full_ctx.communication_words());
        prop_assert!(stopping.met_bound || !full.met_bound);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The bit-sliced binning kernel against `reference_binning`: on every
    /// dense generator family and an arbitrary graph, every palette kind
    /// (and, on a sparse power-law graph and the arbitrary one, list colors
    /// from 𝔫² and from 2⁵⁰), B ∈ {2, 3, 5, 7}, all nodes or a random half
    /// active, and 1, 63, 64 or 65 seeds (two groups), each lane's cost has
    /// the reference's bits, each seed's recorded lane holds the reference's
    /// bins and verdicts, and the one-lane call matches the reference node
    /// by node.
    #[test]
    fn binning_kernel_matches_a_plain_reference(
        graph in arb_graph(40),
        n in 81usize..=86,
        seed in any::<u64>()
    ) {
        // Sparse palettes have about one color row per palette entry. On
        // the dense graphs they would take this test far past 10 s, so a
        // sparse graph and the arbitrary one take them.
        let mut graphs: Vec<(String, CsrGraph, Vec<PaletteKind>)> = DENSE_FAMILIES
            .iter()
            .map(|family| {
                (family.label(), family.generate(n, seed).unwrap(), palette_kinds(n).to_vec())
            })
            .collect();
        let sparse = GraphFamily::PowerLaw { edges_per_node: 4 };
        let kinds = sparse_palette_kinds(n).to_vec();
        graphs.push((sparse.label(), sparse.generate(n, seed).unwrap(), kinds));
        let size = graph.node_count();
        let kinds = [&palette_kinds(size)[..], &sparse_palette_kinds(size)].concat();
        graphs.push(("arbitrary".to_string(), graph, kinds));
        for (label, graph, kinds) in &graphs {
            let n = graph.node_count();
            let everyone: Vec<NodeId> = graph.nodes().collect();
            let half: Vec<NodeId> = graph
                .nodes()
                .filter(|v| splitmix64(seed ^ u64::from(v.0)) & 1 == 0)
                .collect();
            for &kind in kinds {
                let instance = instance_with_palettes(graph, kind, seed).unwrap();
                let palettes = instance.palettes();
                for active in [&everyone, &half] {
                    let sub = ActiveSubgraph::new(graph, palettes, active);
                    let colors = ActiveColors::new(&sub, palettes);
                    for bins in [2u64, 3, 5, 7] {
                        let hashes = HashPair::new(4, graph, &sub, palettes, bins);
                        let seeds = lane_seeds(hashes.seed_bits(), 4, seed ^ bins);
                        let counted: Vec<BinningEvaluation> = seeds
                            .iter()
                            .map(|s| {
                                let functions = hashes.functions(s);
                                reference_bins(graph, &sub, &colors, bins, &functions)
                            })
                            .collect();
                        // 64 seeds make one group: the first of the 65 seeds' two.
                        let [one, sixty_three, two_groups] = [1, 63, 65].map(|lanes| {
                            hashes.lane_planes(&sub, &seeds[..lanes]).collect::<Vec<_>>()
                        });
                        let planes = [
                            (1, &one[..]),
                            (63, &sixty_three[..]),
                            (64, &two_groups[..1]),
                            (65, &two_groups[..]),
                        ];
                        for params in binning_params(&sub, bins, n) {
                            let case = format!(
                                "{label}, {kind:?}, {} active, B = {bins}, {params:?}",
                                sub.len()
                            );
                            let reference: Vec<BinningEvaluation> = counted
                                .iter()
                                .map(|bins| reference_binning(&sub, &params, bins))
                                .collect();
                            let tests = NodeTests::new(&sub, &params);
                            let mut record = ScoredLanes::default();
                            for (lanes, groups) in planes {
                                record.start(&seeds[..lanes], bins);
                                let costs: Vec<u64> = groups
                                    .iter()
                                    .flat_map(|group| {
                                        binning_costs(graph, &sub, &params, &tests, group, &mut record)
                                    })
                                    .map(f64::to_bits)
                                    .collect();
                                let expected: Vec<u64> = reference[..lanes]
                                    .iter()
                                    .map(|eval| reference_cost(eval, n).to_bits())
                                    .collect();
                                prop_assert!(
                                    costs == expected,
                                    "{case}, {lanes} lanes: {costs:?} != {expected:?}"
                                );
                                // Every seed's recorded lane holds its bins and
                                // verdicts.
                                for (k, eval) in reference[..lanes].iter().enumerate() {
                                    let lane: Vec<(u32, bool)> =
                                        record.lane(&seeds[k]).unwrap().collect();
                                    let bins = eval.node_bin.iter().copied();
                                    let verdicts = eval.node_good.iter().copied();
                                    let expected: Vec<(u32, bool)> = bins.zip(verdicts).collect();
                                    prop_assert!(lane == expected, "{case}, seed {k} of {lanes}");
                                }
                            }
                            for k in [0, 64] {
                                let one_lane = evaluate_binning(
                                    graph,
                                    &sub,
                                    &params,
                                    &tests,
                                    &hashes.planes(&sub, &seeds[k]),
                                );
                                prop_assert!(
                                    one_lane == reference[k],
                                    "{case}, seed {k}: {one_lane:?} != {:?}",
                                    reference[k]
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
