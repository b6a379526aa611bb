//! Property-based tests (proptest) for the core invariants.

use cc_graph::csr::CsrGraph;
use cc_graph::generators::{instance_with_palettes, GraphFamily, PaletteKind};
use cc_hash::{BitSeed, PolynomialHashFamily};
use cc_mis::greedy::greedy_mis;
use cc_mis::reduction::ReductionGraph;
use cc_mis::verify::verify_mis;
use cc_sim::constants::{BROADCAST_ROUNDS, PREFIX_SUM_ROUNDS};
use cc_sim::ClusterContext;
use congested_clique_coloring::coloring::config::SeedStrategy;
use congested_clique_coloring::derand::{GreedyChunkSelector, SeedCost};
use congested_clique_coloring::prelude::*;
use proptest::prelude::*;

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

/// A `SeedCost` given by a table: on the seed whose value is `s`, machine
/// `x` costs `table[x][s]`. Integer entries keep every sum exact.
struct TableCost {
    table: Vec<Vec<f64>>,
    seed_bits: usize,
    bound: f64,
}

impl SeedCost for TableCost {
    fn machine_count(&self) -> usize {
        self.table.len()
    }

    fn total_cost(&self, seed: &BitSeed) -> f64 {
        let value = seed.chunk(0, self.seed_bits) as usize;
        self.table.iter().map(|row| row[value]).sum()
    }

    fn expectation_bound(&self) -> f64 {
        self.bound
    }
}

/// Strategy: 1–8 machines, a 1–12-bit seed, entries in `0..16` and a bound
/// anywhere from 0 to the largest possible total.
fn arb_table_cost() -> impl Strategy<Value = TableCost> {
    (1usize..=8, 1usize..=12).prop_flat_map(|(machines, seed_bits)| {
        (
            proptest::collection::vec(0u64..16, machines << seed_bits),
            0u64..=15 * machines as u64,
        )
            .prop_map(move |(entries, bound)| TableCost {
                table: entries
                    .chunks(1 << seed_bits)
                    .map(|row| row.iter().map(|&e| e as f64).collect())
                    .collect(),
                seed_bits,
                bound: bound as f64,
            })
    })
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
            let mut palette = instance.palette(v).clone();
            let removed: Vec<Color> = graph
                .neighbors(v)
                .enumerate()
                .filter(|(i, _)| (mask >> (i % 64)) & 1 == 1)
                .map(|(i, _)| Color(i as u64 % (graph.max_degree() as u64 + 1)))
                .collect();
            palette.remove_all(removed.iter().copied());
            prop_assert!(palette.size() >= instance.palette(v).size() - graph.degree(v));
            prop_assert!(!palette.is_empty() || graph.degree(v) >= instance.palette(v).size());
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

    /// The simulator's prefix-sum primitive matches a sequential reference
    /// and charges a constant number of rounds regardless of input length.
    #[test]
    fn prefix_sum_matches_reference(values in proptest::collection::vec(0u64..1000, 0..200)) {
        let model = ExecutionModel::congested_clique(values.len().max(1));
        let mut ctx = cc_sim::ClusterContext::new(model);
        let sums = cc_sim::primitives::prefix_sum(&mut ctx, "prop", &values);
        let mut acc = 0u64;
        for (i, &v) in values.iter().enumerate() {
            acc += v;
            prop_assert_eq!(sums[i], acc);
        }
        prop_assert_eq!(ctx.rounds(), cc_sim::constants::PREFIX_SUM_ROUNDS);
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
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `ColorReduce` on instances too large to collect: every generator
    /// family × palette kind gives a proper list coloring within the model,
    /// with no bad bins, and partitions whenever the input exceeds one
    /// machine. The (deg+1)-list instances also go through the low-space
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
    /// one aggregation of `c` words per machine and one broadcast.
    #[test]
    fn greedy_selector_scores_each_candidate_once(
        cost in arb_table_cost(),
        chunk_bits in 1usize..=7,
        candidates in 1usize..=8,
        salts in 1u32..=3
    ) {
        let selector = GreedyChunkSelector::new(chunk_bits, candidates, salts);
        let model = ExecutionModel::congested_clique(16);
        let broadcast_words = model.machines as u64;
        let mut ctx = ClusterContext::new(model);
        let outcome = selector.select(&mut ctx, "prop", cost.seed_bits, &cost);
        prop_assert_eq!(outcome.achieved_cost, cost.total_cost(&outcome.seed));
        prop_assert_eq!(outcome.met_bound, outcome.achieved_cost <= outcome.bound);
        let machines = cost.machine_count() as u64;
        let (mut per_pass, mut rounds, mut words) = (0u64, 0u64, 0u64);
        for start in (0..cost.seed_bits).step_by(chunk_bits) {
            let c = candidates.min(1 << chunk_bits.min(cost.seed_bits - start)) as u64;
            per_pass += c;
            rounds += PREFIX_SUM_ROUNDS + BROADCAST_ROUNDS;
            words += c + machines * c + broadcast_words;
        }
        let passes = u64::from(outcome.escalations + 1);
        prop_assert_eq!(outcome.candidates_evaluated, passes * per_pass);
        prop_assert_eq!(ctx.rounds(), passes * rounds);
        prop_assert_eq!(ctx.communication_words(), passes * words);
    }
}
