//! Frozen seed-search outcomes.
//!
//! Every derandomized step of the pipeline picks its hash seeds with
//! `cc_derand`'s chunked search over a `SeedCost`. Most values below were
//! recorded while each cost still answered one machine per call, with a
//! per-seed memo behind it. The two default `ColorReduce` cases were
//! re-recorded when `Partition`'s search began to stop at the first chunk
//! whose minimizer's completion meets Lemma 3.9's bound: each of their
//! searches now scores chunk 0's 64 candidates and keeps the best one's
//! canonical completion. Any change to the candidates scored, the
//! per-machine terms, their aggregation, the stop or the escalation
//! schedule shows up here. Each case pins, for every seed search, the
//! selected seed's words,
//! the bits of its achieved cost, the candidates evaluated and the
//! escalations, plus a digest of the output and the report's rounds,
//! communication words and peak machine words.

use cc_graph::coloring::Coloring;
use cc_graph::generators::{self, instance_with_palettes, PaletteKind};
use cc_graph::instance::ListColoringInstance;
use cc_graph::NodeId;
use cc_sim::report::ExecutionReport;
use cc_sim::{ClusterContext, ExecutionModel};
use congested_clique_coloring::coloring::config::SeedStrategy;
use congested_clique_coloring::coloring::good_bad::ActiveSubgraph;
use congested_clique_coloring::coloring::low_space::{
    low_space_partition, LowSpaceColorReduce, LowSpaceConfig,
};
use congested_clique_coloring::coloring::{ColorReduce, ColorReduceConfig};
use congested_clique_coloring::derand::SelectionOutcome;
use congested_clique_coloring::mis::derand::DerandomizedLubyMis;

/// One seed search: `(seed words, achieved_cost bits, candidates_evaluated,
/// escalations)`.
type Pick = (Vec<u64>, u64, u64, u32);

/// What one case reproduces.
#[derive(Debug, PartialEq)]
struct Pinned {
    picks: Vec<Pick>,
    output: u64,
    rounds: u64,
    communication_words: u64,
    peak_local_words: usize,
}

impl Pinned {
    fn observe(picks: &[&SelectionOutcome], output: u64, report: &ExecutionReport) -> Self {
        Pinned {
            picks: picks
                .iter()
                .map(|o| {
                    (
                        o.seed.words().to_vec(),
                        o.achieved_cost.to_bits(),
                        o.candidates_evaluated,
                        o.escalations,
                    )
                })
                .collect(),
            output,
            rounds: report.rounds,
            communication_words: report.communication_words,
            peak_local_words: report.peak_local_words,
        }
    }
}

/// A recorded seed search.
fn pick(words: &[u64], cost_bits: u64, candidates: u64, escalations: u32) -> Pick {
    (words.to_vec(), cost_bits, candidates, escalations)
}

/// FNV-1a over a stream of words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Each node's color in node order (`u64::MAX` for an uncolored node).
fn coloring_digest(coloring: &Coloring) -> u64 {
    digest((0..coloring.node_count()).map(|i| {
        coloring
            .color_of(NodeId::from_index(i))
            .map_or(u64::MAX, |c| c.0)
    }))
}

fn color_reduce(instance: &ListColoringInstance, config: ColorReduceConfig) -> Pinned {
    let outcome = ColorReduce::new(config)
        .run(
            instance,
            ExecutionModel::congested_clique(instance.node_count()),
        )
        .unwrap();
    outcome.coloring().verify(instance).unwrap();
    let picks: Vec<&SelectionOutcome> = outcome
        .trace()
        .calls()
        .iter()
        .filter_map(|c| c.partition.as_ref().map(|p| &p.seed_outcome))
        .collect();
    Pinned::observe(
        &picks,
        coloring_digest(outcome.coloring()),
        outcome.report(),
    )
}

fn gnp_instance() -> ListColoringInstance {
    let graph = generators::gnp(300, 0.3, 11).unwrap();
    ListColoringInstance::delta_plus_one(&graph).unwrap()
}

/// Where a stopping search lands when chunk 0's first candidate scores zero
/// on a 300- or 800-node instance: that candidate, canonically completed
/// under the first salt.
const FIRST_CANDIDATE_COMPLETED: [u64; 8] = [
    13472193020030367434,
    5056278601175809776,
    5393427054874215771,
    15897674999500403580,
    14498589979504659270,
    7932773627936670811,
    12193956521716011263,
    796305584254,
];

#[test]
fn default_color_reduce_on_gnp() {
    let got = color_reduce(&gnp_instance(), ColorReduceConfig::default());
    let want = Pinned {
        picks: vec![pick(&FIRST_CANDIDATE_COMPLETED, 0, 64, 0)],
        output: 17558847570250166960,
        rounds: 13,
        communication_words: 36068,
        peak_local_words: 9270,
    };
    assert_eq!(got, want);
}

#[test]
fn default_color_reduce_on_power_law_lists() {
    let graph = generators::power_law(800, 16, 5).unwrap();
    let instance =
        instance_with_palettes(&graph, PaletteKind::DeltaPlusOneList { universe: 3200 }, 6)
            .unwrap();
    let got = color_reduce(&instance, ColorReduceConfig::default());
    let child_seed = [
        189343593329955566,
        2223973848886203234,
        13709759445064864541,
        15842984599570366557,
        1794099243684995017,
        11845861714320783290,
        14209396894650317299,
        509817211624,
    ];
    let want = Pinned {
        picks: vec![
            pick(&FIRST_CANDIDATE_COMPLETED, 0, 64, 0),
            pick(&child_seed, 0, 64, 0),
            pick(&child_seed, 0, 64, 0),
        ],
        output: 7585362486052814812,
        rounds: 31,
        communication_words: 264904,
        peak_local_words: 44372,
    };
    assert_eq!(got, want);
}

/// E3's power-law row: (deg+1)-lists from 4n colors, outside Lemma 3.9's
/// hypothesis. No candidate totals 0 and no search meets its bound, so every
/// salt runs every chunk.
#[test]
fn default_color_reduce_on_power_law_deg_plus_one_lists() {
    let graph = generators::power_law(500, 16, 24).unwrap();
    let kind = PaletteKind::DegPlusOneList { universe: 2000 };
    let instance = instance_with_palettes(&graph, kind, 24 ^ 0xABCD).unwrap();
    let got = color_reduce(&instance, ColorReduceConfig::default());
    let seed = [
        12030350392025516841,
        10877779643314618765,
        2256454723586605071,
        7002990112904033301,
        72514368333102556,
        18365589154906528014,
        13719775500234204134,
        805087000034,
    ];
    let want = Pinned {
        // 196 bad nodes after 4 salts of 8 chunks of 64 candidates.
        picks: vec![pick(&seed, 196f64.to_bits(), 2048, 3)],
        output: 9972624134644243492,
        rounds: 112,
        communication_words: 1069201,
        peak_local_words: 13566,
    };
    assert_eq!(got, want);
}

#[test]
fn multi_bin_narrow_selector_escalates() {
    // ⌊ℓ^0.4⌋ = 6 bins; two candidates per 20-bit chunk miss the bound, so
    // every salt is tried.
    let config = ColorReduceConfig {
        bin_exponent: 0.4,
        seed_strategy: SeedStrategy::Derandomized {
            chunk_bits: 20,
            candidates_per_chunk: 2,
            max_salts: 3,
        },
        ..ColorReduceConfig::default()
    };
    let got = color_reduce(&gnp_instance(), config);
    let seed = [
        17590830728100057282,
        6297599619478747322,
        1224085226279452498,
        12076791197648371351,
        10102181300189604763,
        8857030266450772515,
        2179388716689681796,
        962259124613,
    ];
    let want = Pinned {
        picks: vec![pick(&seed, 4642401975260938240, 150, 2)],
        output: 3197464276477600121,
        rounds: 237,
        communication_words: 88759,
        peak_local_words: 18811,
    };
    assert_eq!(got, want);
}

#[test]
fn fixed_salt_color_reduce() {
    let config = ColorReduceConfig {
        seed_strategy: SeedStrategy::FixedSalt { salt: 7 },
        ..ColorReduceConfig::default()
    };
    let got = color_reduce(&gnp_instance(), config);
    let seed = [
        9017830797430238210,
        8821854289590167441,
        13202256869650347239,
        7835006958736804110,
        3383297659147251254,
        16826672158936526328,
        4988504393971615987,
        223048687782,
    ];
    let want = Pinned {
        picks: vec![pick(&seed, 0, 1, 0)],
        output: 6978779173775117930,
        rounds: 11,
        communication_words: 16439,
        peak_local_words: 10135,
    };
    assert_eq!(got, want);
}

#[test]
fn low_space_color_reduce() {
    let graph = generators::gnp(200, 0.4, 13).unwrap();
    let instance = ListColoringInstance::deg_plus_one(&graph).unwrap();
    let config = LowSpaceConfig::scaled_down(0.5);
    let model = ExecutionModel::mpc_low_space(200, config.epsilon, instance.size_words() * 8);
    let out = LowSpaceColorReduce::new(config.clone())
        .run(&instance, model.clone())
        .unwrap();
    out.coloring.verify(&instance).unwrap();
    assert_eq!(out.partition_levels, 4);
    let stats = [out.partition_levels, out.mis_calls, out.safety_moves].map(|x| x as u64);
    let got = Pinned::observe(
        &[],
        digest(
            stats
                .into_iter()
                .chain([out.mis_phases, coloring_digest(&out.coloring)]),
        ),
        &out.report,
    );
    let want = Pinned {
        picks: vec![],
        output: 6642713743365027771,
        rounds: 258,
        communication_words: 711808,
        peak_local_words: 38,
    };
    assert_eq!(got, want, "LowSpaceColorReduce run");

    // `LowSpaceColorReduce` does not expose its seeds, so pin one partition
    // of the whole graph into six bins under each strategy.
    let palettes = instance.palettes().to_vec();
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let sub = ActiveSubgraph::new(&graph, &palettes, &nodes);
    let wants = [
        (
            config.seed_strategy,
            Pinned {
                picks: vec![pick(
                    &[
                        112776394754801615,
                        16532488974867879828,
                        4111946592766766530,
                        3231959931743518,
                    ],
                    4624633867356078080,
                    64,
                    0,
                )],
                output: 13675088096986447546,
                rounds: 12,
                communication_words: 13440,
                peak_local_words: 0,
            },
        ),
        (
            SeedStrategy::FixedSalt { salt: 2 },
            Pinned {
                picks: vec![pick(
                    &[
                        1700972907864250691,
                        8918364128291040880,
                        15983411320928569250,
                        1828952555543466,
                    ],
                    4629137466983448576,
                    1,
                    0,
                )],
                output: 18155621913677914235,
                rounds: 1,
                communication_words: 0,
                peak_local_words: 0,
            },
        ),
    ];
    for (seed_strategy, want) in wants {
        let config = LowSpaceConfig {
            seed_strategy,
            ..config.clone()
        };
        let mut ctx = ClusterContext::new(model.clone());
        let part = low_space_partition(&mut ctx, "lsp", &graph, &palettes, &sub, 6, &config);
        let bins = part
            .bins
            .iter()
            .flat_map(|b| b.iter().map(|v| u64::from(v.0)).chain([u64::MAX]));
        let output = digest(bins.chain([part.safety_moves as u64]));
        let got = Pinned::observe(&[&part.seed_outcome], output, &ctx.report());
        assert_eq!(got, want, "low_space_partition with {seed_strategy:?}");
    }
}

#[test]
fn derandomized_luby_mis() {
    let graph = generators::gnp(150, 0.07, 17).unwrap();
    let mut ctx = ClusterContext::new(ExecutionModel::congested_clique(150));
    let mis = DerandomizedLubyMis::default().run(&mut ctx, &graph);
    let output = digest(mis.in_set.iter().map(|&b| u64::from(b)).chain([mis.phases]));
    let got = Pinned::observe(&[], output, &ctx.report());
    let want = Pinned {
        picks: vec![],
        output: 7205647888907735879,
        rounds: 24,
        communication_words: 15396,
        peak_local_words: 0,
    };
    assert_eq!(got, want);
}
