//! Integration tests spanning the whole workspace: generators → simulator →
//! derandomized coloring → verification.

use cc_graph::generators::{instance_with_palettes, GraphFamily, PaletteKind};
use congested_clique_coloring::coloring::baselines::{
    engine_trial::EngineTrialColoring, greedy::SequentialGreedy,
    mis_reduction::MisReductionColoring, randomized_color_reduce,
};
use congested_clique_coloring::coloring::config::SeedStrategy;
use congested_clique_coloring::coloring::good_bad::MAX_HASHABLE_COLOR;
use congested_clique_coloring::coloring::low_space::LowSpaceConfig;
use congested_clique_coloring::coloring::CoreError;
use congested_clique_coloring::prelude::*;

mod common;
use common::mismatched_searches;

fn fast_config() -> ColorReduceConfig {
    ColorReduceConfig {
        independence: 2,
        seed_strategy: SeedStrategy::Derandomized {
            chunk_bits: 61,
            candidates_per_chunk: 8,
            max_salts: 1,
        },
        ..ColorReduceConfig::default()
    }
}

fn families(n: usize) -> Vec<(String, cc_graph::csr::CsrGraph)> {
    let specs = [
        GraphFamily::Gnp { p: 0.08 },
        GraphFamily::NearRegular { degree: 12 },
        GraphFamily::PowerLaw { edges_per_node: 3 },
        GraphFamily::Clustered {
            communities: 5,
            p_in: 0.25,
            p_out: 0.01,
        },
        GraphFamily::Cycle,
    ];
    specs
        .iter()
        .map(|f| (f.label(), f.generate(n, 1234).unwrap()))
        .collect()
}

#[test]
fn color_reduce_handles_every_family_and_palette_kind() {
    for (label, graph) in families(180) {
        for kind in [
            PaletteKind::DeltaPlusOne,
            PaletteKind::DeltaPlusOneList { universe: 4000 },
            PaletteKind::DegPlusOneList { universe: 4000 },
        ] {
            let instance = instance_with_palettes(&graph, kind, 5).unwrap();
            let outcome = ColorReduce::new(fast_config())
                .run(
                    &instance,
                    ExecutionModel::congested_clique(graph.node_count()),
                )
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            outcome
                .coloring()
                .verify(&instance)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}

#[test]
fn rounds_do_not_grow_with_n_at_fixed_degree() {
    // Theorem 1.1 at reproduction scale: for fixed maximum degree the round
    // count is independent of n.
    let mut rounds = Vec::new();
    for &n in &[300usize, 600, 1200] {
        let graph = GraphFamily::NearRegular { degree: 16 }
            .generate(n, 3)
            .unwrap();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        let outcome = ColorReduce::new(fast_config())
            .run(&instance, ExecutionModel::congested_clique(n))
            .unwrap();
        outcome.coloring().verify(&instance).unwrap();
        rounds.push(outcome.rounds());
    }
    let min = *rounds.iter().min().unwrap();
    let max = *rounds.iter().max().unwrap();
    assert!(
        max <= min.max(1) * 2,
        "rounds should stay flat in n at fixed degree, got {rounds:?}"
    );
}

#[test]
fn deterministic_algorithm_is_bit_identical_across_runs() {
    let graph = GraphFamily::Gnp { p: 0.25 }.generate(250, 9).unwrap();
    let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
    let model = ExecutionModel::congested_clique(250);
    let a = ColorReduce::new(fast_config())
        .run(&instance, model.clone())
        .unwrap();
    let b = ColorReduce::new(fast_config())
        .run(&instance, model)
        .unwrap();
    assert_eq!(a.coloring(), b.coloring());
    assert_eq!(a.rounds(), b.rounds());
    assert_eq!(
        a.report().communication_words,
        b.report().communication_words
    );
    assert_eq!(a.trace(), b.trace());
}

#[test]
fn every_baseline_agrees_on_validity() {
    let graph = GraphFamily::Gnp { p: 0.1 }.generate(150, 77).unwrap();
    let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
    let model = ExecutionModel::congested_clique(150);

    let derand = ColorReduce::new(fast_config())
        .run(&instance, model.clone())
        .unwrap();
    derand.coloring().verify(&instance).unwrap();

    let random = randomized_color_reduce(&instance, model.clone(), 3).unwrap();
    random.coloring().verify(&instance).unwrap();

    let mis = MisReductionColoring::default()
        .run(&instance, model.clone())
        .unwrap();
    mis.coloring.verify(&instance).unwrap();

    let trial = EngineTrialColoring::default()
        .run(&instance, model.clone())
        .unwrap()
        .outcome;
    trial.coloring.verify(&instance).unwrap();

    let greedy = SequentialGreedy.run(&instance, model).unwrap();
    greedy.coloring.verify(&instance).unwrap();
}

#[test]
fn low_space_and_linear_space_agree_on_validity() {
    let graph = GraphFamily::PowerLaw { edges_per_node: 4 }
        .generate(200, 8)
        .unwrap();
    let instance = ListColoringInstance::deg_plus_one(&graph).unwrap();

    let linear = ColorReduce::new(fast_config())
        .run(&instance, ExecutionModel::congested_clique(200))
        .unwrap();
    linear.coloring().verify(&instance).unwrap();

    let config = LowSpaceConfig::scaled_down(0.5);
    let model = ExecutionModel::mpc_low_space(200, config.epsilon, instance.size_words() * 8);
    let low = LowSpaceColorReduce::new(config)
        .run(&instance, model)
        .unwrap();
    low.coloring.verify(&instance).unwrap();
}

#[test]
fn sparse_instances_stay_within_model_limits() {
    let graph = GraphFamily::Gnp { p: 0.02 }.generate(500, 6).unwrap();
    let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
    let outcome = ColorReduce::new(fast_config())
        .run(&instance, ExecutionModel::congested_clique(500))
        .unwrap();
    outcome.coloring().verify(&instance).unwrap();
    assert!(
        outcome.report().within_limits(),
        "violations: {:?}",
        outcome.report().violations
    );
}

#[test]
fn partition_statistics_are_recorded_for_dense_graphs() {
    let graph = GraphFamily::Gnp { p: 0.5 }.generate(300, 2).unwrap();
    let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
    let outcome = ColorReduce::new(fast_config())
        .run(&instance, ExecutionModel::congested_clique(300))
        .unwrap();
    outcome.coloring().verify(&instance).unwrap();
    let trace = outcome.trace();
    assert!(trace.partition_count() >= 1);
    assert!(trace.collected_count() >= 1);
    assert_eq!(trace.total_bad_bins(), 0, "Lemma 3.9: no bad bins expected");
    let mismatched = mismatched_searches(trace, 300);
    assert!(mismatched.is_empty(), "{mismatched:?}");
    // Every call's instance is within the closed-form size bound shape: the
    // top-level call covers all nodes.
    let top = trace.calls_at_depth(0).next().unwrap();
    assert_eq!(top.nodes, 300);
    // The fixed-salt baseline scores its one seed per partition the same way.
    let random =
        randomized_color_reduce(&instance, ExecutionModel::congested_clique(300), 3).unwrap();
    random.coloring().verify(&instance).unwrap();
    assert!(random.trace().partition_count() >= 1);
    let mismatched = mismatched_searches(random.trace(), 300);
    assert!(mismatched.is_empty(), "{mismatched:?}");
}

#[test]
fn explicit_and_implicit_palettes_give_equivalent_colorings_for_delta_plus_one() {
    // The (Δ+1)-coloring instance can be given with implicit range palettes
    // or with the same palettes materialized; the algorithm must accept both
    // and produce valid colorings. (The colorings themselves may differ: the
    // storage representation changes instance sizes and therefore collection
    // decisions inside the recursion.)
    let graph = GraphFamily::Gnp { p: 0.15 }.generate(180, 4).unwrap();
    let implicit = ListColoringInstance::delta_plus_one(&graph).unwrap();
    let delta = graph.max_degree() as u64;
    let explicit_palettes = (0..graph.node_count())
        .map(|_| Palette::explicit((0..=delta).map(Color)))
        .collect();
    let explicit = ListColoringInstance::from_palettes(graph.clone(), explicit_palettes).unwrap();
    let model = ExecutionModel::congested_clique(180);
    let a = ColorReduce::new(fast_config())
        .run(&implicit, model.clone())
        .unwrap();
    let b = ColorReduce::new(fast_config())
        .run(&explicit, model)
        .unwrap();
    a.coloring().verify(&implicit).unwrap();
    b.coloring().verify(&explicit).unwrap();
    let palette_size = graph.max_degree() + 1;
    assert!(a.coloring().distinct_colors() <= palette_size);
    assert!(b.coloring().distinct_colors() <= palette_size);
}

#[test]
fn color_ids_far_beyond_the_node_count_bin_like_small_ones() {
    // (deg+1)-lists drawn from 2⁵⁰ colors, under a bin exponent that
    // gives the partitions several color bins.
    let graph = GraphFamily::Gnp { p: 0.5 }.generate(300, 8).unwrap();
    let kind = PaletteKind::DegPlusOneList { universe: 1 << 50 };
    let instance = instance_with_palettes(&graph, kind, 8).unwrap();
    let config = ColorReduceConfig {
        bin_exponent: 0.4,
        ..fast_config()
    };
    let outcome = ColorReduce::new(config)
        .run(&instance, ExecutionModel::congested_clique(300))
        .unwrap();
    outcome.coloring().verify(&instance).unwrap();
    let calls = outcome.trace().calls();
    let most_bins = calls
        .iter()
        .filter_map(|call| call.partition.as_ref())
        .map(|p| p.bins)
        .max();
    assert!(most_bins >= Some(3), "{most_bins:?}");
    let mismatched = mismatched_searches(outcome.trace(), 300);
    assert!(mismatched.is_empty(), "{mismatched:?}");
}

#[test]
fn colors_beyond_the_hash_field_are_rejected_by_both_drivers() {
    // K₄₀ with the same 41 explicit colors at every node, the largest `top`.
    let graph = GraphBuilder::complete(40).build();
    let limit = MAX_HASHABLE_COLOR.0;
    assert_eq!(limit, (1 << 61) - 3);
    for top in [limit, limit + 1, 1 << 62, u64::MAX] {
        let palette = Palette::explicit((top - 40..=top).map(Color));
        let instance =
            ListColoringInstance::from_palettes(graph.clone(), vec![palette; 40]).unwrap();
        instance.validate().unwrap();
        let linear = ColorReduce::new(ColorReduceConfig::default())
            .run(&instance, ExecutionModel::congested_clique(40))
            .map(|outcome| outcome.coloring().clone());
        let config = LowSpaceConfig::default();
        let model = ExecutionModel::mpc_low_space(40, config.epsilon, instance.size_words() * 8);
        let low = LowSpaceColorReduce::new(config)
            .run(&instance, model)
            .map(|outcome| outcome.coloring);
        for result in [linear, low] {
            if top <= limit {
                result.unwrap().verify(&instance).unwrap();
            } else {
                let want = CoreError::ColorOutOfRange {
                    node: NodeId(0),
                    color: Color(top),
                };
                assert_eq!(result.unwrap_err(), want, "largest color {top}");
            }
        }
    }
}
