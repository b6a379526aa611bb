//! E6 — correctness across every algorithm and graph family.
//!
//! Runs every coloring algorithm in the workspace over the standard instance
//! suite and verifies that the output is a complete, proper coloring from
//! the nodes' palettes. The property-based tests cover the same invariant on
//! arbitrary graphs; this experiment records it at experiment scale.

use cc_sim::ExecutionModel;
use clique_coloring::baselines::engine_trial::EngineTrialColoring;
use clique_coloring::baselines::greedy::SequentialGreedy;
use clique_coloring::baselines::mis_reduction::MisReductionColoring;
use clique_coloring::baselines::randomized_color_reduce;
use clique_coloring::color_reduce::ColorReduce;
use clique_coloring::low_space::{LowSpaceColorReduce, LowSpaceConfig};

use crate::records::{write_json, RunRecord};
use crate::suite::standard_families;
use crate::table::Table;
use crate::Scale;

use super::{clique_model, graph_stats, practical_config};

/// Runs the experiment.
pub fn run(scale: Scale) {
    let n = scale.pick(300, 800);
    let mut table = Table::new([
        "instance",
        "ColorReduce",
        "low-space",
        "random-seed CR",
        "MIS-reduction",
        "rand-trial",
        "seq-greedy",
    ]);
    let mut records = Vec::new();
    for spec in standard_families(n, 51) {
        let instance = spec.build();
        let stats = graph_stats(&instance);
        let mut cells = vec![spec.label.clone()];
        let mut check = |name: &str, ok: bool, rounds: u64| {
            cells.push(if ok {
                format!("ok ({rounds}r)")
            } else {
                "FAIL".to_string()
            });
            records.push(RunRecord {
                experiment: "E6".into(),
                instance: spec.label.clone(),
                algorithm: name.into(),
                n: stats.0,
                m: stats.1,
                max_degree: stats.2,
                rounds,
                communication_words: 0,
                peak_local_words: 0,
                peak_total_words: 0,
                within_limits: ok,
                extra: vec![],
            });
        };

        let outcome = ColorReduce::new(practical_config())
            .run(&instance, clique_model(&instance))
            .expect("E6 colorreduce");
        check(
            "color-reduce",
            outcome.coloring().verify(&instance).is_ok(),
            outcome.rounds(),
        );

        let config = LowSpaceConfig::scaled_down(0.5);
        let low = LowSpaceColorReduce::new(config.clone())
            .run(
                &instance,
                ExecutionModel::mpc_low_space(stats.0, config.epsilon, instance.size_words() * 8),
            )
            .expect("E6 low-space");
        check(
            "low-space",
            low.coloring.verify(&instance).is_ok(),
            low.rounds(),
        );

        let random =
            randomized_color_reduce(&instance, clique_model(&instance), 5).expect("E6 random");
        check(
            "color-reduce-random",
            random.coloring().verify(&instance).is_ok(),
            random.rounds(),
        );

        let mis = MisReductionColoring::default()
            .run(&instance, clique_model(&instance))
            .expect("E6 mis");
        check(
            "mis-reduction",
            mis.coloring.verify(&instance).is_ok(),
            mis.report.rounds,
        );

        let trial = EngineTrialColoring::default()
            .run(&instance, clique_model(&instance))
            .expect("E6 trial")
            .outcome;
        check(
            "randomized-trial",
            trial.coloring.verify(&instance).is_ok(),
            trial.report.rounds,
        );

        let greedy = SequentialGreedy
            .run(&instance, clique_model(&instance))
            .expect("E6 greedy");
        check(
            "sequential-greedy",
            greedy.coloring.verify(&instance).is_ok(),
            greedy.report.rounds,
        );

        table.row(cells);
    }
    table.print(
        "E6  every algorithm produces a verified proper list coloring (rounds in parentheses)",
    );
    write_json("e6_correctness", &records);
}
