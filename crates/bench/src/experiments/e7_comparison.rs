//! E7 — head-to-head comparison against prior-work-style baselines
//! (Section 1.3 positioning).
//!
//! For each graph family: rounds, communication volume, peak single-machine
//! space, and whether the execution stayed within the CONGESTED CLIQUE
//! model, for the deterministic `ColorReduce`, its randomized (un-
//! derandomized) variant, the deterministic MIS-reduction baseline (an
//! O(log)-round stand-in for the prior deterministic algorithms), the
//! randomized trial coloring (run on the `cc-runtime` engine, so its words
//! are real messages), and the centralized greedy. The engine accounts no
//! space (its reports read 0 words), so the trial coloring's
//! `peak local (w)` cell reads `n/a`.

use clique_coloring::baselines::engine_trial::EngineTrialColoring;
use clique_coloring::baselines::greedy::SequentialGreedy;
use clique_coloring::baselines::mis_reduction::MisReductionColoring;
use clique_coloring::baselines::randomized_color_reduce;
use clique_coloring::color_reduce::ColorReduce;

use crate::records::{write_json, RunRecord};
use crate::suite::standard_families;
use crate::table::Table;
use crate::Scale;

use super::{clique_model, graph_stats, practical_config};

/// Runs the experiment.
pub fn run(scale: Scale) {
    let n = scale.pick(400, 800);
    let mut table = Table::new([
        "instance",
        "algorithm",
        "deterministic",
        "rounds",
        "words",
        "peak local (w)",
        "in-model",
    ]);
    let mut records = Vec::new();
    for spec in standard_families(n, 61) {
        let instance = spec.build();
        let stats = graph_stats(&instance);
        let mut push = |algorithm: &str,
                        deterministic: bool,
                        accounts_space: bool,
                        report: &cc_sim::report::ExecutionReport| {
            table.row([
                spec.label.clone(),
                algorithm.to_string(),
                if deterministic { "yes" } else { "no" }.to_string(),
                report.rounds.to_string(),
                report.communication_words.to_string(),
                if accounts_space {
                    report.peak_local_words.to_string()
                } else {
                    "n/a".to_string()
                },
                if report.within_limits() { "yes" } else { "NO" }.to_string(),
            ]);
            records.push(RunRecord::from_report(
                "E7",
                &spec.label,
                algorithm,
                stats,
                report,
            ));
        };

        let derand = ColorReduce::new(practical_config())
            .run(&instance, clique_model(&instance))
            .expect("E7 colorreduce");
        derand.coloring().verify(&instance).expect("E7 verify");
        push("color-reduce (this paper)", true, true, derand.report());

        let random =
            randomized_color_reduce(&instance, clique_model(&instance), 17).expect("E7 random");
        push("color-reduce (random seeds)", false, true, random.report());

        let mis = MisReductionColoring::default()
            .run(&instance, clique_model(&instance))
            .expect("E7 mis");
        push("mis-reduction (O(log)-round det.)", true, true, &mis.report);

        let trial = EngineTrialColoring::default()
            .run(&instance, clique_model(&instance))
            .expect("E7 trial")
            .outcome;
        push(
            "randomized-trial (O(log n) rand.)",
            false,
            false,
            &trial.report,
        );

        let greedy = SequentialGreedy
            .run(&instance, clique_model(&instance))
            .expect("E7 greedy");
        push(
            "sequential-greedy (centralized)",
            true,
            true,
            &greedy.report,
        );
    }
    table.print("E7  head-to-head: rounds / communication / space per algorithm and family");
    write_json("e7_comparison", &records);
}
