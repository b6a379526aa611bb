//! Compare the deterministic constant-round algorithm against every baseline
//! on the same instance, in the CONGESTED CLIQUE model.
//!
//! This is a miniature of experiment E7 (`cargo run -p cc-bench --bin
//! exp_comparison` produces the full table).
//!
//! Run with:
//! ```text
//! cargo run --release --example model_comparison
//! ```

use congested_clique_coloring::coloring::baselines::engine_trial::EngineTrialColoring;
use congested_clique_coloring::coloring::baselines::greedy::SequentialGreedy;
use congested_clique_coloring::coloring::baselines::mis_reduction::MisReductionColoring;
use congested_clique_coloring::coloring::baselines::randomized_color_reduce;
use congested_clique_coloring::prelude::*;

struct Row {
    algorithm: &'static str,
    deterministic: bool,
    rounds: u64,
    words: u64,
    peak_local: usize,
    within_limits: bool,
}

fn row(algorithm: &'static str, deterministic: bool, report: &ExecutionReport) -> Row {
    Row {
        algorithm,
        deterministic,
        rounds: report.rounds,
        words: report.communication_words,
        peak_local: report.peak_local_words,
        within_limits: report.within_limits(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1_000;
    let graph = generators::gnp(n, 0.08, 99)?;
    let instance = ListColoringInstance::delta_plus_one(&graph)?;
    let model = ExecutionModel::congested_clique(n);
    println!(
        "instance: n={} m={} Δ={}   model: {}",
        graph.node_count(),
        graph.edge_count(),
        graph.max_degree(),
        model
    );

    let mut rows = Vec::new();

    let derand = ColorReduce::new(ColorReduceConfig::default()).run(&instance, model.clone())?;
    derand.coloring().verify(&instance)?;
    rows.push(row(
        "ColorReduce (deterministic, this paper)",
        true,
        derand.report(),
    ));

    let random = randomized_color_reduce(&instance, model.clone(), 7)?;
    random.coloring().verify(&instance)?;
    rows.push(row("ColorReduce (random seeds)", false, random.report()));

    let mis = MisReductionColoring::default().run(&instance, model.clone())?;
    mis.coloring.verify(&instance)?;
    rows.push(row("MIS-reduction coloring", true, &mis.report));

    let trial = EngineTrialColoring::default()
        .run(&instance, model.clone())?
        .outcome;
    trial.coloring.verify(&instance)?;
    rows.push(row("randomized trial coloring", false, &trial.report));

    let greedy = SequentialGreedy.run(&instance, model)?;
    greedy.coloring.verify(&instance)?;
    rows.push(row("sequential greedy (centralized)", true, &greedy.report));

    println!(
        "\n{:<42} {:>5} {:>8} {:>12} {:>12} {:>8}",
        "algorithm", "det?", "rounds", "words", "peak local", "in-model"
    );
    for r in rows {
        println!(
            "{:<42} {:>5} {:>8} {:>12} {:>12} {:>8}",
            r.algorithm,
            if r.deterministic { "yes" } else { "no" },
            r.rounds,
            r.words,
            r.peak_local,
            if r.within_limits { "yes" } else { "NO" }
        );
    }
    println!(
        "\nEvery algorithm produced a verified proper coloring; they differ in the model cost."
    );
    Ok(())
}
