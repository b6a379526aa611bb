//! E1 — Theorem 1.1: round complexity of deterministic (Δ+1)-list coloring.
//!
//! Two panels:
//!
//! * rounds as a function of 𝔫 at fixed maximum degree, for `ColorReduce`
//!   and the baselines — the paper predicts a flat line for `ColorReduce`,
//!   while the baselines grow. At `--quick` sizes (𝔫 = 300–1200) the
//!   baselines do not grow either (the randomized trial coloring reads 2–6
//!   rounds in no order of 𝔫), so the table's title names what it measures,
//!   not the prediction;
//! * rounds as a function of Δ at fixed 𝔫 — the paper's constant is really a
//!   function of the recursion depth (≤ 9 in its asymptotic regime); at
//!   laptop scale the depth is governed by `log(Δ)` until ⌊ℓ^0.1⌋ ≥ 2, and
//!   the measured growth is compared against that prediction.

use cc_graph::generators::{GraphFamily, PaletteKind};
use clique_coloring::baselines::engine_trial::EngineTrialColoring;
use clique_coloring::baselines::mis_reduction::MisReductionColoring;
use clique_coloring::color_reduce::ColorReduce;

use crate::records::{write_json, RunRecord};
use crate::suite::InstanceSpec;
use crate::table::Table;
use crate::Scale;

use super::{clique_model, graph_stats, practical_config};

/// Runs the experiment.
pub fn run(scale: Scale) {
    rounds_vs_n(scale);
    rounds_vs_delta(scale);
}

fn rounds_vs_n(scale: Scale) {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![300, 600, 1200],
        Scale::Full => vec![500, 1000, 2000, 4000, 8000],
    };
    let degree = 96;
    let mut table = Table::new([
        "instance",
        "Δ",
        "ColorReduce",
        "random-seed CR",
        "MIS-reduction",
        "rand-trial",
    ]);
    let mut records = Vec::new();
    // Per size, one near-regular instance (the paper's fixed-Δ reading of
    // Theorem 1.1) and one power-law instance: Δ grows with n there, yet
    // the round count should stay governed by the recursion depth alone.
    let specs: Vec<InstanceSpec> = sizes
        .iter()
        .flat_map(|&n| {
            [
                InstanceSpec::new(
                    format!("regular(n={n})"),
                    GraphFamily::NearRegular { degree },
                    n,
                    PaletteKind::DeltaPlusOne,
                    9,
                ),
                InstanceSpec::new(
                    format!("powerlaw(n={n})"),
                    GraphFamily::PowerLaw { edges_per_node: 16 },
                    n,
                    PaletteKind::DegPlusOneList {
                        universe: 4 * n as u64,
                    },
                    9,
                ),
            ]
        })
        .collect();
    for spec in &specs {
        let instance = spec.build();
        let stats = graph_stats(&instance);
        let derand = ColorReduce::new(practical_config())
            .run(&instance, clique_model(&instance))
            .expect("E1 colorreduce");
        derand.coloring().verify(&instance).expect("E1 verify");
        let random = clique_coloring::baselines::randomized_color_reduce(
            &instance,
            clique_model(&instance),
            3,
        )
        .expect("E1 random");
        let mis = MisReductionColoring::default()
            .run(&instance, clique_model(&instance))
            .expect("E1 mis");
        let trial = EngineTrialColoring::default()
            .run(&instance, clique_model(&instance))
            .expect("E1 trial")
            .outcome;
        table.row([
            spec.label.clone(),
            stats.2.to_string(),
            derand.rounds().to_string(),
            random.rounds().to_string(),
            mis.report.rounds.to_string(),
            trial.report.rounds.to_string(),
        ]);
        records.push(RunRecord::from_report(
            "E1",
            &spec.label,
            "color-reduce",
            stats,
            derand.report(),
        ));
        records.push(RunRecord::from_report(
            "E1",
            &spec.label,
            "color-reduce-random",
            stats,
            random.report(),
        ));
        records.push(RunRecord::from_report(
            "E1",
            &spec.label,
            "mis-reduction",
            stats,
            &mis.report,
        ));
        records.push(RunRecord::from_report(
            "E1",
            &spec.label,
            "randomized-trial",
            stats,
            &trial.report,
        ));
    }
    table.print("E1a  rounds vs n (fixed-Δ regular + power-law): ColorReduce and the baselines");
    write_json("e1_rounds_vs_n", &records);
}

fn rounds_vs_delta(scale: Scale) {
    let n = scale.pick(800, 2000);
    let densities: Vec<f64> = match scale {
        Scale::Quick => vec![0.05, 0.15, 0.4],
        Scale::Full => vec![0.02, 0.05, 0.1, 0.2, 0.4, 0.8],
    };
    let mut table = Table::new([
        "n",
        "Δ",
        "rounds",
        "recursion depth",
        "depth bound (theory)",
    ]);
    let mut records = Vec::new();
    for &p in &densities {
        let spec = InstanceSpec::new(
            format!("gnp(n={n},p={p})"),
            GraphFamily::Gnp { p },
            n,
            PaletteKind::DeltaPlusOne,
            5,
        );
        let instance = spec.build();
        let stats = graph_stats(&instance);
        let outcome = ColorReduce::new(practical_config())
            .run(&instance, clique_model(&instance))
            .expect("E1b colorreduce");
        outcome.coloring().verify(&instance).expect("E1b verify");
        let depth = outcome.trace().max_depth();
        // With forced halving the degree parameter shrinks at least
        // geometrically, so depth ≤ log2(Δ) + 1 always; the paper's regime
        // caps it at 9 (Lemma 3.14).
        let bound = ((stats.2.max(2) as f64).log2().ceil() as usize + 1)
            .min(clique_coloring::theory::guaranteed_collection_depth(0.9) as usize + 9);
        table.row([
            n.to_string(),
            stats.2.to_string(),
            outcome.rounds().to_string(),
            depth.to_string(),
            bound.to_string(),
        ]);
        records.push(
            RunRecord::from_report("E1", &spec.label, "color-reduce", stats, outcome.report())
                .with_extra("depth", depth as f64),
        );
    }
    table.print("E1b  rounds vs Δ (fixed n): growth follows the recursion depth, not n");
    write_json("e1_rounds_vs_delta", &records);
}
