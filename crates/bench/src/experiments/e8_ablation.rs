//! E8 — ablation of the derandomization machinery (Section 2.4 and
//! substitution #2 in the README's Substitutions list).
//!
//! On a fixed instance, varies the knobs of the seed search — chunk width,
//! candidates per chunk, escalation budget, hash-family independence, bin
//! exponent, and the seed strategy itself — and records the achieved cost
//! (bad nodes + 𝔫·bad bins) relative to the 𝔫/ℓ² target, the number of
//! seed candidates evaluated, and the total rounds. This quantifies what the
//! deterministic search buys over a fixed pseudorandom seed and what each
//! knob costs in rounds.

use cc_graph::generators::{GraphFamily, PaletteKind};
use cc_graph::instance::ListColoringInstance;
use clique_coloring::color_reduce::ColorReduce;
use clique_coloring::config::{ColorReduceConfig, SeedStrategy};

use crate::records::{write_json, RunRecord};
use crate::suite::InstanceSpec;
use crate::table::{fmt_f64, Table};
use crate::Scale;

use super::{clique_model, graph_stats, practical_config};

/// Runs the experiment.
pub fn run(scale: Scale) {
    let n = scale.pick(500, 1500);
    let spec = InstanceSpec::new(
        format!("gnp(n={n},p=0.25)"),
        GraphFamily::Gnp { p: 0.25 },
        n,
        PaletteKind::DeltaPlusOne,
        71,
    );
    let instance = spec.build();
    // A second instance for the baseline config only: power-law degrees
    // place almost all seed-search pressure on a few hub-heavy bins, the
    // regime where the derandomized search differs most from a fixed salt.
    let plaw_spec = InstanceSpec::new(
        format!("powerlaw(n={n})"),
        GraphFamily::PowerLaw { edges_per_node: 16 },
        n,
        PaletteKind::DegPlusOneList {
            universe: 4 * n as u64,
        },
        71,
    );
    let plaw_instance = plaw_spec.build();

    let variants: Vec<(String, ColorReduceConfig)> = vec![
        ("baseline: derand c=2, 16 cand".into(), practical_config()),
        (
            "derand c=2, 4 candidates".into(),
            ColorReduceConfig {
                seed_strategy: SeedStrategy::Derandomized {
                    chunk_bits: 61,
                    candidates_per_chunk: 4,
                    max_salts: 1,
                },
                ..practical_config()
            },
        ),
        (
            "derand c=2, 64 candidates".into(),
            ColorReduceConfig {
                seed_strategy: SeedStrategy::Derandomized {
                    chunk_bits: 61,
                    candidates_per_chunk: 64,
                    max_salts: 1,
                },
                ..practical_config()
            },
        ),
        (
            "derand c=2, 16 cand, 31-bit chunks".into(),
            ColorReduceConfig {
                seed_strategy: SeedStrategy::Derandomized {
                    chunk_bits: 31,
                    candidates_per_chunk: 16,
                    max_salts: 1,
                },
                ..practical_config()
            },
        ),
        (
            "derand c=4 (higher independence)".into(),
            ColorReduceConfig {
                independence: 4,
                ..practical_config()
            },
        ),
        (
            "derand, escalation budget 4".into(),
            ColorReduceConfig {
                seed_strategy: SeedStrategy::Derandomized {
                    chunk_bits: 61,
                    candidates_per_chunk: 16,
                    max_salts: 4,
                },
                ..practical_config()
            },
        ),
        (
            "fixed pseudorandom seed (no search)".into(),
            ColorReduceConfig {
                seed_strategy: SeedStrategy::FixedSalt { salt: 7 },
                ..practical_config()
            },
        ),
        (
            "scaled-down bin exponent β=0.4".into(),
            ColorReduceConfig {
                bin_exponent: 0.4,
                ..practical_config()
            },
        ),
    ];

    let mut table = Table::new([
        "variant",
        "rounds",
        "partition calls",
        "bad nodes",
        "bad bins",
        "Σ cost / Σ bound",
        "seed candidates",
        "max depth",
    ]);
    let mut records = Vec::new();
    let runs: Vec<(
        String,
        ColorReduceConfig,
        &InstanceSpec,
        &ListColoringInstance,
    )> = variants
        .into_iter()
        .map(|(label, config)| (label, config, &spec, &instance))
        .chain(std::iter::once((
            "baseline on power-law instance".to_string(),
            practical_config(),
            &plaw_spec,
            &plaw_instance,
        )))
        .collect();
    for (label, config, spec, instance) in runs {
        let stats = graph_stats(instance);
        let outcome = ColorReduce::new(config)
            .run(instance, clique_model(instance))
            .expect("E8 colorreduce");
        outcome.coloring().verify(instance).expect("E8 verify");
        let trace = outcome.trace();
        let partitions: Vec<_> = trace
            .calls()
            .iter()
            .filter_map(|c| c.partition.as_ref())
            .collect();
        let bad_nodes: usize = partitions.iter().map(|p| p.bad_nodes).sum();
        let bad_bins: usize = partitions.iter().map(|p| p.bad_bins).sum();
        let cost: f64 = partitions
            .iter()
            .map(|p| p.seed_outcome.achieved_cost)
            .sum();
        let bound: f64 = partitions
            .iter()
            .map(|p| p.seed_outcome.bound.max(1.0))
            .sum();
        let candidates: u64 = partitions
            .iter()
            .map(|p| p.seed_outcome.candidates_evaluated)
            .sum();
        table.row([
            label.clone(),
            outcome.rounds().to_string(),
            partitions.len().to_string(),
            bad_nodes.to_string(),
            bad_bins.to_string(),
            fmt_f64(if bound > 0.0 { cost / bound } else { 0.0 }),
            candidates.to_string(),
            trace.max_depth().to_string(),
        ]);
        records.push(
            RunRecord::from_report("E8", &spec.label, &label, stats, outcome.report())
                .with_extra("bad_nodes", bad_nodes as f64)
                .with_extra("bad_bins", bad_bins as f64)
                .with_extra(
                    "cost_over_bound",
                    if bound > 0.0 { cost / bound } else { 0.0 },
                )
                .with_extra("candidates", candidates as f64)
                .with_extra("max_depth", trace.max_depth() as f64),
        );
    }
    table.print(&format!(
        "E8  ablation of the seed search (n={n}, base instance {}, power-law check {})",
        spec.label, plaw_spec.label
    ));
    write_json("e8_ablation", &records);
}
