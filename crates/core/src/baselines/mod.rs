//! Baseline algorithms the paper's result is compared against
//! (experiment E7).
//!
//! * [`greedy::SequentialGreedy`] — collect everything on one machine and
//!   color greedily; the correctness ground truth and the "no distribution
//!   at all" extreme.
//! * [`engine_trial::EngineTrialColoring`] — the classic randomized
//!   conflict-retry coloring (O(log 𝔫) rounds w.h.p.), representing simple
//!   randomized distributed coloring. It runs on the `cc-runtime`
//!   message-passing engine, so its report counts real message words.
//! * [`mis_reduction::MisReductionColoring`] — deterministic coloring via
//!   the Luby reduction to MIS plus the derandomized Luby MIS; an
//!   O(log)-round deterministic baseline in the spirit of
//!   Censor-Hillel–Parter–Schwartzman.
//! * The *randomized* variant of `ColorReduce` itself (random hash seeds, no
//!   conditional-expectations search) is obtained by running
//!   [`crate::color_reduce::ColorReduce`] with
//!   [`crate::config::SeedStrategy::FixedSalt`]; see
//!   [`randomized_color_reduce`].

pub mod engine_trial;
pub mod greedy;
pub mod mis_reduction;

use cc_graph::coloring::Coloring;
use cc_graph::instance::ListColoringInstance;
use cc_sim::report::ExecutionReport;
use cc_sim::ExecutionModel;

use crate::color_reduce::{ColorReduce, ColorReduceOutcome};
use crate::config::{ColorReduceConfig, SeedStrategy};
use crate::error::CoreError;

/// A baseline execution result: the coloring plus the simulator report.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// Short algorithm name for result tables.
    pub name: String,
    /// The coloring produced (verified by the caller or the tests).
    pub coloring: Coloring,
    /// The simulator's ledger.
    pub report: ExecutionReport,
}

/// Runs `ColorReduce` with random (fixed-salt) hash seeds instead of the
/// derandomized selection — the randomized algorithm the paper derandomizes.
///
/// # Errors
///
/// Same failure modes as [`ColorReduce::run`].
pub fn randomized_color_reduce(
    instance: &ListColoringInstance,
    model: ExecutionModel,
    salt: u64,
) -> Result<ColorReduceOutcome, CoreError> {
    let config = ColorReduceConfig {
        seed_strategy: SeedStrategy::FixedSalt { salt },
        ..ColorReduceConfig::default()
    };
    ColorReduce::new(config).run(instance, model)
}

pub(crate) fn outcome(name: &str, coloring: Coloring, report: ExecutionReport) -> BaselineOutcome {
    BaselineOutcome {
        name: name.to_string(),
        coloring,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators;

    #[test]
    fn randomized_color_reduce_produces_valid_coloring() {
        let graph = generators::gnp(120, 0.2, 3).unwrap();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        let outcome =
            randomized_color_reduce(&instance, ExecutionModel::congested_clique(120), 7).unwrap();
        outcome.coloring().verify(&instance).unwrap();
    }

    #[test]
    fn randomized_variant_uses_fewer_rounds_than_derandomized() {
        let graph = generators::gnp(200, 0.35, 5).unwrap();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        let random =
            randomized_color_reduce(&instance, ExecutionModel::congested_clique(200), 7).unwrap();
        let derand = ColorReduce::new(ColorReduceConfig {
            seed_strategy: SeedStrategy::Derandomized {
                chunk_bits: 61,
                candidates_per_chunk: 8,
                max_salts: 1,
            },
            independence: 2,
            ..ColorReduceConfig::default()
        })
        .run(&instance, ExecutionModel::congested_clique(200))
        .unwrap();
        // Derandomization costs extra rounds (the seed search), never fewer.
        assert!(derand.rounds() >= random.rounds());
    }
}
