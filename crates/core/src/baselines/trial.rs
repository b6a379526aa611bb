//! Randomized trial-and-retry coloring — the classic O(log 𝔫)-round
//! randomized distributed baseline.

use cc_graph::coloring::Coloring;
use cc_graph::instance::ListColoringInstance;
use cc_graph::{Color, NodeId};
use cc_sim::{ClusterContext, ExecutionModel};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::CoreError;
use crate::local_color::{color_greedily, update_palettes_from_neighbors};

use super::{outcome, BaselineOutcome};

/// Simulated rounds charged per trial phase (one tentative-color exchange,
/// one conflict resolution).
pub const TRIAL_PHASE_ROUNDS: u64 = 2;

/// Randomized trial coloring: every uncolored node proposes a uniformly
/// random color from its remaining palette; proposals that clash with a
/// neighbor's proposal or with an already-colored neighbor are dropped and
/// retried next phase. A constant fraction of nodes succeeds per phase in
/// expectation, giving O(log 𝔫) phases w.h.p.
#[derive(Debug, Clone, Copy)]
pub struct RandomizedTrialColoring {
    /// Cap on phases before the leftovers are colored greedily (a safety
    /// valve, never reached in the experiments).
    pub max_phases: u64,
}

impl Default for RandomizedTrialColoring {
    fn default() -> Self {
        RandomizedTrialColoring { max_phases: 1000 }
    }
}

impl RandomizedTrialColoring {
    /// Runs the baseline with randomness from `rng`.
    ///
    /// # Errors
    ///
    /// Fails only if the instance itself is invalid.
    pub fn run(
        &self,
        instance: &ListColoringInstance,
        model: ExecutionModel,
        rng: &mut impl Rng,
    ) -> Result<BaselineOutcome, CoreError> {
        instance.validate()?;
        let graph = instance.graph();
        let n = graph.node_count();
        let mut ctx = ClusterContext::new(model);
        let mut coloring = Coloring::empty(n);
        let mut palettes = instance.palettes().to_vec();
        let mut uncolored: Vec<NodeId> = graph.nodes().collect();
        let mut phases = 0u64;
        while !uncolored.is_empty() && phases < self.max_phases {
            phases += 1;
            ctx.charge_rounds("trial", TRIAL_PHASE_ROUNDS);
            // Tentative proposals.
            let mut proposal: Vec<Option<Color>> = vec![None; n];
            for &v in &uncolored {
                let choices = palettes[v.index()].to_vec();
                proposal[v.index()] = choices.choose(rng).copied();
            }
            // Keep proposals that clash with no neighbor proposal and no
            // already-colored neighbor.
            for &v in &uncolored {
                let Some(c) = proposal[v.index()] else {
                    continue;
                };
                let clash = graph.neighbors(v).any(|u| {
                    coloring.color_of(u) == Some(c) || (proposal[u.index()] == Some(c) && u < v)
                });
                if !clash {
                    coloring.assign(v, c)?;
                }
            }
            // Update palettes of the remaining nodes.
            uncolored.retain(|&v| !coloring.is_colored(v));
            update_palettes_from_neighbors(graph, &mut palettes, &coloring, &uncolored);
        }
        if !uncolored.is_empty() {
            // Safety valve: finish deterministically.
            color_greedily(graph, &palettes, &mut coloring, &uncolored)?;
        }
        Ok(outcome("randomized-trial", coloring, ctx.report()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators::{self, instance_with_palettes, PaletteKind};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn trial_coloring_is_proper_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for seed in 0..4 {
            let graph = generators::gnp(120, 0.1, seed).unwrap();
            let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
            let out = RandomizedTrialColoring::default()
                .run(&instance, ExecutionModel::congested_clique(120), &mut rng)
                .unwrap();
            out.coloring.verify(&instance).unwrap();
            assert!(out.report.rounds >= TRIAL_PHASE_ROUNDS);
        }
    }

    #[test]
    fn trial_coloring_handles_list_palettes() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let graph = generators::gnp(90, 0.15, 4).unwrap();
        let instance =
            instance_with_palettes(&graph, PaletteKind::DeltaPlusOneList { universe: 3000 }, 8)
                .unwrap();
        let out = RandomizedTrialColoring::default()
            .run(&instance, ExecutionModel::congested_clique(90), &mut rng)
            .unwrap();
        out.coloring.verify(&instance).unwrap();
    }

    #[test]
    fn phase_cap_falls_back_to_greedy() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let graph = generators::gnp(60, 0.3, 2).unwrap();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        let out = RandomizedTrialColoring { max_phases: 0 }
            .run(&instance, ExecutionModel::congested_clique(60), &mut rng)
            .unwrap();
        out.coloring.verify(&instance).unwrap();
    }

    #[test]
    fn phase_count_grows_slowly_with_n() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let graph = generators::gnp(400, 0.05, 6).unwrap();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        let out = RandomizedTrialColoring::default()
            .run(&instance, ExecutionModel::congested_clique(400), &mut rng)
            .unwrap();
        out.coloring.verify(&instance).unwrap();
        let phases = out.report.rounds / TRIAL_PHASE_ROUNDS;
        assert!(phases <= 60, "unexpectedly many phases: {phases}");
    }
}
