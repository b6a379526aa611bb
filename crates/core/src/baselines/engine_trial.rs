//! The randomized trial coloring, executed on the `cc-runtime` engine.
//!
//! It returns what every baseline returns — a proper list coloring plus an
//! [`cc_sim::ExecutionReport`] — but no loop *charges* rounds: every node
//! runs as an independent [`cc_runtime::NodeProgram`] exchanging real
//! messages, with budgets checked at delivery time and step functions
//! running in parallel. The report's rounds are the engine rounds that
//! carried messages, and its words are the words delivered. The returned
//! [`cc_runtime::MessageLedger`] is the determinism witness: identical
//! seeds give identical ledgers for any thread count.

use cc_graph::coloring::Coloring;
use cc_graph::instance::ListColoringInstance;
use cc_graph::{Color, NodeId};
use cc_runtime::programs::trial::TrialColoringProgram;
use cc_runtime::{
    Engine, EngineConfig, EngineHealth, EngineOutcome, MessageLedger, ServiceRequest,
};
use cc_sim::ExecutionModel;

use crate::error::CoreError;
use crate::local_color::color_greedily;

use super::{outcome, BaselineOutcome};

/// Trial coloring on the message-passing engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineTrialColoring {
    /// Worker threads stepping nodes each round.
    pub threads: usize,
    /// Seed for the per-node randomness (an execution is fully determined
    /// by it).
    pub seed: u64,
    /// Engine round cap; leftovers are colored greedily (a safety valve).
    pub max_rounds: u64,
}

impl Default for EngineTrialColoring {
    fn default() -> Self {
        EngineTrialColoring {
            threads: 1,
            seed: 0x5eed,
            max_rounds: 2_000,
        }
    }
}

/// A baseline outcome plus the engine's determinism ledger.
#[must_use = "the outcome carries the coloring, report, and determinism ledger"]
#[derive(Debug, Clone)]
pub struct EngineTrialOutcome {
    /// The coloring and execution report, shaped like every other baseline.
    pub outcome: BaselineOutcome,
    /// The engine's message ledger (digest + per-round loads).
    pub ledger: MessageLedger,
    /// Engine rounds executed (including communication-free ones).
    pub engine_rounds: u64,
    /// Fault-injection and recovery health (all zeros when fault-free).
    pub health: EngineHealth,
    /// Nodes the deterministic greedy pass colored or re-colored after the
    /// engine stopped: round-cap leftovers, crashed nodes, and (on degraded
    /// runs) nodes whose committed color conflicted with a neighbor's.
    pub recolored_nodes: usize,
}

impl EngineTrialColoring {
    /// Runs the baseline on a fresh engine: its
    /// [`EngineTrialColoring::service_request`], run by
    /// `Engine::new(request.config)`, finished by
    /// [`EngineTrialColoring::assemble`].
    ///
    /// # Errors
    ///
    /// Fails if the instance is invalid or (for leftover nodes after the
    /// round cap) greedy completion fails.
    pub fn run(
        &self,
        instance: &ListColoringInstance,
        model: ExecutionModel,
    ) -> Result<EngineTrialOutcome, CoreError> {
        let request = self.service_request(instance, model)?;
        let run = Engine::new(request.config).run(request.model, request.programs)?;
        self.assemble(instance, run)
    }

    /// Packages the baseline as a [`ServiceRequest`]: one
    /// [`TrialColoringProgram`] per node, under this baseline's threads,
    /// round cap, and label. Each program gets a clone of its node's
    /// instance palette, which copies no colors: a range palette is three
    /// words, and a list palette shares its list through an `Arc`. Submit
    /// the request to a [`cc_runtime::ColoringService`] or run it on
    /// `Engine::new(request.config)`, with a recorder or fault plan
    /// attached if wanted, then finish through
    /// [`EngineTrialColoring::assemble`]. A recorder captures the run
    /// without changing the coloring, report, or ledger; under a fault
    /// plan, damaged rounds are retried from checkpoints and crashed or
    /// conflicted nodes are recolored greedily, so the coloring is always
    /// proper — `health` and `recolored_nodes` say what the run survived.
    ///
    /// # Errors
    ///
    /// Fails if the instance is invalid.
    pub fn service_request(
        &self,
        instance: &ListColoringInstance,
        model: ExecutionModel,
    ) -> Result<ServiceRequest<Option<u64>>, CoreError> {
        instance.validate()?;
        let graph = instance.graph();
        let programs = graph
            .nodes()
            .map(|v| {
                let neighbors: Vec<u32> = graph.neighbor_slice(v).iter().map(|u| u.0).collect();
                let palette = instance.palette(v).clone();
                Box::new(TrialColoringProgram::new(
                    v.0, neighbors, palette, self.seed,
                )) as _
            })
            .collect();
        Ok(
            ServiceRequest::new(model, programs).with_config(EngineConfig {
                threads: self.threads,
                max_rounds: self.max_rounds,
                label: "engine-trial".to_string(),
                ..EngineConfig::default()
            }),
        )
    }

    /// Turns a raw engine outcome (solo or batched) for this baseline's
    /// programs into the baseline-shaped [`EngineTrialOutcome`]: extracts
    /// the coloring, repairs conflicts on degraded runs, completes
    /// round-cap leftovers greedily, and trims the ledger to the rounds it
    /// recorded ([`MessageLedger::trim`]).
    ///
    /// # Errors
    ///
    /// Fails if greedy completion of leftover nodes fails.
    pub fn assemble(
        &self,
        instance: &ListColoringInstance,
        run: EngineOutcome<Option<u64>>,
    ) -> Result<EngineTrialOutcome, CoreError> {
        let graph = instance.graph();
        let n = graph.node_count();
        let mut coloring = Coloring::empty(n);
        let mut uncolored = Vec::new();
        for (i, output) in run.outputs.iter().enumerate() {
            let v = NodeId::from_index(i);
            match output {
                Some(c) => {
                    // On a degraded execution (committed damage or crashed
                    // nodes) two neighbors can end up agreeing on a color;
                    // demote the larger-id endpoint of every conflicting
                    // edge to the greedy repair below.
                    let conflicted = run.health.degraded
                        && graph
                            .neighbor_slice(v)
                            .iter()
                            .any(|u| u.index() < i && run.outputs[u.index()] == Some(*c));
                    if conflicted {
                        uncolored.push(v);
                    } else {
                        coloring.assign(v, Color(*c))?;
                    }
                }
                None => uncolored.push(v),
            }
        }
        // Round cap hit (or repair needed): finish deterministically, in
        // id order with the smallest palette color no colored neighbor
        // holds.
        color_greedily(graph, instance.palettes(), &mut coloring, &uncolored)?;
        let mut ledger = run.ledger;
        ledger.trim();
        Ok(EngineTrialOutcome {
            outcome: outcome("engine-trial", coloring, run.report),
            ledger,
            engine_rounds: run.rounds,
            health: run.health,
            recolored_nodes: uncolored.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::generators::{self, instance_with_palettes, PaletteKind};
    use cc_runtime::trace::RingRecorder;
    use cc_runtime::FaultPlan;
    use std::sync::Arc;

    #[test]
    fn engine_trial_colors_random_graphs_properly() {
        let inputs = [
            (120, 0.08, 0),
            (120, 0.08, 1),
            (120, 0.08, 2),
            (400, 0.05, 6),
        ];
        for (n, p, seed) in inputs {
            let graph = generators::gnp(n, p, seed).unwrap();
            let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
            let out = EngineTrialColoring::default()
                .run(&instance, ExecutionModel::congested_clique(n))
                .unwrap();
            out.outcome.coloring.verify(&instance).unwrap();
            assert_eq!(out.outcome.name, "engine-trial");
            assert!(out.outcome.report.within_limits());
            assert!(out.outcome.report.rounds > 0);
            assert!(out.ledger.total_messages() > 0);
            // O(log n) phases of two rounds each: 60 phases at most, all
            // finished by the protocol rather than the greedy safety valve.
            assert!(out.engine_rounds <= 120, "n {n}: {}", out.engine_rounds);
            assert_eq!(out.recolored_nodes, 0, "n {n}");
        }
    }

    #[test]
    fn engine_trial_handles_list_palettes() {
        let graph = generators::gnp(90, 0.15, 4).unwrap();
        let instance =
            instance_with_palettes(&graph, PaletteKind::DeltaPlusOneList { universe: 3000 }, 8)
                .unwrap();
        let out = EngineTrialColoring::default()
            .run(&instance, ExecutionModel::congested_clique(90))
            .unwrap();
        out.outcome.coloring.verify(&instance).unwrap();
    }

    #[test]
    fn thread_count_leaves_coloring_and_ledger_unchanged() {
        let graph = generators::gnp(140, 0.1, 9).unwrap();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        let model = ExecutionModel::congested_clique(140);
        let single = EngineTrialColoring::default()
            .run(&instance, model.clone())
            .unwrap();
        for threads in [2, 6] {
            let multi = EngineTrialColoring {
                threads,
                ..EngineTrialColoring::default()
            }
            .run(&instance, model.clone())
            .unwrap();
            assert_eq!(single.outcome.coloring, multi.outcome.coloring);
            assert_eq!(single.ledger, multi.ledger);
            assert_eq!(single.outcome.report, multi.outcome.report);
        }
    }

    #[test]
    fn recorded_run_matches_plain_run_and_fills_the_recorder() {
        let graph = generators::gnp(100, 0.1, 3).unwrap();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        let model = ExecutionModel::congested_clique(100);
        let plain = EngineTrialColoring::default()
            .run(&instance, model.clone())
            .unwrap();
        let recorder = Arc::new(RingRecorder::default());
        let algo = EngineTrialColoring::default();
        let request = algo.service_request(&instance, model).unwrap();
        let run = Engine::new(request.config)
            .with_recorder(Arc::clone(&recorder))
            .run(request.model, request.programs)
            .unwrap();
        let traced = algo.assemble(&instance, run).unwrap();
        assert_eq!(plain.outcome.coloring, traced.outcome.coloring);
        assert_eq!(plain.ledger, traced.ledger);
        let summary = recorder.summary();
        assert_eq!(summary.rounds.len() as u64, traced.engine_rounds);
        assert!(recorder.recorded_events() > 0);
    }

    #[test]
    fn faulted_runs_recover_the_fault_free_coloring_and_ledger() {
        let graph = generators::gnp(110, 0.07, 6).unwrap();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        let model = ExecutionModel::congested_clique(110);
        let clean = EngineTrialColoring::default()
            .run(&instance, model.clone())
            .unwrap();
        for threads in [1, 4] {
            let plan = FaultPlan::new(0xc0de)
                .with_drop(25)
                .with_duplicate(15)
                .with_corrupt(15);
            let algo = EngineTrialColoring {
                threads,
                ..EngineTrialColoring::default()
            };
            let request = algo.service_request(&instance, model.clone()).unwrap();
            let run = Engine::new(request.config)
                .with_faults(plan)
                .run(request.model, request.programs)
                .unwrap();
            let faulted = algo.assemble(&instance, run).unwrap();
            assert!(faulted.health.faults_injected > 0, "threads {threads}");
            assert!(!faulted.health.degraded, "threads {threads}");
            assert_eq!(faulted.recolored_nodes, 0, "threads {threads}");
            assert_eq!(
                faulted.outcome.coloring, clean.outcome.coloring,
                "threads {threads}"
            );
            assert_eq!(faulted.ledger, clean.ledger, "threads {threads}");
        }
    }

    #[test]
    fn crashed_nodes_are_repaired_to_a_proper_coloring() {
        let graph = generators::gnp(90, 0.1, 12).unwrap();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        // Round-0 crashes: a later round could miss a node that has
        // already colored itself and halted (halted nodes cannot crash).
        let plan = FaultPlan::new(3)
            .with_crash(4, 0)
            .with_crash(31, 0)
            .with_crash(70, 0);
        let algo = EngineTrialColoring {
            threads: 2,
            ..EngineTrialColoring::default()
        };
        let request = algo
            .service_request(&instance, ExecutionModel::congested_clique(90))
            .unwrap();
        let run = Engine::new(request.config)
            .with_faults(plan)
            .run(request.model, request.programs)
            .unwrap();
        let out = algo.assemble(&instance, run).unwrap();
        assert!(out.health.degraded);
        assert_eq!(out.health.crashed_nodes, 3);
        assert!(out.recolored_nodes > 0);
        // The repair pass leaves a proper list coloring regardless.
        out.outcome.coloring.verify(&instance).unwrap();
    }

    #[test]
    fn batched_service_runs_match_solo_runs() {
        use cc_runtime::{ColoringService, ServiceConfig};
        let algo = EngineTrialColoring::default();
        let instances: Vec<_> = (0..4)
            .map(|seed| generators::gnp(40 + 10 * seed as usize, 0.1, seed).unwrap())
            .chain([generators::power_law(64, 8, 4).unwrap()])
            .map(|graph| ListColoringInstance::delta_plus_one(&graph).unwrap())
            .collect();
        for threads in [1, 2] {
            let mut service = ColoringService::new(ServiceConfig { slots: 2, threads });
            for instance in &instances {
                let model = ExecutionModel::congested_clique(instance.graph().node_count());
                service.submit(algo.service_request(instance, model).unwrap());
            }
            let mut outcomes = service.run_until_idle();
            outcomes.sort_by_key(|o| o.id);
            for (instance, outcome) in instances.iter().zip(outcomes) {
                let model = ExecutionModel::congested_clique(instance.graph().node_count());
                let solo = algo.run(instance, model).unwrap();
                let batched = algo.assemble(instance, outcome.result.unwrap()).unwrap();
                assert_eq!(batched.outcome.coloring, solo.outcome.coloring);
                assert_eq!(batched.ledger, solo.ledger);
                assert_eq!(batched.outcome.report, solo.outcome.report);
                assert_eq!(batched.engine_rounds, solo.engine_rounds);
            }
        }
    }

    #[test]
    fn round_cap_falls_back_to_greedy_completion() {
        let graph = generators::gnp(60, 0.3, 2).unwrap();
        let instance = ListColoringInstance::delta_plus_one(&graph).unwrap();
        // Capped after the first propose round (nothing colored yet) and
        // after the first resolve round (some nodes colored, some not).
        for max_rounds in [1, 2] {
            let algo = EngineTrialColoring {
                max_rounds,
                ..EngineTrialColoring::default()
            };
            let request = algo
                .service_request(&instance, ExecutionModel::congested_clique(60))
                .unwrap();
            let run = Engine::new(request.config)
                .run(request.model, request.programs)
                .unwrap();
            let engine_colors = run.outputs.clone();
            let out = algo.assemble(&instance, run).unwrap();
            out.outcome.coloring.verify(&instance).unwrap();
            assert_eq!(out.engine_rounds, max_rounds);
            // In id order, each node the engine left uncolored takes the
            // smallest color of its palette that no neighbor colored before
            // it (by the engine, or earlier in this pass) holds.
            let left: Vec<NodeId> = graph
                .nodes()
                .filter(|v| engine_colors[v.index()].is_none())
                .collect();
            assert!(!left.is_empty());
            assert_eq!(out.recolored_nodes, left.len());
            let coloring = &out.outcome.coloring;
            for &v in &left {
                let held: Vec<Color> = graph
                    .neighbors(v)
                    .filter(|&u| engine_colors[u.index()].is_some() || u < v)
                    .filter_map(|u| coloring.color_of(u))
                    .collect();
                let smallest = instance.palette(v).iter().find(|c| !held.contains(c));
                assert_eq!(coloring.color_of(v), smallest, "node {v}");
            }
        }
    }
}
