//! Luby's randomized MIS, executed on the `cc-runtime` message-passing
//! engine.
//!
//! Every node runs [`cc_runtime::programs::luby::LubyMisProgram`] and the
//! engine routes actual priority/join/leave messages (three engine rounds
//! per phase) with bandwidth and message-width budgets checked at delivery
//! time. Its selection rule is the one [`crate::derand`] applies to hashed
//! priorities.

use cc_graph::csr::CsrGraph;
use cc_runtime::programs::luby::LubyMisProgram;
use cc_runtime::{
    word_bits_limit, Engine, EngineConfig, EngineHealth, EngineOutcome, MessageLedger,
    ServiceRequest,
};
use cc_sim::{ExecutionModel, ExecutionReport, SimError};

use crate::MisResult;

/// Engine rounds per Luby phase (priority, decide, leave).
pub const ENGINE_ROUNDS_PER_PHASE: u64 = 3;

/// Luby MIS on the message-passing engine.
#[derive(Debug, Clone, Copy)]
pub struct EngineLubyMis {
    /// Worker threads stepping nodes each round.
    pub threads: usize,
    /// Seed for the per-node priority streams.
    pub seed: u64,
    /// Engine round cap (the algorithm terminates w.h.p. in O(log 𝔫)
    /// phases; the cap is a safety valve).
    pub max_rounds: u64,
}

impl Default for EngineLubyMis {
    fn default() -> Self {
        EngineLubyMis {
            threads: 1,
            seed: 0x1b1,
            max_rounds: 30_000,
        }
    }
}

/// An MIS result plus the engine's accounting and determinism ledgers.
#[must_use = "the outcome carries the MIS, report, and determinism ledger"]
#[derive(Debug, Clone)]
pub struct EngineMisOutcome {
    /// The independent set and phase count, shaped like the other MIS
    /// algorithms' results.
    pub result: MisResult,
    /// The model-accounting read-out.
    pub report: ExecutionReport,
    /// The engine's message ledger (digest + per-round loads).
    pub ledger: MessageLedger,
    /// Fault-injection and recovery health (all zeros when fault-free).
    pub health: EngineHealth,
}

impl EngineLubyMis {
    /// Runs the algorithm on `graph` under `model` on a fresh engine: its
    /// [`EngineLubyMis::service_request`], run by
    /// `Engine::new(request.config)`, finished by
    /// [`EngineLubyMis::assemble`].
    ///
    /// # Errors
    ///
    /// Never fails: the request's configuration records model violations
    /// in the report instead of failing fast. The `Result` is
    /// [`Engine::run`]'s.
    pub fn run(
        &self,
        graph: &CsrGraph,
        model: ExecutionModel,
    ) -> Result<EngineMisOutcome, SimError> {
        let request = self.service_request(graph, model);
        let run = Engine::new(request.config).run(request.model, request.programs)?;
        Ok(self.assemble(graph, run))
    }

    /// Packages the algorithm as a [`ServiceRequest`]: one
    /// [`LubyMisProgram`] per node, under this algorithm's threads, round
    /// cap, and label. Submit it to a [`cc_runtime::ColoringService`] or
    /// run it on `Engine::new(request.config)`, with a recorder or fault
    /// plan attached if wanted, then finish through
    /// [`EngineLubyMis::assemble`]. A recorder captures the run without
    /// changing the MIS, report, or ledger; under a fault plan, damaged
    /// rounds are retried from checkpoints and degraded runs are
    /// repaired (adjacent joiners evicted, then greedy completion), so the
    /// set is always a valid MIS — `health` says what the run survived.
    pub fn service_request(
        &self,
        graph: &CsrGraph,
        model: ExecutionModel,
    ) -> ServiceRequest<Option<bool>> {
        let bits = word_bits_limit(graph.node_count());
        let programs = graph
            .nodes()
            .map(|v| {
                let neighbors: Vec<u32> = graph.neighbor_slice(v).iter().map(|u| u.0).collect();
                Box::new(LubyMisProgram::new(v.0, neighbors, bits, self.seed)) as _
            })
            .collect();
        ServiceRequest::new(model, programs).with_config(EngineConfig {
            threads: self.threads,
            max_rounds: self.max_rounds,
            label: "engine-luby".to_string(),
            ..EngineConfig::default()
        })
    }

    /// Turns a raw engine outcome (solo or batched) for this algorithm's
    /// programs into the [`EngineMisOutcome`]: decides undecided nodes,
    /// repairs degraded runs, restores maximality greedily, and trims the
    /// ledger to the rounds it recorded ([`cc_runtime::MessageLedger::trim`]).
    pub fn assemble(&self, graph: &CsrGraph, run: EngineOutcome<Option<bool>>) -> EngineMisOutcome {
        // If the round cap cut the protocol short, some nodes are still
        // undecided (`None`): complete deterministically by greedily joining
        // undecided nodes in id order. A completed run has no `None`s and is
        // returned verbatim.
        let mut in_set: Vec<bool> = run.outputs.iter().map(|o| o.unwrap_or(false)).collect();
        if run.health.degraded {
            // Committed damage or crash-stops can leave two adjacent
            // joiners; evict the larger-id endpoint of every such edge so
            // the completion below restores independence, then maximality.
            for i in 0..in_set.len() {
                if in_set[i]
                    && graph
                        .neighbor_slice(cc_graph::NodeId::from_index(i))
                        .iter()
                        .any(|u| u.index() < i && in_set[u.index()])
                {
                    in_set[i] = false;
                }
            }
        }
        for (i, output) in run.outputs.iter().enumerate() {
            if (output.is_none() || (run.health.degraded && !in_set[i]))
                && !graph
                    .neighbors(cc_graph::NodeId::from_index(i))
                    .any(|u| in_set[u.index()])
            {
                in_set[i] = true;
            }
        }
        let mut ledger = run.ledger;
        ledger.trim();
        EngineMisOutcome {
            result: MisResult {
                in_set,
                phases: run.rounds.div_ceil(ENGINE_ROUNDS_PER_PHASE),
            },
            report: run.report,
            ledger,
            health: run.health,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_mis;
    use cc_graph::generators;
    use cc_runtime::trace::RingRecorder;
    use cc_runtime::FaultPlan;
    use std::sync::Arc;

    #[test]
    fn engine_luby_produces_valid_mis_on_random_graphs() {
        let inputs = [
            (120, 0.08, 0),
            (120, 0.08, 1),
            (120, 0.08, 2),
            (120, 0.08, 3),
            (500, 0.05, 3),
        ];
        for (n, p, seed) in inputs {
            let g = generators::gnp(n, p, seed).unwrap();
            let out = EngineLubyMis::default()
                .run(&g, ExecutionModel::congested_clique(n))
                .unwrap();
            verify_mis(&g, &out.result.in_set).unwrap();
            assert!(out.result.phases >= 1);
            // O(log n) phases in practice.
            assert!(out.result.phases <= 40, "n {n}: {}", out.result.phases);
            assert!(out.report.within_limits());
        }
    }

    #[test]
    fn engine_luby_is_deterministic_across_thread_counts() {
        let g = generators::gnp(150, 0.06, 7).unwrap();
        let model = ExecutionModel::congested_clique(150);
        let single = EngineLubyMis::default().run(&g, model.clone()).unwrap();
        for threads in [2, 5] {
            let multi = EngineLubyMis {
                threads,
                ..EngineLubyMis::default()
            }
            .run(&g, model.clone())
            .unwrap();
            assert_eq!(single.result, multi.result);
            assert_eq!(single.ledger, multi.ledger);
            assert_eq!(single.report, multi.report);
        }
    }

    #[test]
    fn recorded_run_matches_plain_run_and_fills_the_recorder() {
        let g = generators::gnp(100, 0.08, 11).unwrap();
        let model = ExecutionModel::congested_clique(100);
        let plain = EngineLubyMis::default().run(&g, model.clone()).unwrap();
        let recorder = Arc::new(RingRecorder::default());
        let algo = EngineLubyMis::default();
        let request = algo.service_request(&g, model);
        let run = Engine::new(request.config)
            .with_recorder(Arc::clone(&recorder))
            .run(request.model, request.programs)
            .unwrap();
        let traced = algo.assemble(&g, run);
        assert_eq!(plain.result, traced.result);
        assert_eq!(plain.ledger, traced.ledger);
        assert!(recorder.summary().events > 0);
        assert!(recorder.recorded_events() > 0);
    }

    #[test]
    fn faulted_runs_recover_the_fault_free_mis_and_ledger() {
        let g = generators::gnp(110, 0.07, 2).unwrap();
        let model = ExecutionModel::congested_clique(110);
        let clean = EngineLubyMis::default().run(&g, model.clone()).unwrap();
        for threads in [1, 4] {
            let plan = FaultPlan::new(0x717b)
                .with_drop(25)
                .with_duplicate(15)
                .with_corrupt(15);
            let algo = EngineLubyMis {
                threads,
                ..EngineLubyMis::default()
            };
            let request = algo.service_request(&g, model.clone());
            let run = Engine::new(request.config)
                .with_faults(plan)
                .run(request.model, request.programs)
                .unwrap();
            let faulted = algo.assemble(&g, run);
            assert!(faulted.health.faults_injected > 0, "threads {threads}");
            assert!(!faulted.health.degraded, "threads {threads}");
            assert_eq!(faulted.result, clean.result, "threads {threads}");
            assert_eq!(faulted.ledger, clean.ledger, "threads {threads}");
        }
    }

    #[test]
    fn crashed_nodes_still_yield_a_valid_mis() {
        let g = generators::gnp(90, 0.1, 8).unwrap();
        // Round-0 crashes: a later round could miss a node that has
        // already decided and halted (halted nodes cannot crash).
        let plan = FaultPlan::new(5).with_crash(3, 0).with_crash(40, 0);
        let algo = EngineLubyMis {
            threads: 2,
            ..EngineLubyMis::default()
        };
        let request = algo.service_request(&g, ExecutionModel::congested_clique(90));
        let run = Engine::new(request.config)
            .with_faults(plan)
            .run(request.model, request.programs)
            .unwrap();
        let out = algo.assemble(&g, run);
        assert!(out.health.degraded);
        assert_eq!(out.health.crashed_nodes, 2);
        verify_mis(&g, &out.result.in_set).unwrap();
    }

    #[test]
    fn round_cap_is_completed_greedily_to_a_valid_mis() {
        let g = generators::gnp(80, 0.1, 5).unwrap();
        let out = EngineLubyMis {
            max_rounds: 2,
            ..EngineLubyMis::default()
        }
        .run(&g, ExecutionModel::congested_clique(80))
        .unwrap();
        verify_mis(&g, &out.result.in_set).unwrap();
    }

    #[test]
    fn batched_service_runs_match_solo_runs() {
        use cc_runtime::{ColoringService, ServiceConfig};
        let algo = EngineLubyMis::default();
        let graphs: Vec<_> = (0..4)
            .map(|seed| generators::gnp(40 + 15 * seed as usize, 0.09, seed).unwrap())
            .chain([generators::power_law(64, 8, 4).unwrap()])
            .collect();
        for threads in [1, 2] {
            let mut service = ColoringService::new(ServiceConfig { slots: 2, threads });
            for g in &graphs {
                let model = ExecutionModel::congested_clique(g.node_count());
                service.submit(algo.service_request(g, model));
            }
            let mut outcomes = service.run_until_idle();
            outcomes.sort_by_key(|o| o.id);
            for (g, outcome) in graphs.iter().zip(outcomes) {
                let model = ExecutionModel::congested_clique(g.node_count());
                let solo = algo.run(g, model).unwrap();
                let batched = algo.assemble(g, outcome.result.unwrap());
                assert_eq!(batched.result, solo.result);
                assert_eq!(batched.ledger, solo.ledger);
                assert_eq!(batched.report, solo.report);
            }
        }
    }

    #[test]
    fn engine_luby_on_empty_graph_selects_everyone() {
        let g = CsrGraph::empty(9);
        let out = EngineLubyMis::default()
            .run(&g, ExecutionModel::congested_clique(9))
            .unwrap();
        assert_eq!(out.result.size(), 9);
        assert_eq!(out.result.phases, 1);
    }
}
