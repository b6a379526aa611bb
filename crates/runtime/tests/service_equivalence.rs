//! Property: a `ColoringService` batch of k instances produces, for every
//! instance, outputs / message ledger / execution report / round count /
//! health byte-identical to k unrecorded solo `Engine::run`s under the
//! same crash-free fault plan — at service thread counts 1, 2, and 4, with
//! a trace recorder attached to the service or not, with fewer slots than
//! instances (forcing mid-stream retirement and refill) and submissions
//! arriving while earlier instances are already in flight.

use std::sync::Arc;

use cc_graph::palette::Palette;
use cc_runtime::programs::trial::TrialColoringProgram;
use cc_runtime::trace::RingRecorder;
use cc_runtime::{
    ColoringService, Engine, EngineConfig, EngineOutcome, FaultPlan, NodeProgram, ServiceConfig,
    ServiceRequest,
};
use cc_sim::ExecutionModel;
use proptest::prelude::*;

/// Deterministic pseudo-random symmetric adjacency lists (the runtime is
/// graph-library-agnostic, so the test rolls its own xorshift graphs).
fn scrambled_graph(n: usize, degree_target: usize, seed: u64) -> Vec<Vec<u32>> {
    let mut adjacency = vec![Vec::new(); n];
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..n * degree_target / 2 {
        let u = (next() % n as u64) as usize;
        let v = (next() % n as u64) as usize;
        if u != v && !adjacency[u].contains(&(v as u32)) {
            adjacency[u].push(v as u32);
            adjacency[v].push(u as u32);
        }
    }
    for list in &mut adjacency {
        list.sort_unstable();
    }
    adjacency
}

/// One randomized instance: clique size, graph seed, program seed, and a
/// round cap that sometimes truncates the run mid-protocol.
#[derive(Debug, Clone)]
struct InstanceSpec {
    n: usize,
    graph_seed: u64,
    program_seed: u64,
    max_rounds: u64,
}

fn instance_strategy() -> impl Strategy<Value = InstanceSpec> {
    (1usize..40, 0u64..1000, 0u64..1000, 1u64..64).prop_map(
        |(n, graph_seed, program_seed, max_rounds)| InstanceSpec {
            n,
            graph_seed,
            program_seed,
            max_rounds,
        },
    )
}

/// A crash-free fault plan: seeded drops, duplicates, and corruptions,
/// each rate possibly zero.
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0u16..=40, 0u16..=30, 0u16..=30).prop_map(|(seed, drop, duplicate, corrupt)| {
        FaultPlan::new(seed)
            .with_drop(drop)
            .with_duplicate(duplicate)
            .with_corrupt(corrupt)
    })
}

fn programs(spec: &InstanceSpec) -> Vec<Box<dyn NodeProgram<Output = Option<u64>>>> {
    let adjacency = scrambled_graph(spec.n, 4, spec.graph_seed);
    adjacency
        .iter()
        .enumerate()
        .map(|(i, neighbors)| {
            Box::new(TrialColoringProgram::new(
                i as u32,
                neighbors.clone(),
                Palette::range(neighbors.len() as u64 + 1),
                spec.program_seed,
            )) as _
        })
        .collect()
}

fn config(spec: &InstanceSpec) -> EngineConfig {
    EngineConfig {
        max_rounds: spec.max_rounds,
        label: "svc-eq".to_string(),
        ..EngineConfig::default()
    }
}

fn solo(spec: &InstanceSpec, plan: &FaultPlan) -> EngineOutcome<Option<u64>> {
    Engine::new(config(spec))
        .with_faults(plan.clone())
        .run(ExecutionModel::congested_clique(spec.n), programs(spec))
        .expect("lenient solo run errored")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_of_k_matches_k_solo_runs(
        specs in proptest::collection::vec(instance_strategy(), 1..7),
        slots in 1usize..4,
        // Super-rounds to execute before the second half of the batch is
        // submitted: late arrivals land while earlier instances are
        // mid-flight (or already retired and their slots refilled).
        stagger in 0usize..6,
        plan in plan_strategy(),
        recorded in any::<bool>(),
    ) {
        let references: Vec<EngineOutcome<Option<u64>>> =
            specs.iter().map(|spec| solo(spec, &plan)).collect();
        for threads in [1usize, 2, 4] {
            let mut service = ColoringService::new(ServiceConfig { slots, threads })
                .with_faults(plan.clone());
            let recorder = Arc::new(RingRecorder::with_capacity(256));
            if recorded {
                service = service.with_recorder(Arc::clone(&recorder));
            }
            let split = specs.len() / 2;
            for spec in &specs[..split] {
                service.submit(
                    ServiceRequest::new(
                        ExecutionModel::congested_clique(spec.n),
                        programs(spec),
                    )
                    .with_config(config(spec)),
                );
            }
            for _ in 0..stagger {
                service.step();
            }
            for spec in &specs[split..] {
                service.submit(
                    ServiceRequest::new(
                        ExecutionModel::congested_clique(spec.n),
                        programs(spec),
                    )
                    .with_config(config(spec)),
                );
            }
            let mut outcomes = service.run_until_idle();
            prop_assert_eq!(outcomes.len(), specs.len());
            outcomes.sort_by_key(|o| o.id);
            for (outcome, reference) in outcomes.into_iter().zip(&references) {
                let got = outcome.result.expect("lenient batch run errored");
                prop_assert_eq!(&got.outputs, &reference.outputs);
                prop_assert_eq!(&got.ledger, &reference.ledger);
                prop_assert_eq!(&got.report, &reference.report);
                prop_assert_eq!(got.rounds, reference.rounds);
                prop_assert_eq!(got.all_halted, reference.all_halted);
                prop_assert_eq!(got.health, reference.health);
            }
            prop_assert_eq!(recorder.recorded_events() > 0, recorded);
        }
    }
}
