//! Chaos property: a crash-free fault plan is unobservable in committed
//! results.
//!
//! For arbitrary seeded drop/duplicate/corrupt schedules, the engine must
//! detect every damaged round at the barrier (delivered digest ≠ intended
//! digest), roll it back to the checkpoint, and re-deliver until clean —
//! so the committed outputs and the message ledger are **bit-identical**
//! to the fault-free execution's, at every worker-thread count. Crash
//! schedules instead degrade the outcome deterministically: crashed nodes
//! are quarantined (halted, never stepped again) and flagged in
//! [`cc_runtime::EngineHealth`].

use proptest::prelude::*;

use cc_graph::palette::Palette;
use cc_runtime::programs::luby::LubyMisProgram;
use cc_runtime::programs::trial::TrialColoringProgram;
use cc_runtime::{word_bits_limit, Engine, EngineConfig, FaultPlan, NodeProgram};
use cc_sim::ExecutionModel;

/// Deterministic pseudo-random symmetric adjacency lists (no dependency on
/// the graph crate: the runtime is graph-library-agnostic).
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

fn trial_programs(
    adjacency: &[Vec<u32>],
    seed: u64,
) -> Vec<Box<dyn NodeProgram<Output = Option<u64>>>> {
    adjacency
        .iter()
        .enumerate()
        .map(|(i, neighbors)| {
            Box::new(TrialColoringProgram::new(
                i as u32,
                neighbors.clone(),
                Palette::range(neighbors.len() as u64 + 1),
                seed,
            )) as Box<dyn NodeProgram<Output = Option<u64>>>
        })
        .collect()
}

fn luby_programs(
    adjacency: &[Vec<u32>],
    seed: u64,
) -> Vec<Box<dyn NodeProgram<Output = Option<bool>>>> {
    let bits = word_bits_limit(adjacency.len());
    adjacency
        .iter()
        .enumerate()
        .map(|(i, neighbors)| {
            Box::new(LubyMisProgram::new(i as u32, neighbors.clone(), bits, seed))
                as Box<dyn NodeProgram<Output = Option<bool>>>
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash-free chaos (drops, duplicates, corruptions, stalls) recovers
    /// to the fault-free trial coloring — same outputs, same ledger — at
    /// threads 1, 2, and 4.
    #[test]
    fn trial_coloring_recovers_from_message_chaos(
        plan_seed in any::<u64>(),
        graph_seed in 0u64..1_000,
        program_seed in 0u64..1_000,
        drop in 0u16..=40,
        duplicate in 0u16..=30,
        corrupt in 0u16..=30,
    ) {
        let n = 48;
        let adjacency = scrambled_graph(n, 5, graph_seed);
        let model = ExecutionModel::congested_clique(n);
        let clean = Engine::new(EngineConfig::with_threads(1))
            .run(model.clone(), trial_programs(&adjacency, program_seed))
            .unwrap();
        prop_assert!(clean.all_halted);
        for threads in [1usize, 2, 4] {
            let plan = FaultPlan::new(plan_seed)
                .with_drop(drop)
                .with_duplicate(duplicate)
                .with_corrupt(corrupt)
                .with_stall(50, 200);
            let faulted = Engine::new(EngineConfig::with_threads(threads))
                .with_faults(plan)
                .run(model.clone(), trial_programs(&adjacency, program_seed))
            .unwrap();
            prop_assert!(!faulted.health.degraded, "threads {threads}");
            prop_assert_eq!(faulted.health.faults_committed, 0);
            prop_assert_eq!(&faulted.outputs, &clean.outputs);
            prop_assert_eq!(&faulted.ledger, &clean.ledger);
            // Recovery implies the coloring is the clean (proper) one.
            for (v, neighbors) in adjacency.iter().enumerate() {
                let cv = faulted.outputs[v].expect("uncolored node");
                for &u in neighbors {
                    prop_assert_ne!(cv, faulted.outputs[u as usize].unwrap());
                }
            }
        }
    }

    /// The same property for Luby MIS, whose three-round phases exercise
    /// retries across a different message mix (priorities, joins, leaves).
    #[test]
    fn luby_mis_recovers_from_message_chaos(
        plan_seed in any::<u64>(),
        graph_seed in 0u64..1_000,
        drop in 0u16..=40,
        duplicate in 0u16..=30,
        corrupt in 0u16..=30,
    ) {
        let n = 48;
        let adjacency = scrambled_graph(n, 4, graph_seed);
        let model = ExecutionModel::congested_clique(n);
        let clean = Engine::new(EngineConfig::with_threads(1))
            .run(model.clone(), luby_programs(&adjacency, 3))
            .unwrap();
        prop_assert!(clean.all_halted);
        for threads in [1usize, 2, 4] {
            let plan = FaultPlan::new(plan_seed)
                .with_drop(drop)
                .with_duplicate(duplicate)
                .with_corrupt(corrupt);
            let faulted = Engine::new(EngineConfig::with_threads(threads))
                .with_faults(plan)
                .run(model.clone(), luby_programs(&adjacency, 3))
            .unwrap();
            prop_assert!(!faulted.health.degraded, "threads {threads}");
            prop_assert_eq!(&faulted.outputs, &clean.outputs);
            prop_assert_eq!(&faulted.ledger, &clean.ledger);
        }
    }

    /// Crash schedules produce a deterministically degraded outcome: the
    /// crashed nodes are quarantined, the health read-out says so, and the
    /// execution is still identical across thread counts.
    #[test]
    fn crash_schedules_degrade_deterministically(
        graph_seed in 0u64..1_000,
        crashed in proptest::collection::vec(0u32..48, 1..4),
    ) {
        let n = 48;
        let crashed: std::collections::BTreeSet<u32> = crashed.iter().copied().collect();
        let adjacency = scrambled_graph(n, 5, graph_seed);
        let model = ExecutionModel::congested_clique(n);
        let build_plan = || {
            let mut plan = FaultPlan::new(9);
            for &node in &crashed {
                // Round 0 so the crash cannot race the node's own halt.
                plan = plan.with_crash(node, 0);
            }
            plan
        };
        let baseline = Engine::new(EngineConfig::with_threads(1))
            .with_faults(build_plan())
            .run(model.clone(), trial_programs(&adjacency, 5))
        .unwrap();
        prop_assert!(baseline.all_halted);
        prop_assert!(baseline.health.degraded);
        prop_assert_eq!(baseline.health.crashed_nodes, crashed.len() as u64);
        // Crashed nodes never resolved a color.
        for &node in &crashed {
            prop_assert_eq!(baseline.outputs[node as usize], None);
        }
        for threads in [2usize, 4] {
            let parallel = Engine::new(EngineConfig::with_threads(threads))
                .with_faults(build_plan())
                .run(model.clone(), trial_programs(&adjacency, 5))
            .unwrap();
            prop_assert_eq!(&parallel.outputs, &baseline.outputs);
            prop_assert_eq!(&parallel.ledger, &baseline.ledger);
            prop_assert_eq!(parallel.health, baseline.health);
        }
    }
}

/// With retries disabled, damage commits — and the health read-out owns up
/// to it instead of silently diverging.
#[test]
fn disabled_retries_commit_damage_and_report_it() {
    let n = 48;
    let adjacency = scrambled_graph(n, 5, 17);
    let model = ExecutionModel::congested_clique(n);
    let clean = Engine::new(EngineConfig::with_threads(1))
        .run(model.clone(), trial_programs(&adjacency, 5))
        .unwrap();
    let plan = FaultPlan::new(0xbad).with_drop(80);
    let faulted = Engine::new(EngineConfig {
        max_round_retries: 0,
        ..EngineConfig::with_threads(2)
    })
    .with_faults(plan)
    .run(model, trial_programs(&adjacency, 5))
    .unwrap();
    assert!(faulted.health.degraded);
    assert!(faulted.health.damaged_rounds_committed > 0);
    assert_eq!(faulted.health.retries, 0);
    assert_ne!(faulted.ledger, clean.ledger);
}
