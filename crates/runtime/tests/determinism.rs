//! Engine-level guarantees, exercised end to end: identical results,
//! reports, and message ledgers for every worker-thread count, and model
//! violations surfaced through the `cc-sim` report machinery.

use cc_graph::palette::Palette;
use cc_runtime::programs::luby::LubyMisProgram;
use cc_runtime::programs::trial::TrialColoringProgram;
use cc_runtime::{word_bits_limit, Engine, EngineConfig, NodeEnv, NodeProgram, NodeStatus};
use cc_sim::{ExecutionModel, ViolationPolicy};

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

#[test]
fn trial_coloring_is_identical_across_thread_counts() {
    // A clique under 512 nodes runs as one group at every thread count;
    // 1024 nodes split into four groups at 2, 4 and 8 threads.
    for n in [150, 1024] {
        let adjacency = scrambled_graph(n, 8, 42);
        let model = ExecutionModel::congested_clique(n);
        let baseline = Engine::new(EngineConfig::with_threads(1))
            .run(model.clone(), trial_programs(&adjacency, 7))
            .unwrap();
        assert!(baseline.all_halted);
        // The coloring is proper.
        for (v, neighbors) in adjacency.iter().enumerate() {
            let cv = baseline.outputs[v].expect("uncolored node");
            for &u in neighbors {
                assert_ne!(cv, baseline.outputs[u as usize].unwrap());
            }
        }
        for threads in [2, 4, 8] {
            let parallel = Engine::new(EngineConfig::with_threads(threads))
                .run(model.clone(), trial_programs(&adjacency, 7))
                .unwrap();
            let at = format!("n = {n}, threads = {threads}");
            assert_eq!(baseline.outputs, parallel.outputs, "{at}");
            assert_eq!(baseline.ledger, parallel.ledger, "{at}");
            assert_eq!(baseline.report, parallel.report, "{at}");
            assert_eq!(baseline.rounds, parallel.rounds, "{at}");
        }
    }
}

#[test]
fn luby_mis_is_identical_across_thread_counts_and_valid() {
    let n = 150;
    let adjacency = scrambled_graph(n, 6, 99);
    let model = ExecutionModel::congested_clique(n);
    let baseline = Engine::new(EngineConfig::with_threads(1))
        .run(model.clone(), luby_programs(&adjacency, 3))
        .unwrap();
    assert!(baseline.all_halted);
    let in_set: Vec<bool> = baseline
        .outputs
        .iter()
        .map(|o| o.expect("undecided node after a completed run"))
        .collect();
    for (v, neighbors) in adjacency.iter().enumerate() {
        if in_set[v] {
            assert!(neighbors.iter().all(|&u| !in_set[u as usize]));
        } else {
            assert!(neighbors.iter().any(|&u| in_set[u as usize]));
        }
    }
    for threads in [3, 8] {
        let parallel = Engine::new(EngineConfig::with_threads(threads))
            .run(model.clone(), luby_programs(&adjacency, 3))
            .unwrap();
        assert_eq!(baseline.outputs, parallel.outputs, "threads = {threads}");
        assert_eq!(baseline.ledger, parallel.ledger, "threads = {threads}");
        assert_eq!(baseline.report, parallel.report, "threads = {threads}");
    }
}

/// A program that floods one receiver with more words than the per-round
/// budget allows.
struct Spammer {
    copies: usize,
}

impl NodeProgram for Spammer {
    type Output = ();

    fn on_round(&mut self, env: &mut NodeEnv<'_>) -> NodeStatus {
        if env.node() == 0 && env.round() == 0 {
            for _ in 0..self.copies {
                env.send(1, 1);
            }
        }
        NodeStatus::Halt
    }

    fn finish(self: Box<Self>) {}
}

#[test]
fn bandwidth_violations_reach_the_execution_report() {
    let n = 4;
    let model = ExecutionModel::congested_clique(n);
    let copies = model.per_round_bandwidth_words + 1;
    let programs: Vec<Box<dyn NodeProgram<Output = ()>>> =
        (0..n).map(|_| Box::new(Spammer { copies }) as _).collect();
    let outcome = Engine::default().run(model.clone(), programs).unwrap();
    // Node 0 blew its send budget and node 1 its receive budget.
    assert!(!outcome.report.within_limits());
    assert_eq!(outcome.report.violations.len(), 2);
    assert!(outcome.report.violations[0]
        .to_string()
        .contains("bandwidth"));

    // Fail-fast turns the same execution into an error.
    let programs: Vec<Box<dyn NodeProgram<Output = ()>>> =
        (0..n).map(|_| Box::new(Spammer { copies }) as _).collect();
    let err = Engine::new(EngineConfig {
        policy: ViolationPolicy::FailFast,
        ..EngineConfig::default()
    })
    .run(model, programs);
    assert!(err.is_err());
}
