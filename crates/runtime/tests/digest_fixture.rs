//! Frozen message-ledger digests.
//!
//! These scenarios were digested by the PR 2 router (`Vec<Message>`
//! per-chunk arenas, scatter-into-groups counting sort) and the values
//! below were recorded from that implementation. The columnar message
//! plane must reproduce them bit for bit: the digest folds
//! `message_mix(round, src, dst, word)` in generation order (ascending
//! sender within each chunk, send order within a sender) and chunk order,
//! so any reordering, dropped message, or changed mix shows up here.

use cc_graph::palette::Palette;
use cc_runtime::programs::luby::LubyMisProgram;
use cc_runtime::programs::trial::TrialColoringProgram;
use cc_runtime::{word_bits_limit, Engine, EngineConfig, NodeProgram};
use cc_sim::ExecutionModel;

/// Deterministic pseudo-random symmetric adjacency lists (xorshift; no
/// dependency on the graph crate).
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

fn run_trial(n: usize, graph_seed: u64, program_seed: u64, threads: usize) -> (u64, u64) {
    let adjacency = scrambled_graph(n, 7, graph_seed);
    let programs: Vec<Box<dyn NodeProgram<Output = Option<u64>>>> = adjacency
        .iter()
        .enumerate()
        .map(|(i, neighbors)| {
            Box::new(TrialColoringProgram::new(
                i as u32,
                neighbors.clone(),
                Palette::range(neighbors.len() as u64 + 1),
                program_seed,
            )) as _
        })
        .collect();
    let outcome = Engine::new(EngineConfig::with_threads(threads))
        .run(ExecutionModel::congested_clique(n), programs)
        .unwrap();
    assert!(outcome.all_halted);
    (outcome.ledger.digest(), outcome.ledger.total_messages())
}

fn run_luby(n: usize, graph_seed: u64, program_seed: u64, threads: usize) -> (u64, u64) {
    let adjacency = scrambled_graph(n, 5, graph_seed);
    let bits = word_bits_limit(n);
    let programs: Vec<Box<dyn NodeProgram<Output = Option<bool>>>> = adjacency
        .iter()
        .enumerate()
        .map(|(i, neighbors)| {
            Box::new(LubyMisProgram::new(
                i as u32,
                neighbors.clone(),
                bits,
                program_seed,
            )) as _
        })
        .collect();
    let outcome = Engine::new(EngineConfig::with_threads(threads))
        .run(ExecutionModel::congested_clique(n), programs)
        .unwrap();
    assert!(outcome.all_halted);
    (outcome.ledger.digest(), outcome.ledger.total_messages())
}

/// `(digest, total_messages)` recorded from the PR 2 router.
const TRIAL_FIXTURE: (u64, u64) = (0x3c5e_cb75_d53d_57da, 1182);
const LUBY_FIXTURE: (u64, u64) = (0xa061_fae4_5bef_bcdd, 659);

#[test]
fn trial_ledger_digest_matches_pre_refactor_fixture() {
    for threads in [1, 4] {
        let got = run_trial(97, 21, 5, threads);
        assert_eq!(
            got, TRIAL_FIXTURE,
            "trial digest drifted from the PR 2 router (threads = {threads}); \
             got ({:#018x}, {})",
            got.0, got.1
        );
    }
}

#[test]
fn luby_ledger_digest_matches_pre_refactor_fixture() {
    for threads in [1, 4] {
        let got = run_luby(83, 9, 2, threads);
        assert_eq!(
            got, LUBY_FIXTURE,
            "luby digest drifted from the PR 2 router (threads = {threads}); \
             got ({:#018x}, {})",
            got.0, got.1
        );
    }
}
