//! Property: the counting-sort message plane delivers exactly what a naive
//! reference router would — same multiset, same per-receiver order — for
//! arbitrary outbox patterns and any worker-thread count.
//!
//! Every node runs a scripted program (round `r`'s outbox is `script[r]`,
//! an arbitrary `(dst, word)` list) and logs its inbox verbatim. The
//! reference router is ten lines of nested loops: deliver every message
//! sent in round `r` to its destination in round `r + 1`, ordered by
//! sender id with same-sender sends kept in send order. The engine must
//! reproduce the reference log byte for byte, and its ledgers must agree
//! across thread counts.
//!
//! Under a seeded [`FaultPlan`] the reference also applies each message's
//! first-attempt outcome: a dropped message never arrives, a duplicated one
//! arrives twice in a row, a corrupted one arrives XORed with its mask.
//! `Scripted` cannot checkpoint, so the engine commits every damaged round
//! as delivered, and must still match the reference byte for byte.

use proptest::collection::vec;
use proptest::prelude::*;

use cc_runtime::{
    word_bits_limit, Engine, EngineConfig, FaultPlan, MessageFault, NodeEnv, NodeProgram,
    NodeStatus,
};
use cc_sim::ExecutionModel;

/// What one node received, per round: `(round, src, word)` in arrival
/// order.
type InboxLog = Vec<(u64, u32, u64)>;

/// Sends a fixed script of outboxes and logs every received message.
struct Scripted {
    /// `script[r]` is the outbox for round `r`.
    script: Vec<Vec<(u32, u64)>>,
    log: InboxLog,
}

impl NodeProgram for Scripted {
    type Output = InboxLog;

    fn on_round(&mut self, env: &mut NodeEnv<'_>) -> NodeStatus {
        for m in env.inbox() {
            self.log.push((env.round(), m.src, m.word));
        }
        match self.script.get(env.round() as usize) {
            Some(outbox) => {
                for &(dst, word) in outbox {
                    env.send(dst, word);
                }
                NodeStatus::Continue
            }
            // One extra round so the final outboxes are delivered.
            None => NodeStatus::Halt,
        }
    }

    fn finish(self: Box<Self>) -> InboxLog {
        self.log
    }
}

/// The reference router: plain nested loops, no chunks, no sorting tricks,
/// with each message's first-attempt fault from `plan`, if any, applied.
/// Returns every node's log and the number of faults that fired.
fn reference_delivery(
    scripts: &[Vec<Vec<(u32, u64)>>],
    rounds: usize,
    plan: Option<&FaultPlan>,
) -> (Vec<InboxLog>, u64) {
    let n = scripts.len();
    let bits = word_bits_limit(n);
    let mut logs = vec![InboxLog::new(); n];
    let mut faults = 0;
    for round in 1..=rounds {
        for (src, script) in scripts.iter().enumerate() {
            if let Some(outbox) = script.get(round - 1) {
                for (seq, &(dst, word)) in outbox.iter().enumerate() {
                    let (at, src) = (round as u64, src as u32);
                    let log = &mut logs[dst as usize];
                    let fault = plan.and_then(|plan| {
                        plan.message_outcome(at - 1, 0, src, dst, seq as u32, bits)
                    });
                    match fault {
                        None => log.push((at, src, word)),
                        Some(MessageFault::Drop) => {}
                        Some(MessageFault::Duplicate) => log.extend([(at, src, word); 2]),
                        Some(MessageFault::Corrupt { mask }) => log.push((at, src, word ^ mask)),
                    }
                    faults += u64::from(fault.is_some());
                }
            }
        }
    }
    (logs, faults)
}

/// One `Scripted` program per node.
fn programs(scripts: &[Vec<Vec<(u32, u64)>>]) -> Vec<Box<dyn NodeProgram<Output = InboxLog>>> {
    scripts
        .iter()
        .map(|script| {
            Box::new(Scripted {
                script: script.clone(),
                log: InboxLog::new(),
            }) as _
        })
        .collect()
}

/// A full per-node script set: `n` nodes × `rounds` rounds × outboxes.
fn scripts_strategy() -> impl Strategy<Value = Vec<Vec<Vec<(u32, u64)>>>> {
    (2usize..20, 1usize..5).prop_flat_map(|(n, rounds)| {
        vec(
            vec(vec((0u32..n as u32, 0u64..1024), 0..10), rounds..=rounds),
            n..=n,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_the_reference_router(scripts in scripts_strategy()) {
        let n = scripts.len();
        let rounds = scripts[0].len();
        let (expected, _) = reference_delivery(&scripts, rounds, None);
        let mut ledgers = Vec::new();
        for threads in [1usize, 2, 4] {
            let outcome = Engine::new(EngineConfig::with_threads(threads))
                .run(ExecutionModel::congested_clique(n), programs(&scripts))
                .unwrap();
            prop_assert!(outcome.all_halted);
            prop_assert!(outcome.outputs == expected, "mismatch at threads = {threads}");
            let sent: usize = scripts.iter().flatten().map(Vec::len).sum();
            prop_assert_eq!(outcome.ledger.total_messages(), sent as u64);
            ledgers.push(outcome.ledger);
        }
        // One ledger per thread count, all identical.
        prop_assert!(ledgers.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn faulted_delivery_matches_the_reference_router(
        scripts in scripts_strategy(),
        seed in any::<u64>(),
        drop in 0u16..300,
        duplicate in 0u16..300,
        corrupt in 0u16..300,
    ) {
        let n = scripts.len();
        let rounds = scripts[0].len();
        let plan = FaultPlan::new(seed)
            .with_drop(drop)
            .with_duplicate(duplicate)
            .with_corrupt(corrupt);
        let (expected, faults) = reference_delivery(&scripts, rounds, Some(&plan));
        let delivered: usize = expected.iter().map(Vec::len).sum();
        let mut ledgers = Vec::new();
        for threads in [1usize, 2, 4] {
            let outcome = Engine::new(EngineConfig::with_threads(threads))
                .with_faults(plan.clone())
                .run(ExecutionModel::congested_clique(n), programs(&scripts))
                .unwrap();
            prop_assert!(outcome.all_halted);
            prop_assert!(outcome.outputs == expected, "mismatch at threads = {threads}");
            let health = outcome.health;
            prop_assert_eq!(health.retries, 0);
            prop_assert_eq!(health.faults_injected, faults);
            prop_assert_eq!(health.faults_committed, faults);
            prop_assert_eq!(health.degraded, faults > 0);
            prop_assert_eq!(outcome.ledger.total_messages(), delivered as u64);
            ledgers.push(outcome.ledger);
        }
        prop_assert!(ledgers.windows(2).all(|w| w[0] == w[1]));
    }
}
