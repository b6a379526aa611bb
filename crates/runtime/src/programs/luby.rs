//! Luby's randomized MIS as a node program.
//!
//! Luby's algorithm, unrolled into explicit messages. Each phase is three
//! engine rounds, with round number mod 3 acting as the message tag:
//!
//! 1. **priority** — every undecided node draws a bounded-width random
//!    priority and sends it to its undecided neighbors (after folding in the
//!    *leave* notices from the previous phase);
//! 2. **decide** — a node whose `(priority, id)` beats every received
//!    `(priority, sender)` joins the set, announces the join, and halts;
//! 3. **leave** — neighbors of joiners announce that they are leaving and
//!    halt; everyone else trims its neighborhood and continues.
//!
//! Ties are broken by node id, as in `cc_mis::derand`'s deterministic
//! variant, so adjacent nodes can never both join.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::env::NodeEnv;
use crate::program::{NodeProgram, NodeStatus};
use crate::snapshot::{push_option, take_option, SnapshotSink, SnapshotSource};

/// One node of the Luby MIS protocol.
#[derive(Debug, Clone)]
pub struct LubyMisProgram {
    /// The still-undecided neighbors, sorted ascending and kept compact:
    /// a neighbor is removed when it announces a join or leave, so every
    /// send loop walks exactly the live neighborhood with no flag checks.
    neighbors: Vec<u32>,
    /// This phase's drawn priority.
    priority: u64,
    /// Mask keeping priorities inside the O(log 𝔫)-bit message width.
    priority_mask: u64,
    /// Decided membership, once known.
    in_set: Option<bool>,
    rng: ChaCha8Rng,
}

impl LubyMisProgram {
    /// Creates the program for `node` with its adjacency.
    ///
    /// `priority_bits` bounds the width of the random priorities (pass
    /// something within [`crate::message::word_bits_limit`] of the clique
    /// size; collisions only slow convergence, ties are broken by id). The
    /// per-node RNG is seeded from `(seed, node)`.
    pub fn new(node: u32, mut neighbors: Vec<u32>, priority_bits: u32, seed: u64) -> Self {
        // Callers (the graph adapters) almost always pass strictly
        // ascending lists; one cheap scan then skips the sort + dedup.
        if !neighbors.windows(2).all(|w| w[0] < w[1]) {
            neighbors.sort_unstable();
            neighbors.dedup();
        }
        let bits = priority_bits.clamp(1, 63);
        LubyMisProgram {
            neighbors,
            priority: 0,
            priority_mask: (1u64 << bits) - 1,
            in_set: None,
            rng: ChaCha8Rng::seed_from_u64(seed ^ ((u64::from(node) << 32) | u64::from(node))),
        }
    }

    fn deactivate(&mut self, u: u32) {
        if let Ok(pos) = self.neighbors.binary_search(&u) {
            self.neighbors.remove(pos);
        }
    }

    /// Sends `word` to every still-active neighbor.
    fn tell_active(&self, env: &mut NodeEnv<'_>, word: u64) {
        env.send_slice(&self.neighbors, word);
    }
}

impl NodeProgram for LubyMisProgram {
    /// `Some(joined)` once decided; `None` if the execution was cut off
    /// (round cap) before this node decided.
    type Output = Option<bool>;

    fn on_round(&mut self, env: &mut NodeEnv<'_>) -> NodeStatus {
        match env.round() % 3 {
            0 => {
                // Priority round; inbox holds leave notices from the
                // previous phase.
                for m in env.inbox() {
                    self.deactivate(m.src);
                }
                self.priority = self.rng.gen::<u64>() & self.priority_mask;
                let priority = self.priority;
                self.tell_active(env, priority);
                NodeStatus::Continue
            }
            1 => {
                // Decide round; inbox holds the priorities of undecided
                // neighbors.
                let my_key = (self.priority, env.node());
                let is_min = env.inbox().iter().all(|m| my_key < (m.word, m.src));
                if is_min {
                    self.in_set = Some(true);
                    self.tell_active(env, 1);
                    return NodeStatus::Halt;
                }
                NodeStatus::Continue
            }
            _ => {
                // Leave round; inbox holds join announcements.
                if env.inbox().is_empty() {
                    return NodeStatus::Continue;
                }
                for m in env.inbox() {
                    self.deactivate(m.src);
                }
                self.in_set = Some(false);
                self.tell_active(env, 1);
                NodeStatus::Halt
            }
        }
    }

    fn finish(self: Box<Self>) -> Option<bool> {
        self.in_set
    }

    fn snapshot(&self, sink: &mut SnapshotSink<'_>) -> bool {
        // `priority_mask` is immutable after construction, so it is not
        // part of the checkpoint.
        sink.push(self.neighbors.len() as u64);
        for &u in &self.neighbors {
            sink.push(u64::from(u));
        }
        sink.push(self.priority);
        push_option(sink, self.in_set.map(u64::from));
        sink.push(self.rng.get_word_pos());
        true
    }

    fn restore(&mut self, source: &mut SnapshotSource<'_>) -> bool {
        // Neighbors only ever shrink, so clearing and re-extending stays
        // within the vector's existing capacity.
        let neighbors = source.next_word() as usize;
        self.neighbors.clear();
        self.neighbors
            .extend((0..neighbors).map(|_| source.next_word() as u32));
        self.priority = source.next_word();
        self.in_set = take_option(source).map(|w| w != 0);
        self.rng.set_word_pos(source.next_word());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::message::word_bits_limit;
    use crate::program::NodeProgram;
    use cc_sim::ExecutionModel;

    fn programs(
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

    fn assert_valid_mis(adjacency: &[Vec<u32>], outputs: &[Option<bool>]) {
        let in_set: Vec<bool> = outputs
            .iter()
            .map(|o| o.expect("undecided node after a completed run"))
            .collect();
        for (v, neighbors) in adjacency.iter().enumerate() {
            if in_set[v] {
                for &u in neighbors {
                    assert!(
                        !in_set[u as usize],
                        "adjacent nodes {v} and {u} both in set"
                    );
                }
            } else {
                assert!(
                    neighbors.iter().any(|&u| in_set[u as usize]),
                    "node {v} could still join"
                );
            }
        }
    }

    fn path(n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| {
                let mut nbrs = Vec::new();
                if i > 0 {
                    nbrs.push((i - 1) as u32);
                }
                if i + 1 < n {
                    nbrs.push((i + 1) as u32);
                }
                nbrs
            })
            .collect()
    }

    #[test]
    fn produces_a_valid_mis_on_paths() {
        for seed in 0..5 {
            let adjacency = path(41);
            let outcome = Engine::new(EngineConfig::default())
                .run(
                    ExecutionModel::congested_clique(41),
                    programs(&adjacency, seed),
                )
                .unwrap();
            assert!(outcome.all_halted, "seed {seed}");
            assert_valid_mis(&adjacency, &outcome.outputs);
            assert!(outcome.report.within_limits());
        }
    }

    #[test]
    fn isolated_nodes_all_join() {
        let adjacency = vec![vec![]; 6];
        let outcome = Engine::default()
            .run(ExecutionModel::congested_clique(6), programs(&adjacency, 3))
            .unwrap();
        assert!(outcome.outputs.iter().all(|&b| b == Some(true)));
        // One phase: priority (empty), decide (join). The join round sends
        // nothing, so the whole run is communication-free.
        assert_eq!(outcome.report.rounds, 0);
    }

    #[test]
    fn complete_graph_selects_exactly_one_node() {
        let n = 12usize;
        let adjacency: Vec<Vec<u32>> = (0..n)
            .map(|i| (0..n as u32).filter(|&u| u != i as u32).collect())
            .collect();
        let outcome = Engine::default()
            .run(ExecutionModel::congested_clique(n), programs(&adjacency, 9))
            .unwrap();
        assert_eq!(
            outcome.outputs.iter().filter(|&&b| b == Some(true)).count(),
            1
        );
        assert_valid_mis(&adjacency, &outcome.outputs);
    }

    #[test]
    fn snapshot_rewinds_a_stepped_program_exactly() {
        use crate::columns::{Inbox, Staging};
        use crate::snapshot::{SnapshotSink, SnapshotSource};
        let mut program = LubyMisProgram::new(1, vec![0, 2, 3], 8, 13);
        // Advance the priority round so the RNG and the drawn priority are
        // mid-flight, then checkpoint.
        let mut outbox = Staging::new(8);
        let mut env = NodeEnv::new(1, 8, 0, Inbox::empty(1), &mut outbox);
        program.on_round(&mut env);
        let mut words = Vec::new();
        assert!(program.snapshot(&mut SnapshotSink::new(&mut words)));
        let at_snapshot = program.clone();
        // The decide round (empty inbox → local minimum → join) mutates
        // `in_set`; restore must rewind every mutable field.
        let mut env = NodeEnv::new(1, 8, 1, Inbox::empty(1), &mut outbox);
        program.on_round(&mut env);
        assert_eq!(program.in_set, Some(true));
        assert!(program.restore(&mut SnapshotSource::new(&words)));
        assert_eq!(program.neighbors, at_snapshot.neighbors);
        assert_eq!(program.priority, at_snapshot.priority);
        assert_eq!(program.in_set, at_snapshot.in_set);
        assert_eq!(program.rng.get_word_pos(), at_snapshot.rng.get_word_pos());
    }
}
