//! Randomized trial-and-retry list coloring as a node program.
//!
//! The classic O(log 𝔫)-phase randomized baseline: each phase is two engine
//! rounds. In an even ("propose") round every uncolored node picks a
//! uniformly random color from its remaining palette and sends it to its
//! still-uncolored neighbors; in the following odd ("resolve") round a node
//! keeps its proposal unless a *smaller-id* neighbor proposed the same
//! color, announces the fixed color to its neighbors, and halts. Finalized
//! colors arriving at the start of the next propose round are removed from
//! the receivers' palettes, so the `p(v) > d(v)` list-coloring invariant
//! keeps every palette non-empty.
//!
//! Round parity doubles as the message tag, so every message is a bare
//! color word — no bits are spent on a type field.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::env::NodeEnv;
use crate::program::{NodeProgram, NodeStatus};
use crate::snapshot::{push_option, take_option, SnapshotSink, SnapshotSource};

/// One node of the trial-coloring protocol.
#[derive(Debug, Clone)]
pub struct TrialColoringProgram {
    /// The still-uncolored neighbors, sorted ascending and kept compact:
    /// a neighbor is removed when its color is announced, so every send
    /// loop walks exactly the live neighborhood with no flag checks.
    neighbors: Vec<u32>,
    /// The still-usable palette, sorted ascending and kept compact so that
    /// drawing the `k`-th usable color is one index instead of a scan.
    /// Removals (colors taken by neighbors) happen at most once per
    /// neighbor; draws happen every propose round, so the compact layout
    /// pays for the O(palette) shift a removal costs.
    usable: Vec<u64>,
    /// This phase's proposal, pending resolution.
    proposal: Option<u64>,
    /// The fixed color, once resolved.
    color: Option<u64>,
    rng: ChaCha8Rng,
}

impl TrialColoringProgram {
    /// Creates the program for `node` with its adjacency and palette.
    ///
    /// `palette` must be the node's list-coloring palette with strictly more
    /// colors than the node has neighbors. The per-node RNG is seeded from
    /// `(seed, node)`, so an execution is fully determined by the seed.
    ///
    /// # Panics
    ///
    /// Panics if the palette is not larger than the neighborhood.
    pub fn new(node: u32, mut neighbors: Vec<u32>, mut palette: Vec<u64>, seed: u64) -> Self {
        // Callers (the graph adapters) almost always pass strictly
        // ascending lists; one cheap scan then skips the sort + dedup.
        if !neighbors.windows(2).all(|w| w[0] < w[1]) {
            neighbors.sort_unstable();
            neighbors.dedup();
        }
        if !palette.windows(2).all(|w| w[0] < w[1]) {
            palette.sort_unstable();
            palette.dedup();
        }
        assert!(
            palette.len() > neighbors.len(),
            "node {node}: palette of {} colors for {} neighbors violates p(v) > d(v)",
            palette.len(),
            neighbors.len()
        );
        TrialColoringProgram {
            neighbors,
            usable: palette,
            proposal: None,
            color: None,
            rng: ChaCha8Rng::seed_from_u64(seed ^ ((u64::from(node) << 32) | u64::from(node))),
        }
    }

    fn remove_color(&mut self, color: u64) {
        if let Ok(i) = self.usable.binary_search(&color) {
            self.usable.remove(i);
        }
    }
}

impl NodeProgram for TrialColoringProgram {
    type Output = Option<u64>;

    fn on_round(&mut self, env: &mut NodeEnv<'_>) -> NodeStatus {
        if env.round().is_multiple_of(2) {
            // Propose round. The inbox holds colors finalized by neighbors
            // in the previous resolve round: those neighbors are done, and
            // their colors are off-limits.
            for m in env.inbox() {
                self.remove_color(m.word);
                if let Ok(pos) = self.neighbors.binary_search(&m.src) {
                    self.neighbors.remove(pos);
                }
            }
            let pick = self.rng.gen_range(0..self.usable.len());
            let proposal = self.usable[pick];
            self.proposal = Some(proposal);
            env.send_slice(&self.neighbors, proposal);
            NodeStatus::Continue
        } else {
            // Resolve round. The inbox holds the proposals of uncolored
            // neighbors; ties are broken toward the smaller node id.
            let proposal = self.proposal.take().expect("resolve without a proposal");
            let clash = env
                .inbox()
                .iter()
                .any(|m| m.word == proposal && m.src < env.node());
            if clash {
                return NodeStatus::Continue;
            }
            self.color = Some(proposal);
            env.send_slice(&self.neighbors, proposal);
            NodeStatus::Halt
        }
    }

    fn finish(self: Box<Self>) -> Option<u64> {
        self.color
    }

    fn snapshot(&self, sink: &mut SnapshotSink<'_>) -> bool {
        sink.push(self.neighbors.len() as u64);
        for &u in &self.neighbors {
            sink.push(u64::from(u));
        }
        sink.push(self.usable.len() as u64);
        sink.push_slice(&self.usable);
        push_option(sink, self.proposal);
        push_option(sink, self.color);
        sink.push(self.rng.get_word_pos());
        true
    }

    fn restore(&mut self, source: &mut SnapshotSource<'_>) -> bool {
        // Neighbors and palette only ever shrink, so clearing and
        // re-extending stays within the vectors' existing capacity.
        let neighbors = source.next_word() as usize;
        self.neighbors.clear();
        self.neighbors
            .extend((0..neighbors).map(|_| source.next_word() as u32));
        let usable = source.next_word() as usize;
        self.usable.clear();
        self.usable.extend_from_slice(source.take(usable));
        self.proposal = take_option(source);
        self.color = take_option(source);
        self.rng.set_word_pos(source.next_word());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::program::NodeProgram;
    use cc_sim::ExecutionModel;

    /// Builds trial programs for a graph given as symmetric adjacency lists,
    /// with each node's palette being `0..=degree`.
    fn programs(
        adjacency: &[Vec<u32>],
        seed: u64,
    ) -> Vec<Box<dyn NodeProgram<Output = Option<u64>>>> {
        adjacency
            .iter()
            .enumerate()
            .map(|(i, neighbors)| {
                let palette: Vec<u64> = (0..=neighbors.len() as u64).collect();
                Box::new(TrialColoringProgram::new(
                    i as u32,
                    neighbors.clone(),
                    palette,
                    seed,
                )) as Box<dyn NodeProgram<Output = Option<u64>>>
            })
            .collect()
    }

    fn cycle(n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| vec![((i + n - 1) % n) as u32, ((i + 1) % n) as u32])
            .collect()
    }

    #[test]
    fn colors_a_cycle_properly() {
        let adjacency = cycle(30);
        let outcome = Engine::new(EngineConfig::default())
            .run(
                ExecutionModel::congested_clique(30),
                programs(&adjacency, 11),
            )
            .unwrap();
        assert!(outcome.all_halted);
        let colors: Vec<u64> = outcome.outputs.iter().map(|c| c.unwrap()).collect();
        for (i, neighbors) in adjacency.iter().enumerate() {
            for &u in neighbors {
                assert_ne!(colors[i], colors[u as usize], "edge ({i}, {u})");
            }
            assert!(colors[i] <= 2);
        }
        assert!(outcome.report.within_limits());
    }

    #[test]
    fn isolated_nodes_color_in_one_phase() {
        let outcome = Engine::default()
            .run(
                ExecutionModel::congested_clique(3),
                programs(&[vec![], vec![], vec![]], 0),
            )
            .unwrap();
        assert_eq!(outcome.rounds, 2);
        assert!(outcome.outputs.iter().all(|c| *c == Some(0)));
    }

    #[test]
    #[should_panic(expected = "p(v) > d(v)")]
    fn deficient_palettes_are_rejected() {
        let _ = TrialColoringProgram::new(0, vec![1, 2], vec![5, 9], 1);
    }

    #[test]
    fn snapshot_rewinds_a_stepped_program_exactly() {
        use crate::columns::{Inbox, Staging};
        let mut program = TrialColoringProgram::new(2, vec![0, 1, 3], vec![0, 1, 2, 3], 7);
        // Advance one propose round so the RNG and the proposal are
        // mid-flight, then checkpoint.
        let mut outbox = Staging::new(8);
        let mut env = NodeEnv::new(2, 8, 0, Inbox::empty(2), &mut outbox);
        program.on_round(&mut env);
        let mut words = Vec::new();
        assert!(program.snapshot(&mut SnapshotSink::new(&mut words)));
        let at_snapshot = program.clone();
        // The resolve round mutates proposal/color; restore must rewind
        // every mutable field, including the RNG position.
        let mut env = NodeEnv::new(2, 8, 1, Inbox::empty(2), &mut outbox);
        program.on_round(&mut env);
        assert_ne!(program.color, at_snapshot.color);
        assert!(program.restore(&mut SnapshotSource::new(&words)));
        assert_eq!(program.neighbors, at_snapshot.neighbors);
        assert_eq!(program.usable, at_snapshot.usable);
        assert_eq!(program.proposal, at_snapshot.proposal);
        assert_eq!(program.color, at_snapshot.color);
        assert_eq!(program.rng.get_word_pos(), at_snapshot.rng.get_word_pos());
    }
}
