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
//! A node holds its palette as a [`Palette`]: the instance's base (a range
//! bound, the implicit (Δ+1)-palette of Section 3.6 of the paper, or a color
//! list shared through an `Arc`) minus the positions its neighbors' colors
//! took. Building a program therefore copies no colors, and a checkpoint
//! stores only the removed positions.
//!
//! Round parity doubles as the message tag, so every message is a bare
//! color word — no bits are spent on a type field.

use cc_graph::palette::Palette;
use cc_graph::Color;
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
    /// The still-usable palette: the node's input palette minus the colors
    /// its neighbors announced. A draw takes its `k`-th color by walking
    /// the removed positions, at most one per neighbor.
    palette: Palette,
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
    pub fn new(node: u32, mut neighbors: Vec<u32>, palette: Palette, seed: u64) -> Self {
        // Callers (the graph adapters) almost always pass strictly
        // ascending lists; one cheap scan then skips the sort + dedup.
        if !neighbors.windows(2).all(|w| w[0] < w[1]) {
            neighbors.sort_unstable();
            neighbors.dedup();
        }
        assert!(
            palette.size() > neighbors.len(),
            "node {node}: palette of {} colors for {} neighbors violates p(v) > d(v)",
            palette.size(),
            neighbors.len()
        );
        TrialColoringProgram {
            neighbors,
            palette,
            proposal: None,
            color: None,
            rng: ChaCha8Rng::seed_from_u64(seed ^ ((u64::from(node) << 32) | u64::from(node))),
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
                self.palette.remove(Color(m.word));
                if let Ok(pos) = self.neighbors.binary_search(&m.src) {
                    self.neighbors.remove(pos);
                }
            }
            let pick = self.rng.gen_range(0..self.palette.size());
            let proposal = self.palette.nth_color(pick).expect("pick < size").0;
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
        // The base never changes, so only the removed positions are state.
        let removed = self.palette.removed();
        sink.push(removed.len() as u64);
        sink.push_slice(removed);
        push_option(sink, self.proposal);
        push_option(sink, self.color);
        sink.push(self.rng.get_word_pos());
        true
    }

    fn restore(&mut self, source: &mut SnapshotSource<'_>) -> bool {
        // Neighbors only ever shrink and removed positions only ever grow
        // between checkpoints, so rewriting both stays within the vectors'
        // existing capacity.
        let neighbors = source.next_word() as usize;
        self.neighbors.clear();
        self.neighbors
            .extend((0..neighbors).map(|_| source.next_word() as u32));
        let removed = source.next_word() as usize;
        self.palette
            .set_removed(source.take(removed).iter().copied());
        self.proposal = take_option(source);
        self.color = take_option(source);
        self.rng.set_word_pos(source.next_word());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::{Inbox, InboxSegment, Staging};
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
                Box::new(TrialColoringProgram::new(
                    i as u32,
                    neighbors.clone(),
                    Palette::range(neighbors.len() as u64 + 1),
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
        let palette = Palette::explicit([Color(5), Color(9)]);
        let _ = TrialColoringProgram::new(0, vec![1, 2], palette, 1);
    }

    /// Steps `program`, node 2 of a clique of 8, through `round` with the
    /// messages `(senders, words)` in its inbox.
    fn step(program: &mut TrialColoringProgram, round: u64, inbox: InboxSegment<'_>) -> NodeStatus {
        let segments = [inbox];
        let mut outbox = Staging::new(8);
        let mut env = NodeEnv::new(2, 8, round, Inbox::new(2, &segments), &mut outbox);
        program.on_round(&mut env)
    }

    /// A snapshot of `program` and a copy of it as it was.
    fn checkpoint(program: &TrialColoringProgram) -> (Vec<u64>, TrialColoringProgram) {
        let mut words = Vec::new();
        assert!(program.snapshot(&mut SnapshotSink::new(&mut words)));
        (words, program.clone())
    }

    /// Restores `program` from `(words, at)` and checks that every mutable
    /// field, the RNG position included, is back to `at`.
    fn assert_rewinds(
        program: &mut TrialColoringProgram,
        (words, at): &(Vec<u64>, TrialColoringProgram),
    ) {
        assert!(program.restore(&mut SnapshotSource::new(words)));
        assert_eq!(program.neighbors, at.neighbors);
        assert_eq!(program.palette.removed(), at.palette.removed());
        assert_eq!(program.palette, at.palette);
        assert_eq!(program.proposal, at.proposal);
        assert_eq!(program.color, at.color);
        assert_eq!(program.rng.get_word_pos(), at.rng.get_word_pos());
    }

    #[test]
    fn snapshot_rewinds_a_stepped_program_exactly() {
        let list = Palette::explicit([3, 8, 20, 41].map(Color));
        for palette in [Palette::range(4), list] {
            let mut program = TrialColoringProgram::new(2, vec![0, 1, 3], palette, 7);
            // Advance one propose round so the RNG and the proposal are
            // mid-flight, then checkpoint. The resolve round fixes a color.
            step(&mut program, 0, (&[], &[]));
            let proposed = checkpoint(&program);
            assert_eq!(step(&mut program, 1, (&[], &[])), NodeStatus::Halt);
            assert_ne!(program.color, proposed.1.color);
            assert_rewinds(&mut program, &proposed);
            // Neighbor 0, a smaller id, proposes the same color and fixes
            // it, so the next propose round drops it and its color. The
            // checkpoint after that holds one removed position.
            let taken = program.proposal.unwrap();
            assert_eq!(
                step(&mut program, 1, (&[0], &[taken])),
                NodeStatus::Continue
            );
            step(&mut program, 2, (&[0], &[taken]));
            assert_eq!(
                (program.neighbors.as_slice(), program.palette.size()),
                (&[1, 3][..], 3)
            );
            let removed = checkpoint(&program);
            // Neighbor 1 does the same; the restore takes back its removal.
            let taken = program.proposal.unwrap();
            step(&mut program, 3, (&[1], &[taken]));
            step(&mut program, 4, (&[1], &[taken]));
            assert_eq!(
                (program.neighbors.as_slice(), program.palette.size()),
                (&[3][..], 2)
            );
            assert_rewinds(&mut program, &removed);
            assert_eq!(program.palette.removed().len(), 1);
        }
    }
}
