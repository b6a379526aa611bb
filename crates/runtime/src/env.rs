//! The per-node, per-round view a [`crate::program::NodeProgram`] runs
//! against.

use crate::columns::{Inbox, Staging};

/// What one node sees during one round: its identity, the messages delivered
/// to it this round, and the sends it makes.
///
/// The environment is handed to [`crate::program::NodeProgram::on_round`] by
/// the engine. Everything here is local to the node — a program can not
/// observe any other node's state, which is what makes parallel execution
/// sound. Sends are appended straight into the owning execution group's
/// columnar staging arena, which counts them per destination as they land;
/// the inbox is a zero-copy view over the previous round's sorted arenas.
#[derive(Debug)]
pub struct NodeEnv<'a> {
    node: u32,
    n: usize,
    round: u64,
    inbox: Inbox<'a>,
    outbox: &'a mut Staging,
}

impl<'a> NodeEnv<'a> {
    /// An environment for `node` of an `n`-node clique in `round`, reading
    /// `inbox` and appending sends to `outbox`.
    ///
    /// # Panics
    ///
    /// Panics if `outbox`'s count shard was not built for `n` nodes.
    pub(crate) fn new(
        node: u32,
        n: usize,
        round: u64,
        inbox: Inbox<'a>,
        outbox: &'a mut Staging,
    ) -> Self {
        assert_eq!(
            outbox.counts().len(),
            n,
            "staging count shard was built for a different clique size"
        );
        NodeEnv {
            node,
            n,
            round,
            inbox,
            outbox,
        }
    }

    /// This node's id in `0..n`.
    #[inline]
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Number of nodes in the clique.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current round, starting from 0.
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The messages delivered to this node this round (sent by other nodes
    /// last round), ordered by sender id.
    ///
    /// The view is `Copy` and independent of the environment borrow, so a
    /// program can iterate it while sending.
    #[inline]
    pub fn inbox(&self) -> Inbox<'a> {
        self.inbox
    }

    // The per-send path of every program: stays allocation-free.
    // cc-lint: region(no_alloc)

    /// Sends one word to `dst`, to be delivered next round.
    ///
    /// The engine checks the word width and this node's per-round send
    /// budget at delivery time, so a program can not observe global state
    /// through error paths. Only the destination range is checked here —
    /// it is local knowledge, and an out-of-range id is a program bug, not
    /// a model violation: it would corrupt the router's counting sort, so
    /// it is rejected at the door.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is outside `0..n`.
    #[inline]
    pub fn send(&mut self, dst: u32, word: u64) {
        assert!(
            (dst as usize) < self.n,
            "node {} sent to non-existent node {dst} (n = {})",
            self.node,
            self.n
        );
        self.outbox.push(self.node, dst, word);
    }

    /// Sends `word` to every node in `dsts`.
    pub fn send_to_all(&mut self, dsts: impl IntoIterator<Item = u32>, word: u64) {
        for dst in dsts {
            self.send(dst, word);
        }
    }

    /// Sends `word` to every node in `dsts` — the bulk form of
    /// [`NodeEnv::send`], appended column-wise in one operation. Prefer it
    /// when the destinations are already a slice (a neighbor list, say).
    ///
    /// # Panics
    ///
    /// Panics if any destination is outside `0..n`.
    #[inline]
    pub fn send_slice(&mut self, dsts: &[u32], word: u64) {
        let max = dsts.iter().copied().max().unwrap_or(0);
        assert!(
            (max as usize) < self.n || dsts.is_empty(),
            "node {} sent to non-existent node {max} (n = {})",
            self.node,
            self.n
        );
        self.outbox.push_all(self.node, dsts, word);
    }

    /// Sends `word` to every other node in the clique.
    pub fn broadcast(&mut self, word: u64) {
        for dst in 0..self.n as u32 {
            if dst != self.node {
                self.send(dst, word);
            }
        }
    }
    // cc-lint: end_region
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::InboxSegment;

    #[test]
    fn send_and_broadcast_fill_the_outbox() {
        let segment: InboxSegment<'_> = (&[2], &[9]);
        let segments = [segment];
        let inbox = Inbox::new(1, &segments);
        let mut outbox = Staging::new(4);
        let mut env = NodeEnv::new(1, 4, 3, inbox, &mut outbox);
        assert_eq!(env.node(), 1);
        assert_eq!(env.n(), 4);
        assert_eq!(env.round(), 3);
        assert_eq!(env.inbox().len(), 1);
        assert_eq!(env.inbox().iter().next().unwrap().src, 2);
        env.send(0, 7);
        env.send_to_all([2, 3], 8);
        env.broadcast(5);
        // Every send is stamped with the sender, in send order; broadcast
        // skips the sender itself.
        assert_eq!(outbox.src(), &[1; 6]);
        assert_eq!(outbox.dst(), &[0, 2, 3, 0, 2, 3]);
        assert_eq!(outbox.word(), &[7, 8, 8, 5, 5, 5]);
        // The count shard tracked every send: one to node 0 (plus a
        // broadcast copy), one each to 2 and 3 (plus broadcast copies).
        assert_eq!(outbox.counts(), &[2, 0, 2, 2]);
    }

    #[test]
    fn send_slice_stages_what_repeated_sends_do() {
        let dsts = [3, 0, 3, 1];
        let mut bulk = Staging::new(5);
        NodeEnv::new(2, 5, 0, Inbox::empty(2), &mut bulk).send_slice(&dsts, 6);
        let mut single = Staging::new(5);
        let mut env = NodeEnv::new(2, 5, 0, Inbox::empty(2), &mut single);
        for dst in dsts {
            env.send(dst, 6);
        }
        assert_eq!(bulk.len(), 4);
        assert_eq!(bulk.src(), single.src());
        assert_eq!(bulk.dst(), single.dst());
        assert_eq!(bulk.word(), single.word());
        assert_eq!(bulk.counts(), single.counts());
        assert_eq!(bulk.counts(), &[1, 1, 0, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "non-existent node 2 (n = 2)")]
    fn send_rejects_out_of_range_destinations() {
        let mut outbox = Staging::new(2);
        NodeEnv::new(0, 2, 0, Inbox::empty(0), &mut outbox).send(2, 1);
    }

    #[test]
    #[should_panic(expected = "non-existent node 4 (n = 3)")]
    fn send_slice_rejects_out_of_range_destinations() {
        let mut outbox = Staging::new(3);
        NodeEnv::new(0, 3, 0, Inbox::empty(0), &mut outbox).send_slice(&[1, 4, 2], 1);
    }

    #[test]
    fn inbox_view_outlives_the_env_borrow() {
        let inbox = Inbox::empty(0);
        let mut outbox = Staging::new(2);
        let mut env = NodeEnv::new(0, 2, 0, inbox, &mut outbox);
        let view = env.inbox();
        // Holding the view while sending compiles because the view is Copy
        // and borrows the arenas, not the env.
        env.send(1, 1);
        assert!(view.is_empty());
    }
}
