//! Assignment of weighted items (nodes with their edges and palettes) to
//! machines.
//!
//! The paper distributes data so that "each node will be assigned a machine,
//! which will store all of its adjacent edges" (Section 3.3), using
//! O(1 + 𝔪/𝔫) machines in total. [`Distribution`] performs that packing and
//! reports the per-machine loads, which the algorithms feed into the space
//! ledger.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An assignment of items to machines together with the resulting loads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distribution {
    machine_of: Vec<usize>,
    loads: Vec<usize>,
}

impl Distribution {
    /// Spreads items across exactly `machines` machines, assigning each item
    /// to the currently least-loaded machine, the lowest-numbered one among
    /// equals (longest-processing-time style balancing without the sort,
    /// keeping item order deterministic). A min-heap of `(load, machine)`
    /// finds that machine in O(log machines) steps.
    ///
    /// # Panics
    ///
    /// Panics if `machines == 0`.
    pub fn pack_balanced(item_words: &[usize], machines: usize) -> Self {
        assert!(machines > 0, "need at least one machine");
        let mut loads = vec![0usize; machines];
        let mut least_loaded: BinaryHeap<Reverse<(usize, usize)>> =
            (0..machines).map(|m| Reverse((0, m))).collect();
        let machine_of = item_words
            .iter()
            .map(|&w| {
                let mut top = least_loaded.peek_mut().expect("one entry per machine");
                let Reverse((load, target)) = *top;
                *top = Reverse((load + w, target));
                loads[target] = load + w;
                target
            })
            .collect();
        Distribution { machine_of, loads }
    }

    /// The machine assigned to item `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn machine_of(&self, i: usize) -> usize {
        self.machine_of[i]
    }

    /// Number of machines used.
    pub fn machines_used(&self) -> usize {
        self.loads.len()
    }

    /// Load (in words) of each machine.
    pub fn loads(&self) -> &[usize] {
        &self.loads
    }

    /// The largest per-machine load.
    pub fn max_load(&self) -> usize {
        self.loads.iter().copied().max().unwrap_or(0)
    }

    /// The total load across machines.
    pub fn total_load(&self) -> usize {
        self.loads.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The linear scan `pack_balanced` used before its heap: every item goes
    /// to the least-loaded machine, the lowest-numbered among equals.
    fn pack_balanced_by_scan(item_words: &[usize], machines: usize) -> Distribution {
        let mut loads = vec![0usize; machines];
        let mut machine_of = Vec::with_capacity(item_words.len());
        for &w in item_words {
            let (target, _) = loads
                .iter()
                .enumerate()
                .min_by_key(|(i, &l)| (l, *i))
                .expect("non-empty loads");
            loads[target] += w;
            machine_of.push(target);
        }
        Distribution { machine_of, loads }
    }

    proptest! {
        /// The heap assigns every item where the scan does, ties included:
        /// weights from 0 to 3 (many zero-weight items and equal loads), on
        /// fewer machines than items, as many, and more.
        #[test]
        fn balanced_heap_matches_the_linear_scan(
            items in proptest::collection::vec(0usize..4, 1..48),
            spare in 1usize..8,
        ) {
            for machines in [items.len().div_ceil(2), items.len(), items.len() + spare] {
                prop_assert_eq!(
                    Distribution::pack_balanced(&items, machines),
                    pack_balanced_by_scan(&items, machines)
                );
            }
        }
    }

    #[test]
    fn balanced_spreads_loads() {
        let items = vec![5, 1, 1, 1, 1, 1];
        let d = Distribution::pack_balanced(&items, 3);
        assert_eq!(d.machines_used(), 3);
        assert_eq!(d.total_load(), 10);
        // The big item sits alone-ish: max load should be 5, not 10.
        assert_eq!(d.max_load(), 5);
    }

    #[test]
    fn balanced_is_deterministic() {
        let items = vec![2, 2, 2, 2];
        let a = Distribution::pack_balanced(&items, 2);
        let b = Distribution::pack_balanced(&items, 2);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "need at least one machine")]
    fn balanced_rejects_zero_machines() {
        let _ = Distribution::pack_balanced(&[1], 0);
    }
}
