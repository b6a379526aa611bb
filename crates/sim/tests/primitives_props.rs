//! Property tests for the communication primitives (vendored proptest).
//!
//! Each property checks an invariant the experiments rely on: prefix sums
//! must be the exact running totals, Lenzen routing must enforce the
//! per-round bandwidth in strict mode, and the distributed sort must be a
//! sort.

use cc_sim::primitives::{distributed_sort, lenzen_route, prefix_sum};
use cc_sim::{ClusterContext, ExecutionModel, SimError, ViolationPolicy};
use proptest::collection::vec;
use proptest::prelude::*;

fn strict_ctx(machines: usize) -> ClusterContext {
    ClusterContext::with_policy(
        ExecutionModel::congested_clique(machines),
        ViolationPolicy::FailFast,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prefix_sum_is_monotone_and_ends_at_the_total(
        values in vec(0u64..1_000_000, 0..64)
    ) {
        let mut ctx = strict_ctx(values.len().max(1));
        let sums = prefix_sum(&mut ctx, "prop", &values);
        prop_assert_eq!(sums.len(), values.len());
        // Monotone non-decreasing (all inputs are non-negative)…
        for window in sums.windows(2) {
            prop_assert!(window[0] <= window[1]);
        }
        // …each entry is the running total, and the last is the full sum.
        let mut acc = 0u64;
        for (i, &v) in values.iter().enumerate() {
            acc += v;
            prop_assert_eq!(sums[i], acc);
        }
        prop_assert_eq!(sums.last().copied().unwrap_or(0), values.iter().sum::<u64>());
    }

    #[test]
    fn lenzen_route_never_admits_loads_beyond_the_bandwidth(
        loads in vec(0usize..40_000, 1..32),
        receive_scale in 0usize..3
    ) {
        let machines = loads.len();
        let mut ctx = strict_ctx(machines);
        let limit = ctx.model().per_round_bandwidth_words;
        let receive: Vec<usize> = loads.iter().map(|&w| w * receive_scale).collect();
        let result = lenzen_route(&mut ctx, "prop", &loads, &receive);
        let max_load = loads.iter().chain(&receive).copied().max().unwrap_or(0);
        if max_load > limit {
            // Strict mode must reject the overload…
            prop_assert!(matches!(result, Err(SimError::ConstraintViolated(_))));
        } else {
            // …and within the limit, routing succeeds with nothing recorded
            // as a violation and the volume accounting counting each sent
            // word exactly once.
            prop_assert!(result.is_ok());
            prop_assert!(ctx.violations().is_empty());
            prop_assert_eq!(
                ctx.communication_words(),
                loads.iter().map(|&w| w as u64).sum::<u64>() + max_load as u64
            );
        }
    }

    #[test]
    fn distributed_sort_agrees_with_a_centralized_sort(
        items in vec(0u64..1_000_000, 0..80)
    ) {
        let mut items = items;
        let mut expected = items.clone();
        expected.sort();
        let mut ctx = strict_ctx(items.len().max(1));
        distributed_sort(&mut ctx, "prop", &mut items, 1).expect("within space");
        prop_assert_eq!(&items, &expected);
        // Sorting must have charged rounds and counted the data volume.
        prop_assert!(ctx.rounds() > 0);
        prop_assert_eq!(ctx.communication_words(), expected.len() as u64);
    }
}
