//! Property tests for the communication primitives (vendored proptest).
//!
//! Lenzen routing must enforce the per-round bandwidth in strict mode and
//! count each sent word once, an invariant the experiments rely on.

use cc_sim::primitives::lenzen_route;
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
}
