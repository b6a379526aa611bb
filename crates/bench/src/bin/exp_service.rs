//! E10: batched service throughput vs the reusable-handle solo loop.
//! Pass --quick for a fast, smaller-scale run.

fn main() {
    let scale = cc_bench::Args::parse("exp_service [--quick]").scale();
    cc_bench::experiments::e10_service::run(scale);
}
