//! Regenerates the correctness table (E6 in the README's Experiments
//! section). Pass --quick for a fast, smaller-scale run.

fn main() {
    let scale = cc_bench::Args::parse("exp_correctness [--quick]").scale();
    cc_bench::experiments::e6_correctness::run(scale);
}
