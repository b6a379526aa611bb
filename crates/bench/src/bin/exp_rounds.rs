//! Regenerates the rounds table (E1 in the README's Experiments
//! section). Pass --quick for a fast, smaller-scale run.

fn main() {
    let scale = cc_bench::Args::parse("exp_rounds [--quick]").scale();
    cc_bench::experiments::e1_rounds::run(scale);
}
