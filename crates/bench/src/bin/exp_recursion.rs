//! Regenerates the recursion table (E4 in the README's Experiments
//! section). Pass --quick for a fast, smaller-scale run.

fn main() {
    let scale = cc_bench::Args::parse("exp_recursion [--quick]").scale();
    cc_bench::experiments::e4_recursion::run(scale);
}
