//! Regenerates the comparison table (E7 in the README's Experiments
//! section). Pass --quick for a fast, smaller-scale run.

fn main() {
    let scale = cc_bench::Args::parse("exp_comparison [--quick]").scale();
    cc_bench::experiments::e7_comparison::run(scale);
}
