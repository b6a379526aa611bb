//! Regenerates the space table (E2 in the README's Experiments
//! section). Pass --quick for a fast, smaller-scale run.

fn main() {
    let scale = cc_bench::Args::parse("exp_space [--quick]").scale();
    cc_bench::experiments::e2_space::run(scale);
}
