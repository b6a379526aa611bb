//! Regenerates the low_space table (E5 in the README's Experiments
//! section). Pass --quick for a fast, smaller-scale run.

fn main() {
    let scale = cc_bench::Args::parse("exp_low_space [--quick]").scale();
    cc_bench::experiments::e5_low_space::run(scale);
}
