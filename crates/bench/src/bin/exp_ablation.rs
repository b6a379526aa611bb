//! Regenerates the ablation table (E8 in the README's Experiments
//! section). Pass --quick for a fast, smaller-scale run.

fn main() {
    let scale = cc_bench::Args::parse("exp_ablation [--quick]").scale();
    cc_bench::experiments::e8_ablation::run(scale);
}
