//! Regenerates the bad_nodes table (E3 in the README's Experiments
//! section). Pass --quick for a fast, smaller-scale run.

fn main() {
    let scale = cc_bench::Args::parse("exp_bad_nodes [--quick]").scale();
    cc_bench::experiments::e3_bad_nodes::run(scale);
}
