//! Runs every experiment (E1–E9 and E11) in sequence. Pass --quick for a fast run.

fn main() {
    let scale = cc_bench::Args::parse("run_all [--quick]").scale();
    println!("running all experiments at {scale:?} scale");
    cc_bench::experiments::e1_rounds::run(scale);
    cc_bench::experiments::e2_space::run(scale);
    cc_bench::experiments::e3_bad_nodes::run(scale);
    cc_bench::experiments::e4_recursion::run(scale);
    cc_bench::experiments::e5_low_space::run(scale);
    cc_bench::experiments::e6_correctness::run(scale);
    cc_bench::experiments::e7_comparison::run(scale);
    cc_bench::experiments::e8_ablation::run(scale);
    cc_bench::experiments::e9_engine::run(scale);
    cc_bench::experiments::e11_chaos::run(scale);
}
