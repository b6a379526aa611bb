//! Regenerates the E9 engine table. Pass --quick for a fast, smaller-scale
//! run; `--threads 1,4` to check specific worker counts against each other
//! (every count must give the same outputs and ledgers); `--dump PATH` to
//! write engine outputs + ledger digests for a CI determinism diff;
//! `--trace PATH` to capture one recorded run per instance and algorithm,
//! at the largest thread count, as Chrome trace-event JSON (open the file
//! at ui.perfetto.dev) and print the per-round summary tables.

use std::path::Path;

use cc_bench::experiments::e9_engine;

fn main() {
    let args =
        cc_bench::Args::parse("exp_engine [--quick] [--threads LIST] [--dump PATH] [--trace PATH]");
    e9_engine::run_with(
        args.scale(),
        &args.threads(e9_engine::DEFAULT_THREADS),
        args.value("--dump").map(Path::new),
        args.value("--trace").map(Path::new),
    );
}
