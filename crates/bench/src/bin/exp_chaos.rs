//! Regenerates the E11 chaos-soak table: seeded `cc-fault` plans (message
//! drop/duplicate/corrupt sweeps, stalls, crash-stop schedules) against the
//! engine's checkpoint/retry recovery, with recovery-rate and retry-overhead
//! columns. Pass --quick for a fast, smaller-scale run; `--threads 1,4` to
//! sweep specific worker counts; `--json PATH` to also write the JSON
//! records to PATH (e.g. `e11.chaos.json` for the CI artifact) in addition
//! to the `target/experiments/e11_chaos.json` copy.

use std::path::Path;

use cc_bench::experiments::e11_chaos;

fn main() {
    let args = cc_bench::Args::parse("exp_chaos [--quick] [--threads LIST] [--json PATH]");
    e11_chaos::run_with(
        args.scale(),
        &args.threads(e11_chaos::DEFAULT_THREADS),
        args.value("--json").map(Path::new),
    );
}
