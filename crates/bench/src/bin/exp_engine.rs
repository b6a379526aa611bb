//! Regenerates the E9 engine table. Pass --quick for a fast, smaller-scale
//! run; `--threads 1,4` to bench specific worker counts (the speedup column
//! is relative to the first); `--dump PATH` to write engine outputs +
//! ledger digests for a CI determinism diff; `--trace PATH` to capture one
//! recorded run per instance and algorithm, at the largest thread count, as
//! Chrome trace-event JSON (open the file at ui.perfetto.dev) and print the
//! per-round summary tables.

use std::path::PathBuf;

fn main() {
    let scale = cc_bench::Scale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let mut threads: Vec<usize> = cc_bench::experiments::e9_engine::DEFAULT_THREADS.to_vec();
    let mut dump: Option<PathBuf> = None;
    let mut trace: Option<PathBuf> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                let list = args.get(i + 1).expect("--threads needs a value, e.g. 1,4");
                threads = list
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads takes integers"))
                    .collect();
                i += 2;
            }
            "--dump" => {
                dump = Some(PathBuf::from(args.get(i + 1).expect("--dump needs a path")));
                i += 2;
            }
            "--trace" => {
                trace = Some(PathBuf::from(
                    args.get(i + 1)
                        .expect("--trace needs a path, e.g. out.trace.json"),
                ));
                i += 2;
            }
            _ => i += 1,
        }
    }
    cc_bench::experiments::e9_engine::run_with(scale, &threads, dump.as_deref(), trace.as_deref());
}
