//! End-to-end and per-layer benchmark of the congested-clique coloring
//! stack. See `README.md` in this directory for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one detail line (host fingerprint, sample summaries) and, last,
//! the result line: `{"correct", "attempted", "failed", "metrics"}` with
//! the end-to-end metrics, or with `--trace 1` the per-layer metrics.

mod clock;
mod pipeline;
mod report;
mod stats;
mod stream;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Checks, Measured};

type Error = Box<dyn std::error::Error>;

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["cr-dense", "cr-plaw-list", "stream-t2"];

/// Times set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 11;

/// Command-line arguments of one run.
#[derive(Debug)]
pub struct RunArgs {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

impl RunArgs {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, Error> {
        let mut run = RunArgs {
            workload: String::new(),
            seed: 1,
            seconds: Duration::from_secs(20),
            trace: false,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => run.workload = value,
                "--seed" => run.seed = value.parse()?,
                "--seconds" => run.seconds = Duration::from_secs_f64(value.parse()?),
                "--trace" => {
                    run.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}").into()),
            }
        }
        if !WORKLOADS.contains(&run.workload.as_str()) {
            return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")).into());
        }
        Ok(run)
    }
}

/// The measuring window of a run: another iteration starts only while it
/// is expected to end inside the window (at least one always runs).
pub struct Window {
    start: Instant,
    seconds: Duration,
    last: Option<Instant>,
}

impl Window {
    pub fn new(seconds: Duration) -> Self {
        Window {
            start: Instant::now(),
            seconds,
            last: None,
        }
    }

    /// Whether to start another iteration, judged by the last one's length.
    pub fn more(&mut self) -> bool {
        let now = Instant::now();
        let Some(previous) = self.last.replace(now) else {
            return true;
        };
        now - self.start + (now - previous) <= self.seconds
    }
}

/// A generator seed for input `tag` of a run with seed `seed`
/// (splitmix64 of the pair).
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `make` [`SETUP_REPEATS`] times, records the median time (see
/// [`clock`]) as `setup_s`, and returns the last product.
pub fn timed_setup<T>(
    out: &mut Measured,
    mut make: impl FnMut() -> Result<T, Error>,
) -> Result<T, Error> {
    let mut walls = Vec::with_capacity(SETUP_REPEATS);
    let mut product = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous product first so its memory is reused.
        drop(product.take());
        let watch = clock::Stopwatch::start();
        product = Some(make()?);
        walls.push(watch.lap().seconds());
    }
    out.set("setup_s", stats::median(&walls));
    out.samples("setup_s", &walls);
    Ok(product.expect("at least one set-up"))
}

fn run(args: &RunArgs) -> Result<(Checks, Measured), Error> {
    let mut checks = Checks::default();
    let mut out = Measured::default();
    let threads = match args.workload.as_str() {
        "stream-t2" => 2,
        _ => 1,
    };
    out.detail("workload", report::text(&args.workload));
    out.detail("seed", args.seed.to_string());
    out.detail("seconds", report::num(args.seconds.as_secs_f64()));
    out.detail("trace", args.trace.to_string());
    out.detail("host", report::fingerprint(threads));
    let watch = clock::Stopwatch::start();
    match args.workload.as_str() {
        "cr-dense" => pipeline::run(pipeline::Shape::Dense, args, &mut checks, &mut out)?,
        "cr-plaw-list" => {
            pipeline::run(pipeline::Shape::PowerLawList, args, &mut checks, &mut out)?
        }
        _ => stream::run(threads, args, &mut checks, &mut out)?,
    }
    let stolen = 1.0 - watch.lap().kept;
    out.detail("host_steal_pct", report::num(stolen * 100.0));
    out.set("peak_rss_mb", report::peak_rss_mb());
    out.set(
        "error_rate",
        stats::error_rate(checks.failed, checks.attempted),
    );
    Ok((checks, out))
}

fn main() -> ExitCode {
    let args = match RunArgs::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((checks, out)) => {
            println!("{}", out.detail_line());
            println!("{}", out.result_line(&checks, args.trace));
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
