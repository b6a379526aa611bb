//! E9 — the `cc-runtime` message-passing engine across worker-thread counts.
//!
//! For the trial coloring and Luby MIS, on uniform G(n, p) graphs of several
//! sizes and one power-law graph whose hubs skew the per-group message
//! loads, this runs the engine at every given worker-thread count and
//! *enforces* the engine's determinism guarantee in-process: the outputs
//! and message-ledger digests of every thread count must be identical. It
//! prints one row per instance and algorithm with the rounds, words and
//! in-model flag of the engine's [`cc_sim::ExecutionReport`], which hold at
//! every thread count checked, and `run_with` can dump the outputs and
//! digests to a file so CI can diff two independent processes. An engine
//! run splits a clique only into groups of at least 256 nodes, so instances
//! under 512 nodes run as one group at every thread count.
//!
//! E9 reads no clock, so two runs print the same table. The engine's
//! timings come from perfbench's `stream-t2` workload, which `perf_ab`
//! runs.
//!
//! When a trace path is given, each instance is re-run once per algorithm
//! with a `cc-trace` [`RingRecorder`] attached, at the highest thread
//! count, and must reproduce the untraced outputs and ledger. The captured
//! per-round route/step/check/barrier spans are exported as one Chrome
//! trace-event JSON file — loadable at `ui.perfetto.dev` — and the
//! per-round summary tables, which carry the recorder's span times, are
//! printed.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use cc_mis::engine::{EngineLubyMis, EngineMisOutcome};
use cc_runtime::trace::{ChromeTrace, RingRecorder, TraceSummary};
use cc_runtime::Engine;
use cc_sim::{ExecutionModel, ExecutionReport};
use clique_coloring::baselines::engine_trial::{EngineTrialColoring, EngineTrialOutcome};

use crate::records::{write_json, RunRecord};
use crate::table::Table;
use crate::Scale;

use super::graph_stats;
use cc_graph::csr::CsrGraph;
use cc_graph::generators;
use cc_graph::instance::ListColoringInstance;

/// The thread counts checked by default.
pub const DEFAULT_THREADS: &[usize] = &[1, 2, 4];

/// Edges per node of the skewed-degree (preferential-attachment) workload.
/// Heavy hubs concentrate messages in a few sender chunks, which the trace
/// plane's chunk-imbalance counter makes visible.
pub const POWER_LAW_EDGES_PER_NODE: usize = 8;

/// Runs the experiment with the default thread counts.
pub fn run(scale: Scale) {
    run_with(scale, DEFAULT_THREADS, None, None);
}

/// The workloads: uniform G(n, p) at several sizes plus one power-law
/// graph whose degree skew exercises chunk load imbalance.
fn instances(scale: Scale) -> Vec<(String, CsrGraph)> {
    let sizes = match scale {
        Scale::Quick => vec![200, 400, 512],
        Scale::Full => vec![400, 512, 1600, 3000],
    };
    let mut out = Vec::new();
    for n in sizes {
        // Average degree ~16: sparse enough for an O(log n) phase count,
        // dense enough that messages dominate.
        let p = (16.0 / n as f64).min(0.5);
        out.push((
            format!("gnp-{n}"),
            generators::gnp(n, p, 77).expect("E9 gnp graph"),
        ));
    }
    let plaw_n = match scale {
        Scale::Quick => 400,
        Scale::Full => 1600,
    };
    out.push((
        format!("plaw-{plaw_n}"),
        generators::power_law(plaw_n, POWER_LAW_EDGES_PER_NODE, 77).expect("E9 power-law graph"),
    ));
    out
}

/// Runs the experiment at the given worker-thread counts, optionally
/// dumping every engine output and ledger digest to `dump` (one line per
/// fact) so two separate runs can be diffed byte-for-byte, and optionally
/// writing a Chrome trace-event JSON capture of one traced re-run per
/// instance and algorithm to `trace`.
///
/// # Panics
///
/// Panics if `threads` is empty, or if the engine produces different
/// results or ledgers for different thread counts (or with vs without a
/// recorder attached) — the determinism guarantee is part of what this
/// experiment verifies.
pub fn run_with(scale: Scale, threads: &[usize], dump: Option<&Path>, trace: Option<&Path>) {
    let mut table = Table::new(["instance", "algorithm", "rounds", "words", "in-model"]);
    let mut capture = trace.map(|_| Capture {
        chrome: ChromeTrace::new(),
        processes: 0,
        threads: threads.iter().copied().max().unwrap_or(1),
    });
    let mut records = Vec::new();
    let mut dump_lines: Vec<String> = Vec::new();
    for (label, graph) in instances(scale) {
        let n = graph.node_count();
        let instance = ListColoringInstance::delta_plus_one(&graph).expect("E9 instance");
        let stats = graph_stats(&instance);
        let model = ExecutionModel::congested_clique(n);
        let mut add_row = |algorithm: &str, report: &ExecutionReport, extra: (&str, f64)| {
            table.row([
                label.clone(),
                algorithm.to_string(),
                report.rounds.to_string(),
                report.communication_words.to_string(),
                yes_no(report.within_limits()),
            ]);
            records.push(
                RunRecord::from_report("E9", &label, &format!("{algorithm}/engine"), stats, report)
                    .with_extra(extra.0, extra.1),
            );
        };

        // --- Trial coloring. ---
        let trial = |threads| EngineTrialColoring {
            threads,
            ..EngineTrialColoring::default()
        };
        let same_trial = |a: &EngineTrialOutcome, b: &EngineTrialOutcome| {
            a.outcome.coloring == b.outcome.coloring && a.ledger == b.ledger
        };
        let out = at_every_count("trial coloring", threads, same_trial, |t| {
            let out = trial(t)
                .run(&instance, model.clone())
                .expect("E9 engine trial");
            out.outcome.coloring.verify(&instance).expect("E9 verify");
            out
        });
        if let Some(capture) = capture.as_mut() {
            let runner = trial(capture.threads);
            let recorder = Arc::new(RingRecorder::default());
            let request = runner
                .service_request(&instance, model.clone())
                .expect("E9 trial request");
            let run = Engine::new(request.config)
                .with_recorder(Arc::clone(&recorder))
                .run(request.model, request.programs)
                .expect("E9 traced trial");
            let traced = runner.assemble(&instance, run).expect("E9 traced trial");
            assert!(
                same_trial(&out, &traced),
                "attaching a recorder changed the trial coloring or its ledger"
            );
            capture.add(&format!("{label} trial-coloring"), &recorder, traced.trace);
        }
        add_row(
            "trial-coloring",
            &out.outcome.report,
            ("engine_rounds", out.engine_rounds as f64),
        );
        dump_lines.push(format!("trial {label} digest={:016x}", out.ledger.digest()));
        for (v, c) in out.outcome.coloring.assignments() {
            dump_lines.push(format!("trial {label} {v}={c}"));
        }

        // --- Luby MIS. ---
        let luby = |threads| EngineLubyMis {
            threads,
            ..EngineLubyMis::default()
        };
        let same_luby = |a: &EngineMisOutcome, b: &EngineMisOutcome| {
            a.result == b.result && a.ledger == b.ledger
        };
        let out = at_every_count("MIS", threads, same_luby, |t| {
            let out = luby(t).run(&graph, model.clone()).expect("E9 engine luby");
            cc_mis::verify::verify_mis(&graph, &out.result.in_set).expect("E9 mis verify");
            out
        });
        if let Some(capture) = capture.as_mut() {
            let runner = luby(capture.threads);
            let recorder = Arc::new(RingRecorder::default());
            let request = runner.service_request(&graph, model.clone());
            let run = Engine::new(request.config)
                .with_recorder(Arc::clone(&recorder))
                .run(request.model, request.programs)
                .expect("E9 traced luby");
            let traced = runner.assemble(&graph, run);
            assert!(
                same_luby(&out, &traced),
                "attaching a recorder changed the MIS or its ledger"
            );
            capture.add(&format!("{label} luby-mis"), &recorder, traced.trace);
        }
        add_row(
            "luby-mis",
            &out.report,
            ("phases", out.result.phases as f64),
        );
        dump_lines.push(format!("luby {label} digest={:016x}", out.ledger.digest()));
        for (v, &in_set) in out.result.in_set.iter().enumerate() {
            dump_lines.push(format!("luby {label} v{v}={}", u8::from(in_set)));
        }
    }
    let counts: Vec<String> = threads.iter().map(usize::to_string).collect();
    table.print(&format!(
        "E9  cc-runtime engine: outputs and ledgers identical at threads {}",
        counts.join(", ")
    ));
    write_json("e9_engine", &records);
    if let Some(path) = dump {
        match std::fs::File::create(path) {
            Ok(mut f) => {
                for line in &dump_lines {
                    writeln!(f, "{line}").expect("E9 dump write");
                }
                println!("wrote determinism dump to {}", path.display());
            }
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    if let (Some(capture), Some(path)) = (&capture, trace) {
        match capture.chrome.write_to(path) {
            Ok(()) => println!(
                "wrote Chrome trace ({} events) to {} — load it at ui.perfetto.dev \
                 or chrome://tracing",
                capture.chrome.events(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// Runs `run` at each of `threads` and returns the outcome at the first
/// count, asserting that `same` holds between it and every other outcome.
fn at_every_count<O>(
    what: &str,
    threads: &[usize],
    same: impl Fn(&O, &O) -> bool,
    run: impl Fn(usize) -> O,
) -> O {
    let (&first, rest) = threads.split_first().expect("E9 needs a thread count");
    let reference = run(first);
    for &t in rest {
        assert!(
            same(&reference, &run(t)),
            "engine {what} or its ledger differs between {first} and {t} threads"
        );
    }
    reference
}

/// The `--trace` capture: one Chrome trace-event process per traced run.
struct Capture {
    chrome: ChromeTrace,
    processes: u32,
    /// The thread count of every traced run: the highest one checked.
    threads: usize,
}

impl Capture {
    /// Adds a traced run's events as the next process and prints its
    /// per-round summary.
    fn add(&mut self, name: &str, recorder: &RingRecorder, summary: Option<TraceSummary>) {
        let name = format!("{name} t={}", self.threads);
        self.chrome
            .add_process(self.processes, &name, &recorder.events());
        self.processes += 1;
        let summary = summary.expect("recorded run carries a trace summary");
        println!("\ntrace: {name}");
        print!("{}", summary.render());
    }
}

fn yes_no(b: bool) -> String {
    if b { "yes" } else { "NO" }.to_string()
}
