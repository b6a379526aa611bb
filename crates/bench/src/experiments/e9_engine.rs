//! E9 — the `cc-runtime` message-passing engine across worker-thread counts.
//!
//! For the trial coloring and Luby MIS, this measures the engine's
//! wall-clock at several worker-thread counts, across graph sizes (uniform
//! G(n, p) and a skewed power-law workload whose hubs stress per-chunk load
//! balance). The speedup column is each run's wall-clock relative to the
//! run at the first thread count (t = 1 by default). An engine run splits
//! a clique only into groups of at least 256 nodes, so instances under 512
//! nodes run as one group at every thread count and their speedups read
//! about 1.0 by design. Model-accounting
//! columns (rounds, words, in-model) come from the engine's
//! [`cc_sim::ExecutionReport`]. The experiment also *enforces* the engine's
//! determinism guarantee in-process: the outputs and message-ledger digests
//! of every thread count must be identical, and `run_with` can dump them to
//! a file so CI can diff two independent processes.
//!
//! When a trace path is given, each instance is re-run once per algorithm
//! with a `cc-trace` [`RingRecorder`] attached (at the highest benched
//! thread count, outside the timed runs so the wall-clock columns stay
//! clean). The captured per-round route/step/check/barrier spans are
//! exported as one Chrome trace-event JSON file — loadable at
//! `ui.perfetto.dev` — and the per-round summary tables are printed.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cc_mis::engine::EngineLubyMis;
use cc_runtime::trace::{ChromeTrace, RingRecorder};
use cc_runtime::{Engine, EngineConfig, FaultPlan, NodeEnv, NodeProgram, NodeStatus};
use cc_sim::ExecutionModel;
use clique_coloring::baselines::engine_trial::EngineTrialColoring;

use crate::records::{write_json, RunRecord};
use crate::table::Table;
use crate::Scale;

use super::graph_stats;
use cc_graph::csr::CsrGraph;
use cc_graph::generators;
use cc_graph::instance::ListColoringInstance;

/// The thread counts benched by default.
pub const DEFAULT_THREADS: &[usize] = &[1, 2, 4];

/// Edges per node of the skewed-degree (preferential-attachment) workload.
/// Heavy hubs concentrate messages in a few sender chunks, which the trace
/// plane's chunk-imbalance counter makes visible.
pub const POWER_LAW_EDGES_PER_NODE: usize = 8;

/// Runs the experiment with the default thread sweep.
pub fn run(scale: Scale) {
    run_with(scale, DEFAULT_THREADS, None, None);
}

/// The benched workloads: uniform G(n, p) at several sizes plus one
/// power-law graph whose degree skew exercises chunk load imbalance.
fn instances(scale: Scale) -> Vec<(String, CsrGraph)> {
    // BENCH_N (512) is included at both scales so the table's before/after
    // ns/msg column covers the size the tracked benchmark record uses.
    let sizes = match scale {
        Scale::Quick => vec![200, 400, BENCH_N],
        Scale::Full => vec![400, BENCH_N, 1600, 3000],
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

/// Runs the experiment for the given worker-thread counts, optionally
/// dumping every engine output and ledger digest to `dump` (one line per
/// fact, sorted) so two separate runs can be diffed byte-for-byte, and
/// optionally writing a Chrome trace-event JSON capture of one traced
/// re-run per instance and algorithm to `trace`.
///
/// # Panics
///
/// Panics if the engine produces different results or ledgers for different
/// thread counts (or with vs without a recorder attached) — the determinism
/// guarantee is part of what this experiment verifies.
pub fn run_with(scale: Scale, threads: &[usize], dump: Option<&Path>, trace: Option<&Path>) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "E9 host parallelism: {host_cpus} CPU(s). The engine's step phase is \
         parallel and its merge phase is O(chunks*n); multi-thread wall-clock \
         gains require host_cpus > 1 — on a single-CPU host, thread counts \
         only time-share and the speedup column stays flat."
    );
    let mut table = Table::new([
        "instance",
        "algorithm",
        "threads",
        "rounds",
        "words",
        "wall (ms)",
        "barrier (us)",
        "ns/msg",
        "ns/msg @PR2",
        "speedup",
        "in-model",
    ]);
    // On a 1-CPU host the engine's thread counts only time-share, so the
    // speedup column is honest but flat; label it so readers do not
    // misread it as a parallel-scaling result.
    let speedup_cell = |ratio: f64| {
        if host_cpus == 1 {
            format!("{ratio:.2} (serial host)")
        } else {
            format!("{ratio:.2}")
        }
    };
    let barrier_us = |barrier_wait_ns: u64| (barrier_wait_ns / 1_000).to_string();
    let traced_threads = threads.iter().copied().max().unwrap_or(1);
    let mut chrome = trace.map(|_| ChromeTrace::new());
    let mut next_pid: u32 = 0;
    let mut records = Vec::new();
    let mut dump_lines: Vec<String> = Vec::new();
    for (label, graph) in instances(scale) {
        let n = graph.node_count();
        let instance = ListColoringInstance::delta_plus_one(&graph).expect("E9 instance");
        let stats = graph_stats(&instance);
        let model = ExecutionModel::congested_clique(n);

        // --- Trial coloring: engine at each thread count. ---
        let mut reference: Option<clique_coloring::baselines::engine_trial::EngineTrialOutcome> =
            None;
        let mut first_ms: Option<f64> = None;
        for &t in threads {
            let runner = EngineTrialColoring {
                threads: t,
                ..EngineTrialColoring::default()
            };
            let start = Instant::now();
            let out = runner
                .run(&instance, model.clone())
                .expect("E9 engine trial");
            let ms = start.elapsed().as_secs_f64() * 1e3;
            out.outcome.coloring.verify(&instance).expect("E9 verify");
            if let Some(reference) = &reference {
                assert_eq!(
                    reference.outcome.coloring, out.outcome.coloring,
                    "engine trial coloring differs between thread counts"
                );
                assert_eq!(
                    reference.ledger, out.ledger,
                    "engine trial ledger differs between thread counts"
                );
            }
            let ns_per_msg = ms * 1e6 / out.ledger.total_messages().max(1) as f64;
            let speedup = *first_ms.get_or_insert(ms) / ms;
            table.row([
                label.clone(),
                "trial-coloring".into(),
                t.to_string(),
                out.outcome.report.rounds.to_string(),
                out.outcome.report.communication_words.to_string(),
                format!("{ms:.1}"),
                barrier_us(out.timings.barrier_wait_ns),
                format!("{ns_per_msg:.0}"),
                pr2_cell("trial", &label, t),
                speedup_cell(speedup),
                yes_no(out.outcome.report.within_limits()),
            ]);
            records.push(
                RunRecord::from_report(
                    "E9",
                    &label,
                    &format!("trial-coloring/engine-t{t}"),
                    stats,
                    &out.outcome.report,
                )
                .with_extra("threads", t as f64)
                .with_extra("host_cpus", host_cpus as f64)
                .with_extra("wall_ms", ms)
                .with_extra("speedup_vs_first_threads", speedup)
                .with_extra("ns_per_message", ns_per_msg)
                .with_extra("route_ns", out.timings.route_ns as f64)
                .with_extra("step_ns", out.timings.step_ns as f64)
                .with_extra("check_ns", out.timings.check_ns as f64)
                .with_extra("barrier_wait_ns", out.timings.barrier_wait_ns as f64)
                .with_extra("engine_rounds", out.engine_rounds as f64),
            );
            if reference.is_none() {
                dump_lines.push(format!("trial {label} digest={:016x}", out.ledger.digest()));
                for (v, c) in out.outcome.coloring.assignments() {
                    dump_lines.push(format!("trial {label} {v}={c}"));
                }
                reference = Some(out);
            }
        }

        // --- Trial coloring: traced re-run (outside the timed loops). ---
        if let Some(chrome) = chrome.as_mut() {
            let runner = EngineTrialColoring {
                threads: traced_threads,
                ..EngineTrialColoring::default()
            };
            let recorder = Arc::new(RingRecorder::default());
            let request = runner
                .service_request(&instance, model.clone())
                .expect("E9 trial request");
            let run = Engine::new(request.config)
                .with_recorder(Arc::clone(&recorder))
                .run(request.model, request.programs)
                .expect("E9 traced trial");
            let out = runner.assemble(&instance, run).expect("E9 traced trial");
            let reference = reference.as_ref().expect("timed runs precede traced run");
            assert_eq!(
                reference.outcome.coloring, out.outcome.coloring,
                "attaching a recorder changed the trial coloring"
            );
            assert_eq!(
                reference.ledger, out.ledger,
                "attaching a recorder changed the trial ledger"
            );
            chrome.add_process(
                next_pid,
                &format!("{label} trial-coloring t={traced_threads}"),
                &recorder.events(),
            );
            next_pid += 1;
            let summary = out.trace.expect("recorded run carries a trace summary");
            println!("\ntrace: {label} / trial-coloring (t={traced_threads})");
            print!("{}", summary.render());
        }

        // --- Luby MIS: engine at each thread count. ---
        let mut mis_reference: Option<cc_mis::engine::EngineMisOutcome> = None;
        let mut first_ms: Option<f64> = None;
        for &t in threads {
            let runner = EngineLubyMis {
                threads: t,
                ..EngineLubyMis::default()
            };
            let start = Instant::now();
            let out = runner.run(&graph, model.clone()).expect("E9 engine luby");
            let ms = start.elapsed().as_secs_f64() * 1e3;
            cc_mis::verify::verify_mis(&graph, &out.result.in_set).expect("E9 mis verify");
            if let Some(reference) = &mis_reference {
                assert_eq!(
                    reference.result, out.result,
                    "engine MIS differs between thread counts"
                );
                assert_eq!(
                    reference.ledger, out.ledger,
                    "engine MIS ledger differs between thread counts"
                );
            }
            let ns_per_msg = ms * 1e6 / out.ledger.total_messages().max(1) as f64;
            let speedup = *first_ms.get_or_insert(ms) / ms;
            table.row([
                label.clone(),
                "luby-mis".into(),
                t.to_string(),
                out.report.rounds.to_string(),
                out.report.communication_words.to_string(),
                format!("{ms:.1}"),
                barrier_us(out.timings.barrier_wait_ns),
                format!("{ns_per_msg:.0}"),
                pr2_cell("luby", &label, t),
                speedup_cell(speedup),
                yes_no(out.report.within_limits()),
            ]);
            records.push(
                RunRecord::from_report(
                    "E9",
                    &label,
                    &format!("luby-mis/engine-t{t}"),
                    stats,
                    &out.report,
                )
                .with_extra("threads", t as f64)
                .with_extra("host_cpus", host_cpus as f64)
                .with_extra("wall_ms", ms)
                .with_extra("speedup_vs_first_threads", speedup)
                .with_extra("ns_per_message", ns_per_msg)
                .with_extra("route_ns", out.timings.route_ns as f64)
                .with_extra("step_ns", out.timings.step_ns as f64)
                .with_extra("check_ns", out.timings.check_ns as f64)
                .with_extra("barrier_wait_ns", out.timings.barrier_wait_ns as f64)
                .with_extra("phases", out.result.phases as f64),
            );
            if mis_reference.is_none() {
                dump_lines.push(format!("luby {label} digest={:016x}", out.ledger.digest()));
                for (v, &in_set) in out.result.in_set.iter().enumerate() {
                    dump_lines.push(format!("luby {label} v{v}={}", u8::from(in_set)));
                }
                mis_reference = Some(out);
            }
        }

        // --- Luby MIS: traced re-run (outside the timed loops). ---
        if let Some(chrome) = chrome.as_mut() {
            let runner = EngineLubyMis {
                threads: traced_threads,
                ..EngineLubyMis::default()
            };
            let recorder = Arc::new(RingRecorder::default());
            let request = runner.service_request(&graph, model.clone());
            let run = Engine::new(request.config)
                .with_recorder(Arc::clone(&recorder))
                .run(request.model, request.programs)
                .expect("E9 traced luby");
            let out = runner.assemble(&graph, run);
            let reference = mis_reference
                .as_ref()
                .expect("timed runs precede traced run");
            assert_eq!(
                reference.result, out.result,
                "attaching a recorder changed the MIS"
            );
            assert_eq!(
                reference.ledger, out.ledger,
                "attaching a recorder changed the MIS ledger"
            );
            chrome.add_process(
                next_pid,
                &format!("{label} luby-mis t={traced_threads}"),
                &recorder.events(),
            );
            next_pid += 1;
            let summary = out.trace.expect("recorded run carries a trace summary");
            println!("\ntrace: {label} / luby-mis (t={traced_threads})");
            print!("{}", summary.render());
        }
    }
    table.print("E9  cc-runtime engine across worker-thread counts (speedup vs the first count)");
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
    if let (Some(chrome), Some(path)) = (&chrome, trace) {
        match chrome.write_to(path) {
            Ok(()) => println!(
                "wrote Chrome trace ({} events) to {} — load it at ui.perfetto.dev \
                 or chrome://tracing",
                chrome.events(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

fn yes_no(b: bool) -> String {
    if b { "yes" } else { "NO" }.to_string()
}

/// ns/msg measured at the PR 2 router (pre-columnar, `Vec<Message>`
/// arenas) on the reference 1-CPU dev host, single worker thread — the
/// "before" of the table's before/after column. Rows without a recorded
/// baseline (including the power-law workload, added later) show "-".
fn pr2_ns_per_msg(algorithm: &str, label: &str, threads: usize) -> Option<f64> {
    if threads != 1 {
        return None;
    }
    match (algorithm, label) {
        ("trial", "gnp-200") => Some(99.8),
        ("trial", "gnp-400") => Some(102.8),
        ("trial", "gnp-512") => Some(71.4),
        ("luby", "gnp-200") => Some(78.3),
        ("luby", "gnp-400") => Some(88.8),
        _ => None,
    }
}

fn pr2_cell(algorithm: &str, label: &str, threads: usize) -> String {
    pr2_ns_per_msg(algorithm, label, threads).map_or_else(|| "-".to_string(), |v| format!("{v:.0}"))
}

/// The instance size used for the tracked message-plane benchmark record.
pub const BENCH_N: usize = 512;

/// One tracked measurement of the engine message plane, serialized as a
/// flat JSON record so CI can diff the perf trajectory across PRs (the
/// committed history is `BENCH_BASELINE_PR2.json`, `BENCH_PR3.json`, and
/// `BENCH_PR8.json`; each CI run writes a fresh `BENCH_CURRENT.json` next
/// to them).
#[derive(Debug, Clone)]
pub struct PlaneBenchRecord {
    /// Nodes in the benched instance.
    pub n: usize,
    /// Host CPU count (1 means the speedup column is time-sharing).
    pub host_cpus: usize,
    /// Engine rounds executed (barriers passed).
    pub engine_rounds: u64,
    /// Messages the engine delivered.
    pub total_messages: u64,
    /// Wall-clock of the best run, in milliseconds.
    pub wall_ms: f64,
    /// Wall-clock per delivered message, in nanoseconds (best of 3 runs).
    pub ns_per_msg: f64,
    /// Per-phase breakdown of the best run, in nanoseconds:
    /// (route, step, check). Zero when the engine does not report timings.
    pub phase_ns: (u64, u64, u64),
    /// Summed per-chunk barrier wait of the best run, in nanoseconds
    /// (absent from records written before the trace plane existed).
    pub barrier_wait_ns: u64,
    /// ns/msg of the all-to-one hot-receiver blast (one maximal
    /// destination group; absent from records written before PR 8).
    pub hot_ns_per_msg: f64,
    /// ns/msg of the power-law-destination blast (a few receivers carry
    /// most of the load; absent from records written before PR 8).
    pub plaw_ns_per_msg: f64,
    /// ns/msg of the same trial-coloring workload with a zero-rate
    /// `cc-fault` `FaultPlan` armed: checkpointing and damage checks run
    /// every round but no fault ever fires, so the delta against
    /// `ns_per_msg` is the price of *arming* the fault plane (absent from
    /// records written before the fault plane existed).
    pub fault_ns_per_msg: f64,
    /// Requests/sec of the batched `ColoringService` on the tracked E10
    /// sample (uniform small-instance mix, 8 slots, threads = 2; absent
    /// from records written before the service existed).
    pub service_rps: f64,
    /// Requests/sec of the reusable-handle solo loop on the same sample
    /// and thread count — the baseline `service_rps` is gated against.
    pub solo_rps: f64,
}

impl PlaneBenchRecord {
    /// Serializes the record as a single flat JSON object. `ns_per_msg`
    /// stays the first `*ns_per_msg` key: `bench_delta` matches keys with
    /// their opening quote, but keeping the headline number up front keeps
    /// the record readable in diffs.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"engine-trial-coloring\",\n  \"n\": {},\n  \
             \"host_cpus\": {},\n  \"engine_rounds\": {},\n  \
             \"total_messages\": {},\n  \"wall_ms\": {:.3},\n  \
             \"ns_per_msg\": {:.2},\n  \"route_ns\": {},\n  \"step_ns\": {},\n  \
             \"check_ns\": {},\n  \"barrier_wait_ns\": {},\n  \
             \"hot_ns_per_msg\": {:.2},\n  \"plaw_ns_per_msg\": {:.2},\n  \
             \"fault_ns_per_msg\": {:.2},\n  \"service_rps\": {:.1},\n  \
             \"solo_rps\": {:.1}\n}}\n",
            self.n,
            self.host_cpus,
            self.engine_rounds,
            self.total_messages,
            self.wall_ms,
            self.ns_per_msg,
            self.phase_ns.0,
            self.phase_ns.1,
            self.phase_ns.2,
            self.barrier_wait_ns,
            self.hot_ns_per_msg,
            self.plaw_ns_per_msg,
            self.fault_ns_per_msg,
            self.service_rps,
            self.solo_rps,
        )
    }
}

/// Fanout and rounds of the skewed blast workloads.
const SKEW_FANOUT: usize = 16;
const SKEW_ROUNDS: u64 = 8;

/// Sends one word to a fixed peer set each round; trivial local work, so
/// the measurement is all router.
struct SkewBlast {
    peers: Vec<u32>,
    checksum: u64,
}

impl NodeProgram for SkewBlast {
    type Output = u64;

    fn on_round(&mut self, env: &mut NodeEnv<'_>) -> NodeStatus {
        for m in env.inbox() {
            self.checksum = self.checksum.wrapping_add(m.word ^ u64::from(m.src));
        }
        if env.round() >= SKEW_ROUNDS {
            return NodeStatus::Halt;
        }
        env.send_slice(&self.peers, env.round() & 0x3ff);
        NodeStatus::Continue
    }

    fn finish(self: Box<Self>) -> u64 {
        self.checksum
    }
}

/// Best-of-3 ns/msg for a blast workload with per-node peer lists from
/// `peers_of`, single worker thread.
fn skew_ns_per_msg(n: usize, peers_of: &dyn Fn(usize) -> Vec<u32>) -> f64 {
    let model = ExecutionModel::congested_clique(n);
    let engine = Engine::new(EngineConfig::with_threads(1));
    let expected = SKEW_ROUNDS * (n * SKEW_FANOUT) as u64;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let programs: Vec<Box<dyn NodeProgram<Output = u64>>> = (0..n)
            .map(|i| {
                Box::new(SkewBlast {
                    peers: peers_of(i),
                    checksum: 0,
                }) as _
            })
            .collect();
        let start = Instant::now();
        let outcome = engine.run(model.clone(), programs).expect("skew bench run");
        let ns = start.elapsed().as_secs_f64() * 1e9;
        assert_eq!(outcome.ledger.total_messages(), expected);
        best = best.min(ns / expected as f64);
    }
    best
}

/// Benchmarks the message plane on trial coloring at [`BENCH_N`] nodes
/// (single worker thread, best of three runs) and returns the record.
pub fn bench_message_plane() -> PlaneBenchRecord {
    let n = BENCH_N;
    let graph = generators::gnp(n, 16.0 / n as f64, 77).expect("bench graph");
    let instance = ListColoringInstance::delta_plus_one(&graph).expect("bench instance");
    let model = ExecutionModel::congested_clique(n);
    let runner = EngineTrialColoring::default();
    let mut best: Option<(
        f64,
        clique_coloring::baselines::engine_trial::EngineTrialOutcome,
    )> = None;
    for _ in 0..3 {
        let start = Instant::now();
        let out = runner.run(&instance, model.clone()).expect("bench run");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|(b, _)| ms < *b) {
            best = Some((ms, out));
        }
    }
    let (wall_ms, out) = best.expect("three runs measured");
    // Zero-rate fault-plane companion: a `FaultPlan` that never fires
    // still checkpoints every round and digest-checks every barrier.
    // The record tracks its ns/msg next to the NoopInjector number so
    // `bench_delta` can show what arming the fault plane costs.
    let mut fault_best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let request = runner
            .service_request(&instance, model.clone())
            .expect("bench request");
        let run = Engine::new(request.config)
            .with_faults(FaultPlan::new(0))
            .run(request.model, request.programs)
            .expect("bench fault run");
        let fault_out = runner.assemble(&instance, run).expect("bench fault run");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            fault_out.ledger, out.ledger,
            "a zero-rate fault plan changed the benched ledger"
        );
        assert_eq!(fault_out.health.faults_injected, 0);
        fault_best = fault_best.min(ms * 1e6 / fault_out.ledger.total_messages().max(1) as f64);
    }
    // Skewed-destination companions: the all-to-one hot receiver and a
    // power-law destination map, so counting-sort degeneracies show up in
    // the tracked record.
    let hot_ns_per_msg = skew_ns_per_msg(n, &|_| vec![0; SKEW_FANOUT]);
    let plaw_ns_per_msg = skew_ns_per_msg(n, &|i| {
        (1..=SKEW_FANOUT)
            .map(|d| {
                if d % 2 == 0 {
                    ((i + d) % 4) as u32
                } else {
                    ((i * d * d + d) % n) as u32
                }
            })
            .collect()
    });
    // Service-throughput companion (tracked E10 sample): batched vs
    // reusable-handle solo-loop requests/sec, so throughput regressions
    // gate alongside ns/msg.
    let (solo_rps, service_rps) = super::e10_service::service_throughput_sample();
    PlaneBenchRecord {
        n,
        host_cpus: std::thread::available_parallelism().map_or(1, |p| p.get()),
        engine_rounds: out.engine_rounds,
        total_messages: out.ledger.total_messages(),
        wall_ms,
        ns_per_msg: wall_ms * 1e6 / out.ledger.total_messages().max(1) as f64,
        phase_ns: (
            out.timings.route_ns,
            out.timings.step_ns,
            out.timings.check_ns,
        ),
        barrier_wait_ns: out.timings.barrier_wait_ns,
        hot_ns_per_msg,
        plaw_ns_per_msg,
        fault_ns_per_msg: fault_best,
        service_rps,
        solo_rps,
    }
}

/// Runs [`bench_message_plane`] and writes the record to `path`.
pub fn write_bench_record(path: &Path) {
    let record = bench_message_plane();
    match std::fs::write(path, record.to_json()) {
        Ok(()) => println!(
            "wrote message-plane bench record to {} ({:.1} ns/msg over {} messages; \
             hot {:.1}, plaw {:.1}; service {:.0} req/s vs solo {:.0})",
            path.display(),
            record.ns_per_msg,
            record.total_messages,
            record.hot_ns_per_msg,
            record.plaw_ns_per_msg,
            record.service_rps,
            record.solo_rps
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
