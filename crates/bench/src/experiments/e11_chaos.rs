//! E11 — chaos soak: deterministic fault injection vs the recovery path.
//!
//! For the trial coloring and Luby MIS on the engine backend, this sweeps
//! seeded `cc-fault` plans (message drop/duplicate/corrupt rates, plus a
//! fixed stall schedule on every non-zero level) across worker-thread
//! counts and several plan seeds, and measures what the checkpoint/retry
//! machinery delivers: the **recovery rate** (fraction of chaos runs whose
//! committed outputs *and* message-ledger digest are bit-identical to the
//! fault-free reference), the **retry overhead** (model rounds charged
//! including retries, over the clean round count), and the raw fault and
//! retry counts from [`cc_runtime::EngineHealth`].
//!
//! Two control rows anchor the table. The zero-rate level attaches a live
//! `FaultPlan` that never fires — it must inject nothing, retry
//! nothing, and reproduce the clean ledger exactly (checkpointing alone is
//! result-invisible). The crash rows (trial coloring only) pin crash-stop
//! schedules: those runs are *expected* to degrade, and the adapter's
//! greedy repair must still hand back a proper coloring, deterministically
//! across thread counts.
//!
//! Like E9, the experiment *enforces* its determinism claims in-process:
//! every run's coloring/MIS is verified, recovered runs must match the
//! reference byte-for-byte, and crash outcomes must be identical at every
//! thread count.

use std::path::Path;

use cc_mis::engine::EngineLubyMis;
use cc_runtime::{Engine, EngineOutcome, FaultPlan, ServiceRequest};
use cc_sim::ExecutionModel;
use clique_coloring::baselines::engine_trial::{EngineTrialColoring, EngineTrialOutcome};

use crate::records::{to_json, write_json, RunRecord};
use crate::table::Table;
use crate::Scale;

use super::graph_stats;
use cc_graph::generators;
use cc_graph::instance::ListColoringInstance;

/// The thread counts swept by default (the engine's determinism guarantee
/// makes more counts redundant for recovery semantics; 1 and 4 cover the
/// serial and contended checkpoint/retry paths).
pub const DEFAULT_THREADS: &[usize] = &[1, 4];

/// Per-chunk stall schedule applied to every non-zero chaos level
/// (permille of chunks stalled, spin iterations per stall) — barrier skew
/// must never leak into results.
const STALL: (u16, u32) = (50, 200);

/// Crash-stop schedule size for the degraded-outcome control rows.
const CRASHES: usize = 3;

/// `(drop, duplicate, corrupt)` permille per chaos level.
fn chaos_levels(scale: Scale) -> Vec<(u16, u16, u16)> {
    match scale {
        Scale::Quick => vec![(0, 0, 0), (25, 15, 15)],
        Scale::Full => vec![(0, 0, 0), (10, 5, 5), (25, 15, 15), (50, 25, 25)],
    }
}

/// Independent plan seeds per (level, threads) cell; the recovery-rate
/// column is `recovered / seeds`.
fn plan_seeds(scale: Scale) -> Vec<u64> {
    let count = match scale {
        Scale::Quick => 2,
        Scale::Full => 4,
    };
    (0..count).map(|i| 0xE11 + 0x9E37 * i).collect()
}

/// The swept workloads: uniform G(n, p) at average degree ~12 — dense
/// enough that every round carries messages to damage, small enough that
/// the retry sweep stays fast.
fn instances(scale: Scale) -> Vec<(String, cc_graph::csr::CsrGraph)> {
    let sizes = match scale {
        Scale::Quick => vec![200],
        Scale::Full => vec![400, 800],
    };
    sizes
        .into_iter()
        .map(|n| {
            let p = (12.0 / n as f64).min(0.5);
            (
                format!("gnp-{n}"),
                generators::gnp(n, p, 1101).expect("E11 gnp graph"),
            )
        })
        .collect()
}

/// Builds the message-chaos plan for one level and seed.
fn chaos_plan(seed: u64, (drop, duplicate, corrupt): (u16, u16, u16)) -> FaultPlan {
    let mut plan = FaultPlan::new(seed)
        .with_drop(drop)
        .with_duplicate(duplicate)
        .with_corrupt(corrupt);
    if (drop, duplicate, corrupt) != (0, 0, 0) {
        plan = plan.with_stall(STALL.0, STALL.1);
    }
    plan
}

/// Runs `request` on a fresh engine, under its own configuration, that
/// injects `plan`'s faults.
fn faulted<O: Send + 'static>(request: ServiceRequest<O>, plan: FaultPlan) -> EngineOutcome<O> {
    Engine::new(request.config)
        .with_faults(plan)
        .run(request.model, request.programs)
        .expect("E11 faulted run")
}

/// Plan label for the table, e.g. `drop25+dup15+corr15`.
fn plan_label((drop, duplicate, corrupt): (u16, u16, u16)) -> String {
    if (drop, duplicate, corrupt) == (0, 0, 0) {
        "zero-rate".to_string()
    } else {
        format!("drop{drop}+dup{duplicate}+corr{corrupt}")
    }
}

/// Aggregates over the seeds of one table cell.
#[derive(Default)]
struct Cell {
    runs: u64,
    recovered: u64,
    degraded: u64,
    faults: u64,
    retries: u64,
    rounds: u64,
}

impl Cell {
    fn mean_rounds(&self) -> f64 {
        self.rounds as f64 / self.runs.max(1) as f64
    }
}

/// Runs the experiment with the default thread sweep.
pub fn run(scale: Scale) {
    run_with(scale, DEFAULT_THREADS, None);
}

/// Runs the experiment for the given worker-thread counts, optionally
/// writing the JSON records to `json` as well (they always land under
/// `target/experiments/e11_chaos.json`).
///
/// # Panics
///
/// Panics if a chaos run violates an enforced invariant: an improper
/// coloring or invalid MIS (the adapters' repair contract), a zero-rate
/// injector perturbing results, a recovered run whose health claims
/// otherwise, or crash outcomes differing across thread counts.
pub fn run_with(scale: Scale, threads: &[usize], json: Option<&Path>) {
    let mut table = Table::new([
        "instance",
        "algorithm",
        "threads",
        "plan",
        "runs",
        "recovered",
        "faults",
        "retries",
        "rounds",
        "overhead",
        "degraded",
    ]);
    let mut records = Vec::new();
    for (label, graph) in instances(scale) {
        let n = graph.node_count();
        let instance = ListColoringInstance::delta_plus_one(&graph).expect("E11 instance");
        let stats = graph_stats(&instance);
        let model = ExecutionModel::congested_clique(n);

        // --- Fault-free references (threads = 1; any count would do —
        // the engine's determinism guarantee is enforced elsewhere). ---
        let trial_runner = |t: usize| EngineTrialColoring {
            threads: t,
            ..EngineTrialColoring::default()
        };
        let luby_runner = |t: usize| EngineLubyMis {
            threads: t,
            ..EngineLubyMis::default()
        };
        let clean_trial = trial_runner(1)
            .run(&instance, model.clone())
            .expect("E11 clean trial");
        clean_trial
            .outcome
            .coloring
            .verify(&instance)
            .expect("E11 clean verify");
        let clean_luby = luby_runner(1)
            .run(&graph, model.clone())
            .expect("E11 clean luby");
        cc_mis::verify::verify_mis(&graph, &clean_luby.result.in_set).expect("E11 clean mis");

        // --- Message-chaos sweep: levels × threads × seeds. ---
        for level in chaos_levels(scale) {
            for &t in threads {
                let mut trial_cell = Cell::default();
                let mut luby_cell = Cell::default();
                for &seed in &plan_seeds(scale) {
                    let runner = trial_runner(t);
                    let request = runner
                        .service_request(&instance, model.clone())
                        .expect("E11 trial request");
                    let out = runner
                        .assemble(&instance, faulted(request, chaos_plan(seed, level)))
                        .expect("E11 chaos trial");
                    out.outcome.coloring.verify(&instance).expect("E11 verify");
                    let recovered = out.outcome.coloring == clean_trial.outcome.coloring
                        && out.ledger == clean_trial.ledger;
                    if level == (0, 0, 0) {
                        assert!(
                            recovered && out.health.faults_injected == 0,
                            "zero-rate injector perturbed the trial run (t = {t})"
                        );
                    }
                    assert_eq!(
                        recovered,
                        out.health.faults_committed == 0 && !out.health.degraded,
                        "recovery and health read-out disagree (t = {t})"
                    );
                    // Crash-free plans must always recover under the
                    // default retry policy (deterministic: the seeds are
                    // fixed, so this is the same check on every host).
                    assert!(recovered, "trial run failed to recover (t = {t})");
                    trial_cell.runs += 1;
                    trial_cell.recovered += u64::from(recovered);
                    trial_cell.degraded += u64::from(out.health.degraded);
                    trial_cell.faults += out.health.faults_injected;
                    trial_cell.retries += out.health.retries;
                    trial_cell.rounds += out.outcome.report.rounds;

                    let runner = luby_runner(t);
                    let request = runner.service_request(&graph, model.clone());
                    let out =
                        runner.assemble(&graph, faulted(request, chaos_plan(seed ^ 0x15, level)));
                    cc_mis::verify::verify_mis(&graph, &out.result.in_set).expect("E11 mis verify");
                    let recovered =
                        out.result == clean_luby.result && out.ledger == clean_luby.ledger;
                    if level == (0, 0, 0) {
                        assert!(
                            recovered && out.health.faults_injected == 0,
                            "zero-rate injector perturbed the Luby run (t = {t})"
                        );
                    }
                    assert!(recovered, "Luby run failed to recover (t = {t})");
                    luby_cell.runs += 1;
                    luby_cell.recovered += u64::from(recovered);
                    luby_cell.degraded += u64::from(out.health.degraded);
                    luby_cell.faults += out.health.faults_injected;
                    luby_cell.retries += out.health.retries;
                    luby_cell.rounds += out.report.rounds;
                }
                for (algorithm, cell, clean_report) in [
                    ("trial-coloring", &trial_cell, &clean_trial.outcome.report),
                    ("luby-mis", &luby_cell, &clean_luby.report),
                ] {
                    let clean_rounds = clean_report.rounds;
                    let overhead = cell.mean_rounds() / clean_rounds.max(1) as f64;
                    table.row([
                        label.clone(),
                        algorithm.into(),
                        t.to_string(),
                        plan_label(level),
                        cell.runs.to_string(),
                        format!("{}/{}", cell.recovered, cell.runs),
                        cell.faults.to_string(),
                        cell.retries.to_string(),
                        format!("{:.0} (clean {clean_rounds})", cell.mean_rounds()),
                        format!("{overhead:.2}x"),
                        cell.degraded.to_string(),
                    ]);
                    records.push(
                        RunRecord {
                            rounds: cell.mean_rounds() as u64,
                            ..RunRecord::from_report(
                                "E11",
                                &label,
                                &format!("{algorithm}/engine-t{t}/{}", plan_label(level)),
                                stats,
                                clean_report,
                            )
                        }
                        .with_extra("threads", t as f64)
                        .with_extra("drop_permille", f64::from(level.0))
                        .with_extra("duplicate_permille", f64::from(level.1))
                        .with_extra("corrupt_permille", f64::from(level.2))
                        .with_extra("runs", cell.runs as f64)
                        .with_extra(
                            "recovery_rate",
                            cell.recovered as f64 / cell.runs.max(1) as f64,
                        )
                        .with_extra("faults_injected", cell.faults as f64)
                        .with_extra("retries", cell.retries as f64)
                        .with_extra("rounds_clean", clean_rounds as f64)
                        .with_extra("retry_round_overhead", overhead)
                        .with_extra("degraded_runs", cell.degraded as f64),
                    );
                }
            }
        }

        // --- Crash-stop control rows (trial coloring only): expected to
        // degrade; the adapter's greedy repair must still be proper and
        // thread-invariant. ---
        let mut crash_plan = FaultPlan::new(0xdead);
        let crashed: Vec<u32> = (0..CRASHES)
            .map(|i| ((i + 1) * n / (CRASHES + 1)) as u32)
            .collect();
        for &node in &crashed {
            // Round 0 so a crash cannot land after its node already halted.
            crash_plan = crash_plan.with_crash(node, 0);
        }
        let mut reference: Option<EngineTrialOutcome> = None;
        for &t in threads {
            let runner = trial_runner(t);
            let request = runner
                .service_request(&instance, model.clone())
                .expect("E11 trial request");
            let out = runner
                .assemble(&instance, faulted(request, crash_plan.clone()))
                .expect("E11 crash trial");
            out.outcome
                .coloring
                .verify(&instance)
                .expect("E11 crash verify");
            assert!(
                out.health.degraded,
                "crash schedule did not degrade (t = {t})"
            );
            assert_eq!(out.health.crashed_nodes, CRASHES as u64);
            if let Some(reference) = &reference {
                assert_eq!(
                    reference.outcome.coloring, out.outcome.coloring,
                    "crash-degraded coloring differs between thread counts"
                );
                assert_eq!(
                    reference.ledger, out.ledger,
                    "crash-degraded ledger differs between thread counts"
                );
            }
            table.row([
                label.clone(),
                "trial-coloring".into(),
                t.to_string(),
                format!("crash x{CRASHES} @r0"),
                "1".into(),
                "repaired".into(),
                out.health.faults_injected.to_string(),
                out.health.retries.to_string(),
                format!(
                    "{} (clean {})",
                    out.outcome.report.rounds, clean_trial.outcome.report.rounds
                ),
                "-".into(),
                "1".into(),
            ]);
            records.push(
                RunRecord::from_report(
                    "E11",
                    &label,
                    &format!("trial-coloring/engine-t{t}/crash{CRASHES}"),
                    stats,
                    &out.outcome.report,
                )
                .with_extra("threads", t as f64)
                .with_extra("crashed_nodes", out.health.crashed_nodes as f64)
                .with_extra("recolored_nodes", out.recolored_nodes as f64)
                .with_extra("checkpoint_words", out.health.checkpoint_words as f64)
                .with_extra("degraded_runs", 1.0),
            );
            if reference.is_none() {
                reference = Some(out);
            }
        }
    }
    table.print(
        "E11  chaos soak: seeded fault plans vs checkpoint/retry recovery \
         (recovered = outputs and ledger bit-identical to fault-free run)",
    );
    write_json("e11_chaos", &records);
    if let Some(path) = json {
        match std::fs::write(path, to_json(&records)) {
            Ok(()) => println!("wrote chaos records to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}
