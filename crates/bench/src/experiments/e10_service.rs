//! E10 — throughput service: batched multi-instance execution vs a
//! reusable-handle solo loop.
//!
//! The paper's algorithms are constant-round, so a *stream* of independent
//! small instances is dominated by per-round fixed costs. The batched
//! [`cc_runtime::ColoringService`] pays one dispatch, worker wakeup and
//! barrier per super-round, shared by every live slot; a solo engine run
//! steps a clique under 512 nodes on the calling thread alone and pays
//! none. This experiment offers the same
//! request mixes to both execution modes at matched worker-thread counts
//! and reports requests/sec, p50/p99 request latency, and mean slot
//! occupancy:
//!
//! * **solo-loop** — one [`cc_runtime::EngineSession`] (the reusable
//!   handle: executor workers spawned once, arena banks recycled between
//!   runs) executes requests back to back;
//! * **service** — requests arrive at a fixed offered load (`rate`
//!   submissions per super-round) into a [`cc_runtime::ColoringService`]
//!   with [`SERVICE_SLOTS`] slots.
//!
//! Mixes: a uniform G(n, p) mix, a power-law mix (skewed degrees → skewed
//! per-instance message loads), and a Luby-MIS mix — all at n ≤ 512.
//! Per-request ledger digests are asserted identical between the two
//! modes in-process, so every speedup row is also a determinism check.
//!
//! Every instance here is under 512 nodes, so the solo loop runs on one
//! thread at any thread count, and the batched-vs-solo ratio measures the
//! service's shared dispatch against no dispatch at all, not parallelism;
//! it reproduces on any host.

use std::path::Path;
use std::time::Instant;

use cc_graph::csr::CsrGraph;
use cc_graph::generators;
use cc_graph::instance::ListColoringInstance;
use cc_mis::engine::EngineLubyMis;
use cc_runtime::{
    ColoringService, Engine, EngineConfig, EngineOutcome, EngineSession, ServiceConfig,
    ServiceRequest,
};
use cc_sim::ExecutionModel;
use clique_coloring::baselines::engine_trial::EngineTrialColoring;

use crate::records::{write_json, RunRecord};
use crate::table::Table;
use crate::Scale;

/// The worker-thread counts benched by default. 1 isolates the scheduling
/// overhead story; 2 is the pooled configuration the service is built for.
pub const DEFAULT_THREADS: &[usize] = &[1, 2];

/// Instance slots of the benched service (the in-flight batch size).
pub const SERVICE_SLOTS: usize = 8;

/// One execution mode's measurements over a request mix.
struct ModeStats {
    wall_ms: f64,
    rps: f64,
    p50_us: f64,
    p99_us: f64,
    /// Mean live slots per super-round (0 for the solo loop).
    mean_occupancy: f64,
    /// Super-rounds executed (0 for the solo loop).
    super_rounds: u64,
}

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 * q) as usize).min(sorted_us.len() - 1);
    sorted_us[idx]
}

fn stats_from(wall_ms: f64, mut lat_us: Vec<f64>, occupancy: f64, super_rounds: u64) -> ModeStats {
    let count = lat_us.len();
    lat_us.sort_by(f64::total_cmp);
    ModeStats {
        wall_ms,
        rps: count as f64 / (wall_ms / 1e3).max(f64::MIN_POSITIVE),
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        mean_occupancy: occupancy,
        super_rounds,
    }
}

/// Runs `count` requests back to back through one reusable
/// [`EngineSession`]: per-request latency is the request's own wall time
/// (construction + run + finish), throughput is end-to-end.
fn solo_loop<O: Send + 'static>(
    count: usize,
    make_request: &mut dyn FnMut(usize) -> ServiceRequest<O>,
    finish: &mut dyn FnMut(usize, EngineOutcome<O>),
    threads: usize,
) -> ModeStats {
    let mut session: Option<EngineSession> = None;
    let mut lat_us = Vec::with_capacity(count);
    let start = Instant::now();
    for i in 0..count {
        let t0 = Instant::now();
        let request = make_request(i);
        let session = session.get_or_insert_with(|| {
            Engine::new(EngineConfig {
                threads,
                ..request.config.clone()
            })
            .session()
        });
        let outcome = session
            .run(request.model, request.programs)
            .expect("E10 solo run");
        finish(i, outcome);
        lat_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    stats_from(wall_ms, lat_us, 0.0, 0)
}

/// Offers `count` requests to a fresh service at `rate` submissions per
/// super-round and drives it until all retire: per-request latency is
/// submission to retirement (queueing included), throughput is
/// end-to-end.
fn service_loop<O: Send + 'static>(
    count: usize,
    make_request: &mut dyn FnMut(usize) -> ServiceRequest<O>,
    finish: &mut dyn FnMut(usize, EngineOutcome<O>),
    threads: usize,
    rate: usize,
) -> ModeStats {
    let mut service = ColoringService::new(ServiceConfig {
        slots: SERVICE_SLOTS,
        threads,
    });
    let mut submitted: Vec<Instant> = Vec::with_capacity(count);
    let mut lat_us = vec![0.0f64; count];
    let mut done = 0usize;
    let mut occupancy_sum = 0usize;
    let start = Instant::now();
    while done < count {
        for _ in 0..rate.max(1) {
            if submitted.len() < count {
                let i = submitted.len();
                let id = service.submit(make_request(i));
                assert_eq!(id as usize, i, "E10 submission ids are dense");
                submitted.push(Instant::now());
            }
        }
        service.step();
        occupancy_sum += service.occupancy();
        let now = Instant::now();
        let retired: Vec<_> = service.drain_finished().collect();
        for outcome in retired {
            let idx = outcome.id as usize;
            lat_us[idx] = (now - submitted[idx]).as_secs_f64() * 1e6;
            finish(idx, outcome.result.expect("E10 lenient service run"));
            done += 1;
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let super_rounds = service.super_rounds();
    let occupancy = occupancy_sum as f64 / super_rounds.max(1) as f64;
    stats_from(wall_ms, lat_us, occupancy, super_rounds)
}

/// A request mix: trial-coloring instances (uniform or power-law) or
/// Luby-MIS graphs, all n ≤ 512.
enum Mix {
    Coloring(Vec<ListColoringInstance>),
    Mis(Vec<CsrGraph>),
}

impl Mix {
    fn len(&self) -> usize {
        match self {
            Mix::Coloring(v) => v.len(),
            Mix::Mis(v) => v.len(),
        }
    }

    fn mean_n(&self) -> f64 {
        let total: usize = match self {
            Mix::Coloring(v) => v.iter().map(ListColoringInstance::node_count).sum(),
            Mix::Mis(v) => v.iter().map(CsrGraph::node_count).sum(),
        };
        total as f64 / self.len().max(1) as f64
    }
}

fn coloring_mix(count: usize, sizes: &[usize], power_law: bool) -> Mix {
    Mix::Coloring(
        (0..count)
            .map(|i| {
                let n = sizes[i % sizes.len()];
                let seed = 100 + i as u64;
                let graph = if power_law {
                    generators::power_law(n, 8, seed).expect("E10 power-law graph")
                } else {
                    generators::gnp(n, (16.0 / n as f64).min(0.5), seed).expect("E10 gnp graph")
                };
                ListColoringInstance::delta_plus_one(&graph).expect("E10 instance")
            })
            .collect(),
    )
}

fn mis_mix(count: usize, sizes: &[usize]) -> Mix {
    Mix::Mis(
        (0..count)
            .map(|i| {
                let n = sizes[i % sizes.len()];
                generators::gnp(n, (12.0 / n as f64).min(0.5), 500 + i as u64)
                    .expect("E10 mis graph")
            })
            .collect(),
    )
}

/// Measures one mix at one thread count: the solo loop once, then the
/// service at each offered load, asserting per-request ledger digests
/// equal to the solo run's. Returns `(solo, [(rate, service)...])`.
fn measure_mix(mix: &Mix, threads: usize, rates: &[usize]) -> (ModeStats, Vec<(usize, ModeStats)>) {
    match mix {
        Mix::Coloring(instances) => {
            let algo = EngineTrialColoring::default();
            measure_requests(
                instances.len(),
                threads,
                rates,
                |i| {
                    let model = ExecutionModel::congested_clique(instances[i].node_count());
                    algo.service_request(&instances[i], model)
                        .expect("E10 request")
                },
                |i, out| {
                    algo.assemble(&instances[i], out)
                        .expect("E10 assemble")
                        .outcome
                        .coloring
                        .verify(&instances[i])
                        .expect("E10 verify");
                },
            )
        }
        Mix::Mis(graphs) => {
            let algo = EngineLubyMis::default();
            measure_requests(
                graphs.len(),
                threads,
                rates,
                |i| {
                    let model = ExecutionModel::congested_clique(graphs[i].node_count());
                    algo.service_request(&graphs[i], model)
                },
                |i, out| {
                    let assembled = algo.assemble(&graphs[i], out);
                    cc_mis::verify::verify_mis(&graphs[i], &assembled.result.in_set)
                        .expect("E10 mis verify");
                },
            )
        }
    }
}

/// [`measure_mix`]'s body for one algorithm: `make` builds request `i`,
/// and `check` assembles and verifies its outcome.
fn measure_requests<O: Send + 'static>(
    count: usize,
    threads: usize,
    rates: &[usize],
    mut make: impl FnMut(usize) -> ServiceRequest<O>,
    check: impl Fn(usize, EngineOutcome<O>),
) -> (ModeStats, Vec<(usize, ModeStats)>) {
    let mut solo_digests = vec![0u64; count];
    let mut record = |i: usize, out: EngineOutcome<O>| {
        solo_digests[i] = out.ledger.digest();
        check(i, out);
    };
    let solo = solo_loop(count, &mut make, &mut record, threads);
    let services = rates
        .iter()
        .map(|&rate| {
            let mut finish = |i: usize, out: EngineOutcome<O>| {
                assert_eq!(
                    out.ledger.digest(),
                    solo_digests[i],
                    "batched ledger digest diverged from the solo run"
                );
                check(i, out);
            };
            (
                rate,
                service_loop(count, &mut make, &mut finish, threads, rate),
            )
        })
        .collect();
    (solo, services)
}

/// Runs the experiment with the default thread sweep.
pub fn run(scale: Scale) {
    run_with(scale, DEFAULT_THREADS);
}

/// Runs the offered-load sweep at the given worker-thread counts.
///
/// # Panics
///
/// Panics if any batched request's ledger digest differs from its solo
/// run's, or any produced coloring/MIS fails verification — batch/solo
/// bit-parity is part of what this experiment verifies.
pub fn run_with(scale: Scale, threads: &[usize]) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let count = scale.pick(32, 128);
    let rates: Vec<usize> = match scale {
        Scale::Quick => vec![4],
        Scale::Full => vec![1, 4, 8],
    };
    let mixes: Vec<(&str, Mix)> = vec![
        (
            "uniform-gnp",
            coloring_mix(count, &[16, 24, 32, 48, 64], false),
        ),
        ("power-law", coloring_mix(count, &[32, 48, 64, 96], true)),
        ("luby-mis", mis_mix(count, &[16, 32, 64])),
    ];
    println!(
        "E10 host parallelism: {host_cpus} CPU(s). The service pays one dispatch \
         per super-round, shared by all live slots; the solo loop steps each of \
         these cliques (n < 512) on the calling thread, with no dispatch. That \
         overhead gap (not parallel speedup) drives the batched/solo ratio, so it \
         reproduces on a 1-CPU host."
    );
    let mut table = Table::new([
        "mix",
        "threads",
        "mode",
        "rate",
        "requests",
        "wall (ms)",
        "req/s",
        "p50 (us)",
        "p99 (us)",
        "occupancy",
        "vs solo",
    ]);
    let mut records = Vec::new();
    let record = |mix: &str,
                  mode: String,
                  t: usize,
                  rate: f64,
                  mean_n: f64,
                  stats: &ModeStats,
                  speedup: f64| {
        RunRecord {
            experiment: "E10".to_string(),
            instance: mix.to_string(),
            algorithm: mode,
            n: mean_n as usize,
            m: 0,
            max_degree: 0,
            rounds: stats.super_rounds,
            communication_words: 0,
            peak_local_words: 0,
            peak_total_words: 0,
            within_limits: true,
            extra: Vec::new(),
        }
        .with_extra("threads", t as f64)
        .with_extra("host_cpus", host_cpus as f64)
        .with_extra("slots", SERVICE_SLOTS as f64)
        .with_extra("offered_rate", rate)
        .with_extra("requests", stats.rps * stats.wall_ms / 1e3)
        .with_extra("wall_ms", stats.wall_ms)
        .with_extra("requests_per_sec", stats.rps)
        .with_extra("p50_us", stats.p50_us)
        .with_extra("p99_us", stats.p99_us)
        .with_extra("mean_occupancy", stats.mean_occupancy)
        .with_extra("speedup_vs_solo", speedup)
    };
    for (mix_name, mix) in &mixes {
        let mean_n = mix.mean_n();
        for &t in threads {
            let (solo, services) = measure_mix(mix, t, &rates);
            table.row([
                (*mix_name).to_string(),
                t.to_string(),
                "solo-loop".into(),
                "-".into(),
                mix.len().to_string(),
                format!("{:.1}", solo.wall_ms),
                format!("{:.0}", solo.rps),
                format!("{:.0}", solo.p50_us),
                format!("{:.0}", solo.p99_us),
                "-".into(),
                "1.00".into(),
            ]);
            records.push(record(
                mix_name,
                format!("solo-loop-t{t}"),
                t,
                0.0,
                mean_n,
                &solo,
                1.0,
            ));
            for (rate, stats) in services {
                let speedup = stats.rps / solo.rps.max(f64::MIN_POSITIVE);
                table.row([
                    (*mix_name).to_string(),
                    t.to_string(),
                    "service".into(),
                    rate.to_string(),
                    mix.len().to_string(),
                    format!("{:.1}", stats.wall_ms),
                    format!("{:.0}", stats.rps),
                    format!("{:.0}", stats.p50_us),
                    format!("{:.0}", stats.p99_us),
                    format!("{:.1}", stats.mean_occupancy),
                    format!("{speedup:.2}"),
                ]);
                records.push(record(
                    mix_name,
                    format!("service-t{t}-r{rate}"),
                    t,
                    rate as f64,
                    mean_n,
                    &stats,
                    speedup,
                ));
            }
        }
    }
    table.print(
        "E10  throughput service: batched execution vs reusable-handle solo loop \
         (matched thread counts; digests asserted equal)",
    );
    write_json("e10_service", &records);
}

/// Measures the tracked service-throughput sample: the uniform coloring
/// mix at the pooled configuration (threads = 2, the service's design
/// point), full offered load. Returns `(solo_rps, service_rps)`, digests
/// asserted equal in-process.
pub fn service_throughput_sample() -> (f64, f64) {
    let mix = coloring_mix(32, &[16, 24, 32, 48, 64], false);
    // Best of three for each mode independently: the strongest solo
    // measurement is the baseline the service number must beat.
    let mut solo_best = 0.0f64;
    let mut service_best = 0.0f64;
    for _ in 0..3 {
        let (solo, services) = measure_mix(&mix, 2, &[SERVICE_SLOTS]);
        solo_best = solo_best.max(solo.rps);
        service_best = service_best.max(services[0].1.rps);
    }
    (solo_best, service_best)
}

/// Runs a quick sweep and writes the flat service-throughput record CI
/// archives as `e10.service.json`.
pub fn write_service_record(path: &Path) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let (solo_rps, service_rps) = service_throughput_sample();
    let json = format!(
        "{{\n  \"bench\": \"coloring-service\",\n  \"mix\": \"uniform-gnp\",\n  \
         \"requests\": 32,\n  \"slots\": {SERVICE_SLOTS},\n  \"threads\": 2,\n  \
         \"host_cpus\": {host_cpus},\n  \"service_rps\": {service_rps:.1},\n  \
         \"solo_rps\": {solo_rps:.1},\n  \"service_speedup\": {:.2}\n}}\n",
        service_rps / solo_rps.max(f64::MIN_POSITIVE),
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "wrote service-throughput record to {} ({service_rps:.0} req/s batched vs \
             {solo_rps:.0} req/s solo loop at threads=2)",
            path.display()
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
