//! The `stream-t2` workload: one fixed list of trial-coloring requests
//! served two ways at a fixed thread count — through a `ColoringService`
//! fed one submission per super-round (an open loop in super-round time),
//! and back to back through one warm `EngineSession`.
//!
//! The traced run times every call into the service, the session and the
//! trial-coloring adapter from outside, and reads the engine's own
//! `PhaseTimings`; its outputs must equal the untraced run's.

use std::time::{Duration, Instant};

use cc_graph::coloring::Coloring;
use cc_graph::generators;
use cc_graph::instance::ListColoringInstance;
use cc_runtime::{
    ColoringService, Engine, EngineConfig, EngineSession, NodeEnv, NodeProgram, NodeStatus,
    PhaseTimings, ServiceConfig, ServiceOutcome,
};
use cc_sim::ExecutionModel;
use clique_coloring::baselines::engine_trial::{EngineTrialColoring, EngineTrialOutcome};

use crate::clock::Stopwatch;
use crate::report::{num, Checks, Measured};
use crate::stats::{median, tail};
use crate::{derive_seed, timed_setup, Error, RunArgs, Window};

/// Requests in the list.
const REQUESTS: usize = 1024;
/// Clique sizes the list cycles through.
const SIZES: [usize; 5] = [32, 64, 128, 256, 512];
/// Instance slots of the service.
const SLOTS: usize = 8;
/// Clique size and round count of the empty-round probe.
const PROBE_NODES: usize = 256;
const PROBE_ROUNDS: u64 = 2000;

struct Request {
    instance: ListColoringInstance,
    model: ExecutionModel,
}

/// Request `i` colors G(n, 16/n) when `i` is even and `power_law(n, 8)`
/// when odd, with n cycling through [`SIZES`] every two requests.
fn build_requests(seed: u64) -> Result<Vec<Request>, Error> {
    (0..REQUESTS)
        .map(|i| {
            let n = SIZES[(i / 2) % SIZES.len()];
            let graph_seed = derive_seed(seed, 100 + i as u64);
            let graph = if i % 2 == 0 {
                generators::gnp(n, 16.0 / n as f64, graph_seed)?
            } else {
                generators::power_law(n, 8, graph_seed)?
            };
            Ok(Request {
                instance: ListColoringInstance::delta_plus_one(&graph)?,
                model: ExecutionModel::congested_clique(n),
            })
        })
        .collect()
}

/// What one served request produced: everything two servings of it must
/// agree on.
#[derive(Debug, Clone, PartialEq)]
struct Served {
    coloring: Coloring,
    digest: u64,
    engine_rounds: u64,
    sim_rounds: u64,
    messages: u64,
    peak_words: usize,
    within_limits: bool,
}

impl Served {
    fn new(out: &EngineTrialOutcome) -> Self {
        Served {
            coloring: out.outcome.coloring.clone(),
            digest: out.ledger.digest(),
            engine_rounds: out.engine_rounds,
            sim_rounds: out.outcome.report.rounds,
            messages: out.ledger.total_messages(),
            peak_words: out
                .ledger
                .rounds()
                .iter()
                .map(|r| r.max_send_words.max(r.max_recv_words))
                .max()
                .unwrap_or(0),
            within_limits: out.outcome.report.within_limits(),
        }
    }
}

/// Calls into one layer, counted only in a traced pass.
#[derive(Debug, Default, Clone, Copy)]
struct Probe {
    on: bool,
}

impl Probe {
    fn time<T>(self, acc: &mut Duration, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let value = f();
        *acc += t.elapsed();
        value
    }
}

/// Per-call time of one pass over the list (traced passes only).
#[derive(Debug, Default, Clone, Copy)]
struct PassLayers {
    request: Duration,
    assemble: Duration,
    submit: Duration,
    step: Duration,
    drain: Duration,
    run: Duration,
    timings: PhaseTimings,
}

/// One pass over the list. Its times have the stolen share removed (see
/// [`crate::clock`]); `layers` holds raw wall time, scaled by `kept` when
/// read.
struct Pass {
    wall: f64,
    raw_wall: f64,
    kept: f64,
    /// Per-request latency in seconds, in list order; summarized into
    /// `latency_p50`/`latency_tail` and released when the pass ends.
    latency: Vec<f64>,
    latency_p50: f64,
    latency_tail: (f64, f64),
    /// Per-request outcomes while the pass runs, in list order.
    outcomes: Vec<Option<EngineTrialOutcome>>,
    /// What each request produced, derived once the pass has ended.
    served: Vec<Option<Served>>,
    layers: PassLayers,
    super_rounds: u64,
    occupancy_sum: u64,
    queue_max: usize,
}

impl Pass {
    fn new() -> Self {
        Pass {
            wall: 0.0,
            raw_wall: 0.0,
            kept: 1.0,
            latency: vec![0.0; REQUESTS],
            latency_p50: 0.0,
            latency_tail: (0.0, 0.0),
            outcomes: (0..REQUESTS).map(|_| None).collect(),
            served: Vec::new(),
            layers: PassLayers::default(),
            super_rounds: 0,
            occupancy_sum: 0,
            queue_max: 0,
        }
    }

    /// Stops the pass clock, summarizes latency, and derives what each
    /// request produced.
    fn finish(mut self, watch: Stopwatch, layers: PassLayers) -> Self {
        let lap = watch.lap();
        self.wall = lap.seconds();
        self.raw_wall = lap.wall;
        self.kept = lap.kept;
        self.layers = layers;
        self.latency_p50 = median(&self.latency) * lap.kept;
        let (pct, value) = tail(&self.latency);
        self.latency_tail = (pct, value * lap.kept);
        self.latency = Vec::new();
        self.served = std::mem::take(&mut self.outcomes)
            .iter()
            .map(|o| o.as_ref().map(Served::new))
            .collect();
        self
    }
}

struct Stream {
    requests: Vec<Request>,
    algo: EngineTrialColoring,
    service: ColoringService<Option<u64>>,
    session: EngineSession,
    checks_failed: Vec<String>,
}

fn setup(seed: u64, threads: usize) -> Result<Stream, Error> {
    let requests = build_requests(seed)?;
    let algo = EngineTrialColoring {
        threads,
        ..EngineTrialColoring::default()
    };
    // The session runs under the adapter's own engine configuration, so a
    // solo run matches the service's outcome bit for bit.
    let probe = algo.service_request(&requests[0].instance, requests[0].model.clone())?;
    let session = Engine::new(EngineConfig {
        threads,
        ..probe.config
    })
    .session();
    let mut config = ServiceConfig::with_slots(SLOTS);
    config.threads = threads;
    let service = ColoringService::new(config);
    Ok(Stream {
        requests,
        algo,
        service,
        session,
        checks_failed: Vec::new(),
    })
}

impl Stream {
    /// Serves the list through the service: each super-round submits the
    /// next request (if any), steps once, and drains what retired.
    /// Latency runs from submission to retirement.
    fn service_pass(&mut self, probe: Probe) -> Pass {
        let mut pass = Pass::new();
        let mut layers = PassLayers::default();
        let mut submitted_at = vec![Instant::now(); REQUESTS];
        let mut index_of_id: Vec<usize> = Vec::with_capacity(REQUESTS);
        let mut first_id = None;
        let mut retired: Vec<ServiceOutcome<Option<u64>>> = Vec::with_capacity(SLOTS);
        let mut finished = 0;
        let mut next = 0;
        let super_rounds_before = self.service.super_rounds();
        let watch = Stopwatch::start();
        while finished < REQUESTS {
            if next < REQUESTS {
                let req = &self.requests[next];
                submitted_at[next] = Instant::now();
                let built = probe.time(&mut layers.request, || {
                    self.algo.service_request(&req.instance, req.model.clone())
                });
                match built {
                    Ok(request) => {
                        let id = probe.time(&mut layers.submit, || self.service.submit(request));
                        first_id.get_or_insert(id);
                        index_of_id.push(next);
                        pass.queue_max = pass.queue_max.max(self.service.queue_depth());
                    }
                    Err(err) => {
                        self.checks_failed
                            .push(format!("service_request {next}: {err}"));
                        finished += 1;
                    }
                }
                next += 1;
            }
            let retiring = probe.time(&mut layers.step, || self.service.step());
            pass.occupancy_sum += (self.service.occupancy() + retiring) as u64;
            probe.time(&mut layers.drain, || {
                retired.extend(self.service.drain_finished())
            });
            for outcome in retired.drain(..) {
                let i = index_of_id[(outcome.id - first_id.unwrap_or(0)) as usize];
                pass.latency[i] = submitted_at[i].elapsed().as_secs_f64();
                finished += 1;
                let run = match outcome.result {
                    Ok(run) => run,
                    Err(err) => {
                        self.checks_failed
                            .push(format!("service request {i}: {err}"));
                        continue;
                    }
                };
                let halted = run.all_halted;
                let req = &self.requests[i];
                let assembled = probe.time(&mut layers.assemble, || {
                    self.algo.assemble(&req.instance, run)
                });
                match assembled {
                    Ok(out) if halted => pass.outcomes[i] = Some(out),
                    Ok(_) => self
                        .checks_failed
                        .push(format!("service request {i} did not halt")),
                    Err(err) => self.checks_failed.push(format!("assemble {i}: {err}")),
                }
            }
        }
        pass.super_rounds = self.service.super_rounds() - super_rounds_before;
        pass.finish(watch, layers)
    }

    /// Serves the list back to back through the warm session.
    fn solo_pass(&mut self, probe: Probe) -> Pass {
        let mut pass = Pass::new();
        let mut layers = PassLayers::default();
        let watch = Stopwatch::start();
        for i in 0..REQUESTS {
            let req = &self.requests[i];
            let t = Instant::now();
            let built = probe.time(&mut layers.request, || {
                self.algo.service_request(&req.instance, req.model.clone())
            });
            let request = match built {
                Ok(request) => request,
                Err(err) => {
                    self.checks_failed
                        .push(format!("service_request {i}: {err}"));
                    continue;
                }
            };
            let session = &mut self.session;
            let ran = probe.time(&mut layers.run, || {
                session.run(request.model, request.programs)
            });
            let run = match ran {
                Ok(run) => run,
                Err(err) => {
                    self.checks_failed.push(format!("solo request {i}: {err}"));
                    continue;
                }
            };
            let halted = run.all_halted;
            if probe.on {
                let t = &mut layers.timings;
                t.route_ns += run.timings.route_ns;
                t.step_ns += run.timings.step_ns;
                t.check_ns += run.timings.check_ns;
                t.barrier_wait_ns += run.timings.barrier_wait_ns;
            }
            let assembled = probe.time(&mut layers.assemble, || {
                self.algo.assemble(&req.instance, run)
            });
            pass.latency[i] = t.elapsed().as_secs_f64();
            match assembled {
                Ok(out) if halted => pass.outcomes[i] = Some(out),
                Ok(_) => self
                    .checks_failed
                    .push(format!("solo request {i} did not halt")),
                Err(err) => self.checks_failed.push(format!("assemble {i}: {err}")),
            }
        }
        pass.finish(watch, layers)
    }

    /// Counts every request of `pass` as one operation: it must be served,
    /// verify, stay within the model's limits, and equal `reference`.
    fn check(&mut self, pass: &Pass, reference: &[Option<Served>], checks: &mut Checks) {
        for why in self.checks_failed.drain(..) {
            checks.attempt_failed(&why);
        }
        for (i, served) in pass.served.iter().enumerate() {
            let Some(served) = served else { continue };
            let instance = &self.requests[i].instance;
            checks.operation(&[
                (
                    served.coloring.verify(instance).is_ok(),
                    "request coloring verifies",
                ),
                (served.within_limits, "request report within limits"),
                (
                    reference[i].as_ref() == Some(served),
                    "request equals its solo serving",
                ),
            ]);
        }
    }
}

/// A node that sends nothing and halts after [`PROBE_ROUNDS`] rounds: its
/// runs cost only the engine's per-round dispatch, barrier and merge.
struct Idle;

impl NodeProgram for Idle {
    type Output = ();

    fn on_round(&mut self, env: &mut NodeEnv<'_>) -> NodeStatus {
        if env.round() + 1 >= PROBE_ROUNDS {
            NodeStatus::Halt
        } else {
            NodeStatus::Continue
        }
    }

    fn finish(self: Box<Self>) {}
}

/// Median wall time per round of [`Idle`] programs, in microseconds.
fn round_overhead_us(threads: usize, checks: &mut Checks) -> f64 {
    let mut session = Engine::new(EngineConfig {
        threads,
        ..EngineConfig::default()
    })
    .session();
    let mut per_round = Vec::new();
    for rep in 0..6 {
        let programs: Vec<Box<dyn NodeProgram<Output = ()>>> =
            (0..PROBE_NODES).map(|_| Box::new(Idle) as _).collect();
        let watch = Stopwatch::start();
        let run = session.run(ExecutionModel::congested_clique(PROBE_NODES), programs);
        let wall = watch.lap().seconds();
        match run {
            Ok(run) => {
                checks.operation(&[
                    (run.all_halted, "probe halts"),
                    (run.rounds == PROBE_ROUNDS, "probe runs its rounds"),
                ]);
                // The first run warms the session's banks.
                if rep > 0 {
                    per_round.push(wall * 1e6 / PROBE_ROUNDS as f64);
                }
            }
            Err(err) => checks.attempt_failed(&format!("probe: {err}")),
        }
    }
    median(&per_round)
}

/// Runs the stream workload at `threads` and records its metrics.
pub fn run(
    threads: usize,
    args: &RunArgs,
    checks: &mut Checks,
    out: &mut Measured,
) -> Result<(), Error> {
    let mut stream = timed_setup(out, || setup(args.seed, threads))?;
    out.detail(
        "requests",
        format!("{{\"count\": {REQUESTS}, \"slots\": {SLOTS}, \"threads\": {threads}}}"),
    );

    // Warm-up: the solo serving is every later pass's reference.
    let warm_solo = stream.solo_pass(Probe::default());
    let reference = warm_solo.served.clone();
    stream.check(&warm_solo, &reference, checks);
    let warm_service = stream.service_pass(Probe::default());
    stream.check(&warm_service, &reference, checks);

    let traced = Probe { on: args.trace };
    let mut service = Vec::new();
    let mut solo = Vec::new();
    let mut traced_service = Vec::new();
    let mut traced_solo = Vec::new();
    let mut window = Window::new(args.seconds);
    while window.more() {
        // Only the summary of a pass is kept, so memory does not grow
        // with the number of passes.
        let mut serve =
            |probe: Probe, leg: fn(&mut Stream, Probe) -> Pass, into: &mut Vec<Pass>| {
                let mut pass = leg(&mut stream, probe);
                stream.check(&pass, &reference, checks);
                pass.served = Vec::new();
                into.push(pass);
            };
        serve(Probe::default(), Stream::service_pass, &mut service);
        if args.trace {
            serve(traced, Stream::service_pass, &mut traced_service);
        }
        serve(Probe::default(), Stream::solo_pass, &mut solo);
        if args.trace {
            serve(traced, Stream::solo_pass, &mut traced_solo);
        }
    }

    let per_pass = |passes: &[Pass], f: &dyn Fn(&Pass) -> f64| -> f64 {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let served: Vec<&Served> = reference.iter().flatten().collect();
    let (tail_pct, _) = service[0].latency_tail;
    out.detail("service_tail_percentile", num(tail_pct));
    out.samples(
        "service_pass_s",
        &service.iter().map(|p| p.wall).collect::<Vec<_>>(),
    );
    out.samples(
        "solo_pass_s",
        &solo.iter().map(|p| p.wall).collect::<Vec<_>>(),
    );
    out.samples(
        "service_pass_wall_s",
        &service.iter().map(|p| p.raw_wall).collect::<Vec<_>>(),
    );

    out.set("color_s", per_pass(&solo, &|p| p.latency_p50));
    out.set(
        "sim_rounds",
        served.iter().map(|s| s.sim_rounds).sum::<u64>() as f64,
    );
    out.set(
        "peak_machine_words",
        served.iter().map(|s| s.peak_words).sum::<usize>() as f64 / served.len() as f64,
    );
    out.set(
        "service_rps",
        per_pass(&service, &|p| REQUESTS as f64 / p.wall),
    );
    out.set(
        "service_p50_ms",
        per_pass(&service, &|p| p.latency_p50 * 1e3),
    );
    out.set(
        "service_tail_ms",
        per_pass(&service, &|p| p.latency_tail.1 * 1e3),
    );
    out.set("solo_rps", per_pass(&solo, &|p| REQUESTS as f64 / p.wall));

    if args.trace {
        // A traced pass's layer time with its stolen share removed, median
        // over the traced passes.
        let layer = |passes: &[Pass], f: &dyn Fn(&PassLayers) -> f64| -> f64 {
            per_pass(passes, &|p| f(&p.layers) * p.kept)
        };
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let ns_ms = |ns: u64| ns as f64 / 1e6;
        let messages: u64 = served.iter().map(|s| s.messages).sum();
        let rounds: u64 = served.iter().map(|s| s.engine_rounds).sum();
        let solo_ms = |name, f: &dyn Fn(&PassLayers) -> f64| (name, layer(&traced_solo, f));
        let service_ms = |name, f: &dyn Fn(&PassLayers) -> f64| (name, layer(&traced_service, f));
        for (name, value) in [
            solo_ms("engine.route_ms", &|l| ns_ms(l.timings.route_ns)),
            solo_ms("engine.step_ms", &|l| ns_ms(l.timings.step_ns)),
            solo_ms("engine.check_ms", &|l| ns_ms(l.timings.check_ns)),
            solo_ms("engine.barrier_wait_ms", &|l| {
                ns_ms(l.timings.barrier_wait_ns)
            }),
            solo_ms("engine.ns_per_msg", &|l| ms(l.run) * 1e6 / messages as f64),
            solo_ms("engine_trial.request_ms", &|l| ms(l.request)),
            solo_ms("engine_trial.assemble_ms", &|l| ms(l.assemble)),
            service_ms("service.step_ms", &|l| ms(l.step)),
            service_ms("service.submit_ms", &|l| ms(l.submit)),
            service_ms("service.drain_ms", &|l| ms(l.drain)),
        ] {
            out.set(name, value);
        }
        let first = &service[0];
        out.set("engine.rounds", rounds as f64);
        out.set("engine.messages", messages as f64);
        out.set("service.super_rounds", first.super_rounds as f64);
        out.set(
            "service.us_per_super_round",
            layer(&traced_service, &|l| ms(l.step)) * 1e3 / first.super_rounds as f64,
        );
        out.set(
            "service.mean_occupancy",
            first.occupancy_sum as f64 / first.super_rounds as f64,
        );
        out.set(
            "service.queue_max",
            service.iter().map(|p| p.queue_max).max().unwrap_or(0) as f64,
        );
        let wall = |passes: &[Pass]| per_pass(passes, &|p| p.wall);
        out.set("service.batch_speedup", wall(&solo) / wall(&service));
        let untraced = wall(&service) + wall(&solo);
        let traced = wall(&traced_service) + wall(&traced_solo);
        out.set("trace.overhead_pct", (traced / untraced - 1.0) * 100.0);
        out.set(
            "engine.round_overhead_us",
            round_overhead_us(threads, checks),
        );
    }
    Ok(())
}
