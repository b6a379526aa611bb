//! The `cr-*` workloads: the paper's pipeline, `ColorReduce::run`, on one
//! generated instance, run back to back.
//!
//! The traced run replays the recursion of `ColorReduce` through the
//! public functions it is built from and times each call from outside.
//! It must reproduce `ColorReduce::run` exactly (coloring, report and
//! recursion trace), or the run counts as failed.

use std::time::{Duration, Instant};

use cc_graph::coloring::Coloring;
use cc_graph::csr::CsrGraph;
use cc_graph::generators::{self, instance_with_palettes, PaletteKind};
use cc_graph::instance::ListColoringInstance;
use cc_graph::palette::Palette;
use cc_graph::NodeId;
use cc_sim::constants::LENZEN_ROUTING_ROUNDS;
use cc_sim::distribution::Distribution;
use cc_sim::primitives::collect_to_single_machine;
use cc_sim::report::ExecutionReport;
use cc_sim::{ClusterContext, ExecutionModel};
use clique_coloring::good_bad::ActiveSubgraph;
use clique_coloring::local_color::{color_greedily, update_palettes_from_neighbors};
use clique_coloring::partition::partition;
use clique_coloring::trace::{CallAction, CallRecord, RecursionTrace};
use clique_coloring::{ColorReduce, ColorReduceConfig, ColorReduceOutcome};

use crate::clock::Stopwatch;
use crate::report::{Checks, Measured};
use crate::stats::{median, tail};
use crate::{derive_seed, timed_setup, Error, RunArgs, Window};

/// Which instance a `cr-*` workload colors.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// G(n = 2000, p = 0.3) with implicit Δ+1 palettes.
    Dense,
    /// `power_law(n = 4000, 16 edges/node)` with explicit Δ+1 lists drawn
    /// from a universe of 4n colors.
    PowerLawList,
}

fn build(shape: Shape, seed: u64) -> Result<ListColoringInstance, Error> {
    Ok(match shape {
        Shape::Dense => {
            let graph = generators::gnp(2000, 0.3, derive_seed(seed, 1))?;
            ListColoringInstance::delta_plus_one(&graph)?
        }
        Shape::PowerLawList => {
            let n = 4000;
            let graph = generators::power_law(n, 16, derive_seed(seed, 2))?;
            instance_with_palettes(
                &graph,
                PaletteKind::DeltaPlusOneList {
                    universe: 4 * n as u64,
                },
                derive_seed(seed, 3),
            )?
        }
    })
}

/// Runs one `cr-*` workload and records its metrics.
pub fn run(
    shape: Shape,
    args: &RunArgs,
    checks: &mut Checks,
    out: &mut Measured,
) -> Result<(), Error> {
    let instance = timed_setup(out, || build(shape, args.seed))?;
    out.detail(
        "instance",
        format!(
            "{{\"nodes\": {}, \"max_degree\": {}, \"edges\": {}}}",
            instance.node_count(),
            instance.max_degree(),
            instance.graph().edge_count()
        ),
    );
    let config = ColorReduceConfig::default();
    let model = ExecutionModel::congested_clique(instance.node_count());
    let driver = ColorReduce::new(config.clone());

    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut replay_walls = Vec::new();
    let mut layers = Vec::new();
    let mut reference: Option<ColorReduceOutcome> = None;
    let mut window = Window::new(args.seconds);
    while window.more() {
        let watch = Stopwatch::start();
        let result = driver.run(&instance, model.clone());
        let lap = watch.lap();
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(err) => {
                checks.attempt_failed(&format!("ColorReduce::run: {err}"));
                continue;
            }
        };
        walls.push(lap.seconds());
        raw_walls.push(lap.wall);
        let same = reference
            .as_ref()
            .is_none_or(|r| r.coloring() == outcome.coloring() && r.report() == outcome.report());
        checks.operation(&[
            (
                outcome.coloring().verify(&instance).is_ok(),
                "coloring verifies",
            ),
            (outcome.report().within_limits(), "report within limits"),
            (same, "identical to the first run"),
        ]);
        let reference = reference.get_or_insert(outcome);

        if args.trace {
            let watch = Stopwatch::start();
            let replayed = replay(&config, &instance, model.clone());
            let lap = watch.lap();
            match replayed {
                Ok(r) => {
                    checks.operation(&[
                        (
                            &r.coloring == reference.coloring(),
                            "replay coloring equals run",
                        ),
                        (&r.report == reference.report(), "replay report equals run"),
                        (&r.trace == reference.trace(), "replay trace equals run"),
                    ]);
                    replay_walls.push(lap.seconds());
                    layers.push((r.layers, lap.kept));
                }
                Err(err) => checks.attempt_failed(&format!("replay: {err}")),
            }
        }
    }
    let Some(reference) = reference else {
        return Err("no ColorReduce run succeeded".into());
    };
    let report = reference.report();
    let trace = reference.trace();
    out.samples("color_s", &walls);
    out.samples("color_wall_s", &raw_walls);
    out.detail("bad_nodes", trace.total_bad_nodes().to_string());

    let color_s = median(&walls);
    let runs_per_s = walls.len() as f64 / walls.iter().sum::<f64>();
    let (tail_pct, tail_s) = tail(&walls);
    out.detail("service_tail_percentile", crate::report::num(tail_pct));
    out.set("color_s", color_s);
    out.set("sim_rounds", report.rounds as f64);
    out.set("peak_machine_words", report.peak_local_words as f64);
    // No service runs here: each run is one request served back to back.
    out.set("solo_rps", runs_per_s);
    out.set("service_rps", runs_per_s);
    out.set("service_p50_ms", color_s * 1e3);
    out.set("service_tail_ms", tail_s * 1e3);

    if args.trace {
        per_layer(report, trace, &layers, out);
        let overhead = median(&replay_walls) / color_s - 1.0;
        out.set("trace.overhead_pct", overhead * 100.0);
        out.samples("replay_s", &replay_walls);
    }
    Ok(())
}

/// Wall time spent in each layer the replay calls into (before the
/// replay's stolen share is removed).
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    total: Duration,
    active_subgraph: Duration,
    partition: Duration,
    greedy: Duration,
    palette_update: Duration,
    /// cc-sim accounting: collects, fork/join, round and space charges.
    accounting: Duration,
}

fn per_layer(
    report: &ExecutionReport,
    trace: &RecursionTrace,
    layers: &[(Layers, f64)],
    out: &mut Measured,
) {
    let secs = |f: fn(&Layers) -> Duration| -> f64 {
        median(
            &layers
                .iter()
                .map(|(l, kept)| f(l).as_secs_f64() * kept)
                .collect::<Vec<_>>(),
        )
    };
    let partition_s = secs(|l| l.partition);
    let children = partition_s
        + secs(|l| l.active_subgraph)
        + secs(|l| l.greedy)
        + secs(|l| l.palette_update)
        + secs(|l| l.accounting);

    let records = || {
        trace
            .calls()
            .iter()
            .filter_map(|c| c.partition.as_ref().map(|p| (c, p)))
    };
    let candidates: u64 = records()
        .map(|(_, p)| p.seed_outcome.candidates_evaluated)
        .sum();
    let machine_evals: u64 = records()
        .map(|(c, p)| p.seed_outcome.candidates_evaluated * (c.nodes as u64 + p.bins))
        .sum();

    out.set("partition.calls", trace.partition_count() as f64);
    out.set("partition.s", partition_s);
    out.set("derand.candidates", candidates as f64);
    out.set(
        "derand.escalations",
        records()
            .map(|(_, p)| u64::from(p.seed_outcome.escalations))
            .sum::<u64>() as f64,
    );
    out.set(
        "derand.bounds_missed",
        records().filter(|(_, p)| !p.seed_outcome.met_bound).count() as f64,
    );
    out.set("derand.machine_evals", machine_evals as f64);
    if machine_evals > 0 {
        out.set(
            "derand.ns_per_machine_eval",
            partition_s * 1e9 / machine_evals as f64,
        );
    }
    out.set("good_bad.active_subgraph_s", secs(|l| l.active_subgraph));
    out.set("local_color.greedy_s", secs(|l| l.greedy));
    out.set("local_color.palette_update_s", secs(|l| l.palette_update));
    out.set("sim.accounting_s", secs(|l| l.accounting));
    out.set("color_reduce.self_s", secs(|l| l.total) - children);
    out.set("color_reduce.max_depth", trace.max_depth() as f64);
    out.set("color_reduce.collected", trace.collected_count() as f64);
    out.set("bad_nodes", trace.total_bad_nodes() as f64);
    out.set(
        "sim.rounds.partition",
        report.rounds_with_prefix("partition/") as f64,
    );
    out.set(
        "sim.rounds.collect",
        report.rounds_with_prefix("collect") as f64,
    );
    out.set(
        "sim.rounds.palette_update",
        report.rounds_with_prefix("palette-update/") as f64,
    );
    out.set("sim.comm_words", report.communication_words as f64);
}

struct Replayed {
    coloring: Coloring,
    report: ExecutionReport,
    trace: RecursionTrace,
    layers: Layers,
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let value = f();
    *acc += t.elapsed();
    value
}

/// `ColorReduce::run`, rebuilt from its public parts with every call into
/// a layer timed.
fn replay(
    config: &ColorReduceConfig,
    instance: &ListColoringInstance,
    model: ExecutionModel,
) -> Result<Replayed, Error> {
    let start = Instant::now();
    config.validate()?;
    instance.validate()?;
    let graph = instance.graph();
    let mut replay = Replay {
        config,
        graph,
        palettes: instance.palettes().to_vec(),
        coloring: Coloring::empty(graph.node_count()),
        trace: RecursionTrace::new(),
        layers: Layers::default(),
    };
    let mut ctx = ClusterContext::new(model);
    timed(&mut replay.layers.accounting, || -> Result<(), Error> {
        let node_words: Vec<usize> = graph
            .nodes()
            .map(|v| 1 + graph.degree(v) + instance.palette(v).words())
            .collect();
        let distribution = Distribution::pack_balanced(&node_words, ctx.model().machines.max(1));
        ctx.observe_local_space("input", distribution.max_load())?;
        ctx.observe_total_space("input", distribution.total_load())?;
        Ok(())
    })?;
    let active: Vec<NodeId> = graph.nodes().collect();
    let ell = (graph.max_degree() as u64).max(1);
    replay.reduce(&mut ctx, active, ell, 0)?;
    replay.coloring.verify(instance)?;
    let report = ctx.report();
    replay.layers.total = start.elapsed();
    Ok(Replayed {
        coloring: replay.coloring,
        report,
        trace: replay.trace,
        layers: replay.layers,
    })
}

struct Replay<'a> {
    config: &'a ColorReduceConfig,
    graph: &'a CsrGraph,
    palettes: Vec<Palette>,
    coloring: Coloring,
    trace: RecursionTrace,
    layers: Layers,
}

impl Replay<'_> {
    /// One `ColorReduce(G, ℓ)` call, step for step as the library does it.
    fn reduce(
        &mut self,
        ctx: &mut ClusterContext,
        active: Vec<NodeId>,
        ell: u64,
        depth: usize,
    ) -> Result<(), Error> {
        if active.is_empty() {
            return Ok(());
        }
        if depth > self.config.max_recursion_depth {
            return Err("recursion depth exceeded".into());
        }
        let graph = self.graph;
        let sub = timed(&mut self.layers.active_subgraph, || {
            ActiveSubgraph::new(graph, &self.palettes, &active)
        });
        let size = sub.size_words();
        let level = format!("level{depth}");
        timed(&mut self.layers.accounting, || {
            ctx.observe_total_space(&level, size)
        })?;

        let natural_bins = self.config.bins(ell);
        let fits = ctx.model().fits_on_one_machine(size);
        let bins = if !fits && natural_bins < 2 {
            2
        } else {
            natural_bins
        };
        let record = |action, partition| CallRecord {
            depth,
            nodes: sub.len(),
            edges: sub.edges_within,
            size_words: size,
            ell,
            max_degree: sub.max_degree(),
            action,
            partition,
        };
        if fits || ell < self.config.min_partition_ell || bins < 2 {
            timed(&mut self.layers.accounting, || {
                collect_to_single_machine(ctx, &format!("collect/{level}"), size)
            })?;
            timed(&mut self.layers.greedy, || {
                color_greedily(graph, &self.palettes, &mut self.coloring, &sub.nodes)
            })?;
            self.trace
                .record(record(CallAction::CollectedLocally, None));
            return Ok(());
        }

        let outcome = timed(&mut self.layers.partition, || {
            partition(
                ctx,
                &format!("partition/{level}"),
                graph,
                &self.palettes,
                &sub,
                ell,
                bins,
                graph.node_count(),
                self.config,
            )
        });
        self.trace.record(record(
            CallAction::Partitioned,
            Some(outcome.record.clone()),
        ));

        let color_bins = bins - 1;
        if color_bins >= 2 {
            for (bin_index, bin_nodes) in outcome.bins.iter().take(color_bins as usize).enumerate()
            {
                for &v in bin_nodes {
                    self.palettes[v.index()] = self.palettes[v.index()]
                        .filtered(|c| outcome.color_hash.eval(c.0) == bin_index as u64);
                }
            }
        }

        let child_ell = self.config.child_ell(ell, bins);
        let mut branches = Vec::new();
        for bin_nodes in outcome.bins.iter().take(color_bins as usize) {
            let mut branch = timed(&mut self.layers.accounting, || ctx.fork());
            self.reduce(&mut branch, bin_nodes.clone(), child_ell, depth + 1)?;
            branches.push(branch);
        }
        timed(&mut self.layers.accounting, || ctx.join_parallel(branches));

        let last_bin = outcome.bins[(bins - 1) as usize].clone();
        if !last_bin.is_empty() {
            timed(&mut self.layers.accounting, || {
                ctx.charge_rounds(&format!("palette-update/{level}"), LENZEN_ROUTING_ROUNDS)
            });
            timed(&mut self.layers.palette_update, || {
                update_palettes_from_neighbors(graph, &mut self.palettes, &self.coloring, &last_bin)
            });
            self.reduce(ctx, last_bin, child_ell, depth + 1)?;
        }

        if !outcome.bad_nodes.is_empty() {
            let bad = &outcome.bad_nodes;
            timed(&mut self.layers.accounting, || {
                ctx.charge_rounds(&format!("palette-update/{level}"), LENZEN_ROUTING_ROUNDS)
            });
            timed(&mut self.layers.palette_update, || {
                update_palettes_from_neighbors(graph, &mut self.palettes, &self.coloring, bad)
            });
            let bad_size = timed(&mut self.layers.active_subgraph, || {
                ActiveSubgraph::new(graph, &self.palettes, bad).size_words()
            });
            timed(&mut self.layers.accounting, || {
                collect_to_single_machine(ctx, &format!("collect-bad/{level}"), bad_size)
            })?;
            timed(&mut self.layers.greedy, || {
                color_greedily(graph, &self.palettes, &mut self.coloring, bad)
            })?;
        }
        Ok(())
    }
}
