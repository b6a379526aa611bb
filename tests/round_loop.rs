//! The engine's round loop under a plain `cargo test`: one small
//! trial-coloring instance, stepped at two thread counts, through a
//! two-slot batching service, and with a trace recorder attached, must
//! give one answer. The runtime crate's own suites hold the full
//! properties; this file keeps the loop they share on the tier-1 path.

use std::sync::Arc;

use congested_clique_coloring::coloring::baselines::engine_trial::{
    EngineTrialColoring, EngineTrialOutcome,
};
use congested_clique_coloring::prelude::*;
use congested_clique_coloring::runtime::trace::RingRecorder;
use congested_clique_coloring::runtime::{ColoringService, ServiceConfig};

const N: usize = 60;

fn instance() -> ListColoringInstance {
    let graph = generators::gnp(N, 0.1, 7).expect("gnp graph");
    ListColoringInstance::delta_plus_one(&graph).expect("Δ+1 instance")
}

fn model() -> ExecutionModel {
    ExecutionModel::congested_clique(N)
}

fn algo(threads: usize, seed: u64) -> EngineTrialColoring {
    EngineTrialColoring {
        threads,
        seed,
        ..EngineTrialColoring::default()
    }
}

fn assert_same(a: &EngineTrialOutcome, b: &EngineTrialOutcome, what: &str) {
    assert_eq!(a.outcome.coloring, b.outcome.coloring, "{what}: coloring");
    assert_eq!(a.ledger, b.ledger, "{what}: ledger");
    assert_eq!(a.outcome.report, b.outcome.report, "{what}: report");
    assert_eq!(a.engine_rounds, b.engine_rounds, "{what}: rounds");
}

#[test]
fn two_threads_match_one() {
    let instance = instance();
    let one = algo(1, 3).run(&instance, model()).expect("threads 1");
    one.outcome
        .coloring
        .verify(&instance)
        .expect("proper coloring");
    assert!(one.ledger.total_messages() > 0);
    let two = algo(2, 3).run(&instance, model()).expect("threads 2");
    assert_same(&one, &two, "threads 2 vs 1");
}

#[test]
fn a_two_slot_service_matches_solo_runs() {
    let instance = instance();
    // Three seeds for two slots: the third request waits for a retirement
    // and refills the freed slot.
    let seeds = [3, 4, 5];
    let mut service = ColoringService::new(ServiceConfig::with_slots(2));
    for &seed in &seeds {
        let request = algo(1, seed).service_request(&instance, model());
        service.submit(request.expect("valid instance"));
    }
    let mut outcomes = service.run_until_idle();
    assert_eq!(outcomes.len(), seeds.len());
    outcomes.sort_by_key(|o| o.id);
    for (&seed, outcome) in seeds.iter().zip(outcomes) {
        let run = outcome.result.expect("service run");
        let batched = algo(1, seed).assemble(&instance, run).expect("assemble");
        let solo = algo(1, seed).run(&instance, model()).expect("solo run");
        assert_same(&solo, &batched, &format!("service vs solo, seed {seed}"));
    }
}

#[test]
fn recording_leaves_the_run_unchanged() {
    let instance = instance();
    let plain = algo(1, 3).run(&instance, model()).expect("plain run");
    let recorder = Arc::new(RingRecorder::default());
    let request = algo(1, 3)
        .service_request(&instance, model())
        .expect("valid instance");
    let run = Engine::new(request.config)
        .with_recorder(Arc::clone(&recorder))
        .run(request.model, request.programs)
        .expect("recorded run");
    let traced = algo(1, 3).assemble(&instance, run).expect("assemble");
    assert_same(&plain, &traced, "recorded vs plain");
    assert!(recorder.recorded_events() > 0);
    assert_eq!(recorder.summary().rounds.len() as u64, traced.engine_rounds);
}
