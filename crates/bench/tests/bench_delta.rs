//! CI's perf gate, `bench_delta --fail-above`, run as a binary on flat
//! records: it fails on a measured regression in either leg and when the
//! fresh record is missing or unparsable, and passes when both legs hold.

use std::process::Command;

/// A record's two gated fields: `(ns_per_msg, service_rps)`.
type Record = Option<(f64, f64)>;

/// Writes `records` (oldest first; `None` leaves that file absent) under
/// a fresh temp directory, runs the gate at +15% over them, and reports
/// whether it passed.
fn passes(case: &str, records: &[Record]) -> bool {
    let dir = std::env::temp_dir().join(format!("bench_delta-{}-{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let paths: Vec<_> = records
        .iter()
        .enumerate()
        .map(|(i, record)| {
            let path = dir.join(format!("R{i}.json"));
            if let Some((ns_per_msg, service_rps)) = record {
                let json = format!(
                    "{{\n  \"ns_per_msg\": {ns_per_msg:.2},\n  \"service_rps\": {service_rps:.1}\n}}\n"
                );
                std::fs::write(&path, json).expect("write record");
            }
            path
        })
        .collect();
    let output = Command::new(env!("CARGO_BIN_EXE_bench_delta"))
        .args(["--fail-above", "15"])
        .args(&paths)
        .output()
        .expect("run bench_delta");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    output.status.success()
}

const BASE: Record = Some((33.0, 20_000.0));

#[test]
fn missing_fresh_record_fails() {
    assert!(!passes("missing", &[BASE, BASE, None]));
}

#[test]
fn missing_baseline_fails() {
    assert!(!passes("no-baseline", &[None, BASE]));
}

#[test]
fn nan_fresh_record_fails() {
    assert!(!passes("nan", &[BASE, Some((f64::NAN, 20_000.0))]));
    assert!(!passes("nan-rps", &[BASE, Some((33.0, f64::NAN))]));
}

#[test]
fn ns_per_msg_up_20_percent_fails() {
    assert!(!passes("slower", &[BASE, Some((39.6, 20_000.0))]));
}

#[test]
fn service_rps_down_20_percent_fails() {
    assert!(!passes("fewer-rps", &[BASE, Some((33.0, 16_000.0))]));
}

#[test]
fn both_legs_within_5_percent_pass() {
    assert!(passes("worse", &[BASE, Some((34.65, 19_000.0))]));
    assert!(passes("better", &[BASE, Some((31.35, 21_000.0))]));
}

#[test]
fn missing_older_record_drops_out() {
    assert!(passes("older", &[None, BASE, BASE]));
}
