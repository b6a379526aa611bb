//! Prints the message-plane perf trajectory across a sequence of bench
//! records — the committed per-PR history plus a fresh `BENCH_CURRENT.json`
//! — so the perf story is machine-readable in CI logs: one delta line per
//! consecutive pair, then the cumulative first-to-last line.
//!
//! By default informational only (always exits 0 — wall-clock on shared
//! runners is noisy). With `--fail-above <pct>`, the newest record's
//! ns/msg is gated against the second-newest (the committed baseline): a
//! regression beyond `pct` percent exits 1, turning the trajectory into a
//! hard CI gate. The gate also exits 1 when it has nothing to judge: no
//! readable baseline, or a newest record that is missing, has no parsable
//! `ns_per_msg` (a NaN is written as `NaN`, which does not parse), or
//! lacks the `service_rps` its baseline carries. Older records that are
//! missing or unreadable drop out of the trajectory with a warning.
//!
//! Usage: `bench_delta [--fail-above <pct>] BENCH_BASELINE_PR2.json
//! BENCH_PR3.json BENCH_CURRENT.json` (any number of records ≥ 2, oldest
//! first).

use std::process::ExitCode;

/// Pulls `"key": <number>` out of the flat bench-record JSON.
fn field(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &json[json.find(&needle)? + needle.len()..];
    let value: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    value.parse().ok()
}

/// Reads one record as `(name, json)`, named by its file stem. A record
/// without a parsable `ns_per_msg` counts as unreadable.
fn read_record(path: &str) -> Result<(String, String), String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    if field(&json, "ns_per_msg").is_none() {
        return Err(format!("{path} has no ns_per_msg field"));
    }
    let name = path.rsplit('/').next().unwrap_or(path);
    Ok((name.trim_end_matches(".json").to_string(), json))
}

/// One delta line: `a -> b: X ns/msg -> Y ns/msg = Z.ZZx faster`.
fn delta_line(a_name: &str, a_ns: f64, b_name: &str, b_ns: f64) -> String {
    let speedup = a_ns / b_ns.max(f64::MIN_POSITIVE);
    format!(
        "  {a_name} -> {b_name}: {a_ns:.1} -> {b_ns:.1} ns/msg = {speedup:.2}x {}",
        if speedup >= 1.0 { "faster" } else { "SLOWER" }
    )
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // --fail-above <pct>: regression gate against the second-newest record.
    let mut fail_above: Option<f64> = None;
    if let Some(flag) = args.iter().position(|a| a == "--fail-above") {
        if flag + 1 >= args.len() {
            eprintln!("bench_delta: --fail-above needs a percentage argument");
            return ExitCode::FAILURE;
        }
        match args[flag + 1].parse::<f64>() {
            Ok(pct) if pct >= 0.0 => fail_above = Some(pct),
            _ => {
                eprintln!(
                    "bench_delta: --fail-above wants a non-negative percentage, got {:?}",
                    args[flag + 1]
                );
                return ExitCode::FAILURE;
            }
        }
        args.drain(flag..=flag + 1);
    }
    // Informational runs always exit 0; the gate fails when it has no
    // fresh measurement and baseline to compare.
    let nothing_compared = if fail_above.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    };
    if args.len() < 2 {
        eprintln!("usage: bench_delta [--fail-above <pct>] OLDEST.json [MID.json ...] NEWEST.json");
        return nothing_compared;
    }
    let newest = args.len() - 1;
    let mut records = Vec::new();
    for (i, path) in args.iter().enumerate() {
        match read_record(path) {
            Ok(record) => records.push(record),
            // The newest record is the measurement under the gate.
            Err(why) if fail_above.is_some() && i == newest => {
                eprintln!("bench_delta: FAIL — {why}, so there is nothing to gate");
                return ExitCode::FAILURE;
            }
            // An older record drops out of the trajectory instead of
            // aborting it: CI should still see the deltas it does have.
            Err(why) => eprintln!("bench_delta: {why}, skipping"),
        }
    }
    let [(first_name, first_json), .., (last_name, last_json)] = records.as_slice() else {
        eprintln!("bench_delta: fewer than two readable records, nothing to compare");
        return nothing_compared;
    };
    let ns = |json: &str| field(json, "ns_per_msg").expect("filtered above");
    let n = field(last_json, "n").unwrap_or(0.0);
    let cpus = field(last_json, "host_cpus").unwrap_or(0.0);
    println!("message-plane perf trajectory @ n={n:.0} ({cpus:.0} CPU host):");
    for pair in records.windows(2) {
        let (a_name, a_json) = &pair[0];
        let (b_name, b_json) = &pair[1];
        println!("{}", delta_line(a_name, ns(a_json), b_name, ns(b_json)));
    }
    if records.len() > 2 {
        println!(
            "{}",
            delta_line(first_name, ns(first_json), last_name, ns(last_json))
                .replace("  ", "  overall ")
        );
    }
    if let (Some(route), Some(step), Some(check)) = (
        field(last_json, "route_ns"),
        field(last_json, "step_ns"),
        field(last_json, "check_ns"),
    ) {
        // barrier_wait_ns only exists in records written after the trace
        // plane landed; older records just omit the cell.
        let barrier = field(last_json, "barrier_wait_ns").map_or(String::new(), |b| {
            format!(", barrier wait {:.0}us", b / 1e3)
        });
        println!(
            "  {last_name} phase breakdown: route {:.0}us, step {:.0}us, check {:.0}us{barrier}",
            route / 1e3,
            step / 1e3,
            check / 1e3
        );
    }
    if let (Some(hot), Some(plaw)) = (
        field(last_json, "hot_ns_per_msg"),
        field(last_json, "plaw_ns_per_msg"),
    ) {
        println!("  {last_name} skewed workloads: hot-receiver {hot:.1} ns/msg, power-law {plaw:.1} ns/msg");
    }
    // fault_ns_per_msg only exists in records written after the fault
    // plane landed: the same workload with a zero-rate `FaultPlan`
    // armed (checkpoint every round, digest check every barrier, no fault
    // ever fires). The overhead of *arming* should be within noise of the
    // NoopInjector number.
    if let (Some(fault), Some(noop)) = (
        field(last_json, "fault_ns_per_msg"),
        field(last_json, "ns_per_msg"),
    ) {
        let overhead = (fault - noop) / noop.max(f64::MIN_POSITIVE) * 100.0;
        println!(
            "  {last_name} fault plane armed (zero-rate): {fault:.1} vs {noop:.1} \
             ns/msg = {overhead:+.1}% overhead"
        );
    }
    // service_rps only exists in records written after the batched
    // `ColoringService` landed: requests/sec of the tracked E10 sample
    // (uniform small-instance mix, 8 slots, threads = 2) next to its
    // reusable-handle solo-loop baseline.
    if let Some(rps) = field(last_json, "service_rps") {
        let solo = field(last_json, "solo_rps").map_or(String::new(), |s| {
            format!(
                " (solo loop {s:.0}, {:.2}x batched)",
                rps / s.max(f64::MIN_POSITIVE)
            )
        });
        println!("  {last_name} service throughput: {rps:.0} req/s{solo}");
    }
    if let Some(pct) = fail_above {
        // Gate the newest record against the second-newest: the committed
        // per-PR baseline the fresh CI measurement is expected to hold.
        let (base_name, base_json) = &records[records.len() - 2];
        let (base, current) = (ns(base_json), ns(last_json));
        let change = (current - base) / base.max(f64::MIN_POSITIVE) * 100.0;
        if change > pct {
            eprintln!(
                "bench_delta: FAIL — {last_name} is {change:.1}% slower than \
                 {base_name} ({base:.1} -> {current:.1} ns/msg), above the \
                 {pct:.0}% gate"
            );
            return ExitCode::FAILURE;
        }
        println!(
            "  gate: {last_name} vs {base_name} = {change:+.1}% ns/msg \
             (limit +{pct:.0}%) — ok"
        );
        // Throughput leg of the same gate: service requests/sec must not
        // drop more than `pct` percent below the committed baseline.
        // Baselines from before the service existed skip the leg.
        if let Some(base_rps) = field(base_json, "service_rps") {
            let Some(current_rps) = field(last_json, "service_rps") else {
                eprintln!(
                    "bench_delta: FAIL — {last_name} has no service_rps to gate \
                     against {base_name}"
                );
                return ExitCode::FAILURE;
            };
            let drop = (base_rps - current_rps) / base_rps.max(f64::MIN_POSITIVE) * 100.0;
            if drop > pct {
                eprintln!(
                    "bench_delta: FAIL — {last_name} serves {drop:.1}% fewer req/s than \
                     {base_name} ({base_rps:.0} -> {current_rps:.0}), above the \
                     {pct:.0}% gate"
                );
                return ExitCode::FAILURE;
            }
            println!(
                "  gate: {last_name} vs {base_name} = {:+.1}% req/s \
                 (limit -{pct:.0}%) — ok",
                -drop
            );
        }
    }
    ExitCode::SUCCESS
}
