//! The metric vocabulary, the result line, and the host fingerprint.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("color_s", "s"),
    ("sim_rounds", "rounds"),
    ("peak_machine_words", "words"),
    ("service_rps", "1/s"),
    ("service_p50_ms", "ms"),
    ("service_tail_ms", "ms"),
    ("solo_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A metric
/// of a layer the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // ColorReduce: the partition seed search (cr-*).
    ("partition.calls", "count"),
    ("partition.s", "s"),
    ("derand.candidates", "count"),
    ("derand.escalations", "count"),
    ("derand.bounds_missed", "count"),
    ("derand.machine_evals", "count"),
    ("derand.ns_per_machine_eval", "ns"),
    // ColorReduce: the rest of the recursion (cr-*).
    ("good_bad.active_subgraph_s", "s"),
    ("local_color.greedy_s", "s"),
    ("local_color.palette_update_s", "s"),
    ("sim.accounting_s", "s"),
    ("color_reduce.self_s", "s"),
    ("color_reduce.max_depth", "count"),
    ("color_reduce.collected", "count"),
    ("bad_nodes", "count"),
    ("sim.rounds.partition", "rounds"),
    ("sim.rounds.collect", "rounds"),
    ("sim.rounds.palette_update", "rounds"),
    ("sim.comm_words", "words"),
    // Engine (stream-t2, solo leg).
    ("engine.round_overhead_us", "us"),
    ("engine.barrier_wait_ms", "ms"),
    ("engine.rounds", "rounds"),
    ("engine.messages", "count"),
    ("engine.route_ms", "ms"),
    ("engine.step_ms", "ms"),
    ("engine.check_ms", "ms"),
    ("engine.ns_per_msg", "ns"),
    // Service (stream-t2, service leg).
    ("service.step_ms", "ms"),
    ("service.submit_ms", "ms"),
    ("service.drain_ms", "ms"),
    ("service.super_rounds", "count"),
    ("service.us_per_super_round", "us"),
    ("service.mean_occupancy", "slots"),
    ("service.queue_max", "count"),
    ("service.batch_speedup", "x"),
    // The trial-coloring adapter both legs share (stream-t2).
    ("engine_trial.request_ms", "ms"),
    ("engine_trial.assemble_ms", "ms"),
    // Every workload.
    ("trace.overhead_pct", "%"),
    ("error_rate", "ratio"),
];

/// Counts operations attempted and failed; a failure also goes to stderr.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation, failed unless every `(ok, what)` holds.
    pub fn operation(&mut self, conditions: &[(bool, &str)]) {
        self.attempted += 1;
        let missed: Vec<&str> = conditions
            .iter()
            .filter(|(ok, _)| !ok)
            .map(|(_, what)| *what)
            .collect();
        if !missed.is_empty() {
            self.fail(&missed.join(", "));
        }
    }

    /// Counts one operation that failed outright.
    pub fn attempt_failed(&mut self, why: &str) {
        self.attempted += 1;
        self.fail(why);
    }

    fn fail(&mut self, why: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("perfbench: check failed: {why}");
        }
    }
}

/// One run's measurements: metric values by name plus free-form detail.
#[derive(Debug, Default)]
pub struct Measured {
    values: BTreeMap<&'static str, f64>,
    detail: Vec<(String, String)>,
}

impl Measured {
    /// Sets a metric; the name must belong to [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Adds a detail entry whose value is already JSON.
    pub fn detail(&mut self, key: &str, json: String) {
        self.detail.push((key.to_string(), json));
    }

    /// Adds the summary of a sample set (count, min, quartiles, max).
    pub fn samples(&mut self, key: &str, values: &[f64]) {
        let [q1, q2, q3] = crate::stats::quartiles(values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.detail(
            key,
            format!(
                "{{\"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}",
                values.len(),
                num(min),
                num(q1),
                num(q2),
                num(q3),
                num(max)
            ),
        );
    }

    /// The detail line: every detail entry as one JSON object.
    pub fn detail_line(&self) -> String {
        let body: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}: {v}", text(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// per-layer metric when `traced`, else every end-to-end one (an unset
    /// end-to-end metric is a bug; an unset per-layer metric reads 0).
    pub fn result_line(&self, checks: &Checks, traced: bool) -> String {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                text(name),
                num(value),
                text(unit)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            checks.failed == 0 && checks.attempted > 0,
            checks.attempted,
            checks.failed
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// non-finite values (never expected) become 0.
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// A JSON string.
pub fn text(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// The host fingerprint as a JSON object: CPUs, available parallelism,
/// the threads this workload uses, and the source commit when the working
/// directory is a git checkout.
pub fn fingerprint(threads: usize) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpus = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"cpus\": {cpus}, \"cpu_model\": {}, \"available_parallelism\": {parallelism}, \
         \"threads\": {threads}, \"os\": {}, \"commit\": {}}}",
        text(model),
        text(&format!(
            "{}-{}",
            std::env::consts::OS,
            std::env::consts::ARCH
        )),
        text(&git_commit().unwrap_or_else(|| "unknown".to_string()))
    )
}

/// Reads the checked-out commit from `.git` in the working directory.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_listed_in_benchmark_json() {
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_fills_unset_per_layer_metrics_with_zero() {
        let mut m = Measured::default();
        m.set("partition.calls", 4.0);
        let checks = Checks {
            attempted: 2,
            failed: 0,
        };
        let line = m.result_line(&checks, true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0"));
        assert!(line.contains("\"partition.calls\": {\"value\": 4, \"unit\": \"count\"}"));
        assert!(line.contains("\"engine.rounds\": {\"value\": 0, \"unit\": \"rounds\"}"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(text("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
