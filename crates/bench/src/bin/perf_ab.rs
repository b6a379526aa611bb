//! The same-runner A/B gate on the benchmark: `perf_ab PARENT CHANGE`.
//!
//! PARENT and CHANGE are two checkouts of the repository. Their absolute
//! paths must have equal lengths: the release build embeds the source paths
//! of perfbench's path dependencies, so a longer path shifts every function
//! and the runs would compare two code layouts as well as two commits. The
//! gate builds perfbench in each checkout, then runs every workload that
//! both `BENCHMARK.json` files list, untraced, in [`PAIRS`] alternating
//! pairs of [`SECONDS`]-second windows: pair k runs seed k on both sides,
//! PARENT first when k is odd and CHANGE first when it is even.
//!
//! For each workload it prints, for every end-to-end metric of PARENT's
//! `BENCHMARK.json`, the two medians, the move in the metric's worse
//! direction as a share of PARENT's median, each side's interquartile
//! range (IQR) as a share of PARENT's median, and the metric's bound. A
//! metric whose median passes reads `unresolved` instead of `ok` when
//! either side's IQR exceeds the bound, unless every CHANGE run is better
//! than every PARENT run: a spread that wide can hide a move past the
//! bound. It exits 1 when a median moves past its bound in the worse
//! direction, when a metric is missing from a run, or when a run does not
//! read `"correct": true` with `"failed": 0`; it exits 2 on a usage error
//! or on paths of unequal length. An unresolved metric does not change the
//! exit status. Absolute times do not carry over between hosts,
//! nor between hours on one shared host, so the gate compares only runs it
//! made itself, alternately, on one runner.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use cc_bench::table::Table;

/// Alternating pairs per workload. In A/A runs (two clones of one commit)
/// on a shared 2-CPU VM, ten pairs of 5 s windows kept every median within
/// 20% of the other side's, while 3 pairs let one come within 1% of a 25%
/// bound and 5 pairs of 10 s let one pass it.
const PAIRS: u64 = 10;

/// The measuring window of each run, in seconds.
const SECONDS: u64 = 5;

fn main() -> ExitCode {
    let args = cc_bench::Args::parse("perf_ab PARENT CHANGE");
    let mut checkouts = Vec::new();
    for path in args.positional() {
        match std::fs::canonicalize(path) {
            Ok(path) => checkouts.push(path),
            Err(e) => {
                eprintln!("perf_ab: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let [parent, change] = [&checkouts[0], &checkouts[1]];
    if let Err(why) = equal_lengths(parent, change) {
        eprintln!("perf_ab: {why}");
        return ExitCode::from(2);
    }
    match gate(parent, change) {
        Ok(problems) if problems.is_empty() => {
            println!("\nperf_ab: pass");
            ExitCode::SUCCESS
        }
        Ok(problems) => {
            for problem in problems {
                eprintln!("perf_ab: FAIL {problem}");
            }
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("perf_ab: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Refuses checkouts whose absolute paths differ in length.
fn equal_lengths(parent: &Path, change: &Path) -> Result<(), String> {
    let (p, c) = (parent.as_os_str().len(), change.as_os_str().len());
    if p == c {
        Ok(())
    } else {
        Err(format!(
            "the checkouts' paths must have equal lengths, since the release \
             build embeds them and a longer one shifts every function: {} has \
             {p} bytes, {} has {c}",
            parent.display(),
            change.display()
        ))
    }
}

/// Builds and runs both sides, prints a table per workload, and returns
/// every problem that fails the gate, each naming its workload.
fn gate(parent: &Path, change: &Path) -> Result<Vec<String>, String> {
    let specs = [read_spec(parent)?, read_spec(change)?];
    let bins = [build(parent)?, build(change)?];
    let checkouts = [parent, change];
    println!(
        "perf_ab: PARENT {}, CHANGE {}; {PAIRS} alternating pairs of {SECONDS} s \
         untraced runs per workload",
        parent.display(),
        change.display()
    );
    let mut problems = Vec::new();
    for workload in specs[0]
        .workloads
        .iter()
        .filter(|w| specs[1].workloads.contains(w))
    {
        let mut runs = [Vec::new(), Vec::new()];
        for seed in 1..=PAIRS {
            eprintln!("perf_ab: {workload} pair {seed}/{PAIRS}");
            let order = if seed % 2 == 1 { [0, 1] } else { [1, 0] };
            for side in order {
                runs[side].push(run(&bins[side], checkouts[side], workload, seed)?);
            }
        }
        let (table, found) = judge(&specs[0].metrics, &runs[0], &runs[1]);
        table.print(&format!(
            "{workload}: medians and IQRs of {PAIRS} runs per side"
        ));
        problems.extend(found.into_iter().map(|p| format!("{workload} {p}")));
    }
    Ok(problems)
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// The largest move in the worse direction that is not a regression,
    /// as a share of PARENT's median.
    bound: f64,
}

/// What one checkout's `BENCHMARK.json` declares.
struct Spec {
    workloads: Vec<String>,
    metrics: Vec<Metric>,
}

fn read_spec(checkout: &Path) -> Result<Spec, String> {
    let path = checkout.join("BENCHMARK.json");
    let json = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let workloads = objects(&json, "workloads")
        .into_iter()
        .map(|w| text(w, "name"));
    let metrics = objects(&json, "end_to_end").into_iter().map(|m| {
        Some(Metric {
            name: text(m, "name")?,
            unit: text(m, "unit")?,
            higher_is_better: text(m, "better")? == "higher",
            bound: number(m, "bound")?,
        })
    });
    match (workloads.collect(), metrics.collect()) {
        (Some(workloads), Some(metrics)) => Ok(Spec { workloads, metrics }),
        _ => Err(format!("{}: an entry lacks a field", path.display())),
    }
}

/// Builds perfbench in `checkout`, into the checkout's own target
/// directory, and returns the binary.
fn build(checkout: &Path) -> Result<PathBuf, String> {
    let manifest = checkout.join("perfbench/Cargo.toml");
    let target = checkout.join("perfbench/target");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
        ])
        .arg(&manifest)
        .arg("--target-dir")
        .arg(&target)
        .status()
        .map_err(|e| format!("could not start cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {} failed: {status}", manifest.display()));
    }
    Ok(target.join("release/perfbench"))
}

/// Runs one untraced perfbench window in `checkout` and returns its result
/// line, the last line it prints.
fn run(bin: &Path, checkout: &Path, workload: &str, seed: u64) -> Result<String, String> {
    let output = Command::new(bin)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &SECONDS.to_string(),
        ])
        .current_dir(checkout)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start {}: {e}", bin.display()))?;
    if !output.status.success() {
        let at = checkout.display();
        return Err(format!(
            "{workload} seed {seed} in {at}: perfbench failed: {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    Ok(stdout.lines().last().unwrap_or_default().to_string())
}

/// Judges one workload's result lines: a table row per metric, and each
/// problem that fails the gate. A metric's move is the change of CHANGE's
/// median in the metric's worse direction, and each side's spread its
/// IQR, both as shares of PARENT's median.
fn judge(metrics: &[Metric], parent: &[String], change: &[String]) -> (Table, Vec<String>) {
    let mut problems: Vec<String> = [("PARENT", parent), ("CHANGE", change)]
        .iter()
        .flat_map(|(side, runs)| runs.iter().filter(|r| !correct(r)).map(move |r| (side, r)))
        .map(|(side, r)| format!("a {side} run is not correct with 0 failed: {r}"))
        .collect();
    let mut table = Table::new([
        "metric",
        "unit",
        "PARENT",
        "CHANGE",
        "worse by",
        "PARENT IQR",
        "CHANGE IQR",
        "bound",
        "",
    ]);
    for metric in metrics {
        let sorted_values = |runs: &[String]| -> Option<Vec<f64>> {
            let values = runs
                .iter()
                .map(|r| number(after(r, &metric.name)?, "value"));
            let mut values = values
                .collect::<Option<Vec<f64>>>()
                .filter(|v| !v.is_empty())?;
            values.sort_by(f64::total_cmp);
            Some(values)
        };
        let (Some(pv), Some(cv)) = (sorted_values(parent), sorted_values(change)) else {
            problems.push(format!("{} is missing from a run", metric.name));
            continue;
        };
        let (p, c) = (quantile(&pv, 0.5), quantile(&cv, 0.5));
        let share = |x: f64| if x == 0.0 { 0.0 } else { x / p.abs() };
        let iqr = |v: &[f64]| share(quantile(v, 0.75) - quantile(v, 0.25));
        let (p_iqr, c_iqr) = (iqr(&pv), iqr(&cv));
        let rise = share(c - p);
        let worse_by = if metric.higher_is_better { -rise } else { rise };
        let breached = worse_by > metric.bound;
        let every_run_better = if metric.higher_is_better {
            cv[0] > pv[pv.len() - 1]
        } else {
            cv[cv.len() - 1] < pv[0]
        };
        let unresolved = (p_iqr > metric.bound || c_iqr > metric.bound) && !every_run_better;
        if breached {
            problems.push(format!(
                "{} median moved {:.1}% in its worse direction ({} -> {} {}), past its {:.0}% bound",
                metric.name,
                worse_by * 100.0,
                significant(p),
                significant(c),
                metric.unit,
                metric.bound * 100.0
            ));
        }
        table.row([
            metric.name.clone(),
            metric.unit.clone(),
            significant(p),
            significant(c),
            format!("{:+.1}%", worse_by * 100.0),
            format!("{:.1}%", p_iqr * 100.0),
            format!("{:.1}%", c_iqr * 100.0),
            format!("{:.0}%", metric.bound * 100.0),
            if breached {
                "FAIL"
            } else if unresolved {
                "unresolved"
            } else {
                "ok"
            }
            .to_string(),
        ]);
    }
    (table, problems)
}

/// Whether a result line reads `"correct": true` with `"failed": 0`.
fn correct(run: &str) -> bool {
    after(run, "correct").is_some_and(|v| v.starts_with("true"))
        && number(run, "failed") == Some(0.0)
}

/// The `q`-quantile of ascending, non-empty `sorted`, interpolated
/// linearly between the two nearest ranks; `q = 0.5` is the median.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = q * (sorted.len() - 1) as f64;
    let (below, above) = (sorted[rank.floor() as usize], sorted[rank.ceil() as usize]);
    below + (above - below) * rank.fract()
}

/// Four significant digits.
fn significant(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (3 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

// The two JSON formats read here are flat and fixed: perfbench's result
// line, and `BENCHMARK.json`'s arrays of flat objects. A value is found by
// its quoted key, which appears once per object.

/// The JSON text after the first `"key":` in `json`, less leading space.
fn after<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    Some(json[json.find(&needle)? + needle.len()..].trim_start())
}

/// The string value of `"key"` (one without escapes).
fn text(json: &str, key: &str) -> Option<String> {
    Some(
        after(json, key)?
            .strip_prefix('"')?
            .split('"')
            .next()?
            .to_string(),
    )
}

/// The number value of `"key"`.
fn number(json: &str, key: &str) -> Option<f64> {
    let value = after(json, key)?;
    let end = value.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)));
    value[..end.unwrap_or(value.len())].parse().ok()
}

/// The flat objects of the array under `"key"`, each as its text. Braces
/// and brackets inside strings do not count.
fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let (mut out, mut start, mut in_string, mut escaped) = (Vec::new(), 0, false, false);
    let array = after(json, key).unwrap_or_default();
    for (i, c) in array.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = in_string,
            '"' => in_string = !in_string,
            _ if in_string => {}
            '{' => start = i,
            '}' => out.push(&array[start..=i]),
            ']' => break,
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, higher_is_better: bool) -> Metric {
        Metric {
            name: name.to_string(),
            unit: "s".to_string(),
            higher_is_better,
            bound: 0.25,
        }
    }

    /// A result line in perfbench's format.
    fn result(correct: bool, failed: u64, metrics: &[(&str, f64)]) -> String {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"s\"}}"))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": 9, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }

    /// Three runs a side: `parent` and `change` hold each metric's values.
    fn verdict(metrics: &[Metric], parent: &[(&str, f64)], change: &[(&str, f64)]) -> Vec<String> {
        let side = |values: &[(&str, f64)]| vec![result(true, 0, values); 3];
        judge(metrics, &side(parent), &side(change)).1
    }

    #[test]
    fn a_lower_is_better_metric_past_its_bound_fails() {
        let problems = verdict(
            &[metric("color_s", false)],
            &[("color_s", 1.0)],
            &[("color_s", 1.3)],
        );
        assert_eq!(problems.len(), 1);
        assert!(problems[0].starts_with("color_s median moved 30.0% in its worse direction"));
    }

    #[test]
    fn a_higher_is_better_metric_past_its_bound_fails() {
        let rps = [metric("solo_rps", true)];
        let problems = verdict(&rps, &[("solo_rps", 100.0)], &[("solo_rps", 70.0)]);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].starts_with("solo_rps median moved 30.0%"));
        // Faster by any amount is no regression.
        assert!(verdict(&rps, &[("solo_rps", 100.0)], &[("solo_rps", 500.0)]).is_empty());
    }

    #[test]
    fn moves_within_the_bound_pass() {
        let metrics = [metric("color_s", false), metric("solo_rps", true)];
        let parent = [("color_s", 1.0), ("solo_rps", 100.0)];
        assert!(verdict(&metrics, &parent, &[("color_s", 1.24), ("solo_rps", 76.0)]).is_empty());
        assert!(verdict(&metrics, &parent, &[("color_s", 0.5), ("solo_rps", 130.0)]).is_empty());
        // The median decides: one slow run in three does not fail.
        let runs = |values: [f64; 3]| values.map(|v| result(true, 0, &[("color_s", v)]));
        assert!(
            judge(&metrics[..1], &runs([1.0; 3]), &runs([9.0, 1.0, 1.0]))
                .1
                .is_empty()
        );
        assert_eq!(
            judge(&metrics[..1], &runs([1.0; 3]), &runs([1.0, 1.3, 1.3]))
                .1
                .len(),
            1
        );
    }

    #[test]
    fn a_spread_past_the_bound_leaves_a_passing_median_unresolved() {
        let metrics = [metric("color_s", false)];
        let runs = |values: &[f64]| -> Vec<String> {
            values
                .iter()
                .map(|&v| result(true, 0, &[("color_s", v)]))
                .collect()
        };
        // The row's cells after the metric and unit: both medians, the
        // move, both IQRs, the bound and the verdict.
        let row = |parent: &[f64], change: &[f64]| -> Vec<String> {
            let (table, problems) = judge(&metrics, &runs(parent), &runs(change));
            assert!(problems.is_empty(), "{problems:?}");
            let rendered = table.render();
            let last = rendered.lines().last().unwrap();
            last.split_whitespace().skip(2).map(String::from).collect()
        };
        let steady = [1.0; 4];
        // Quartiles 0.85 and 1.15 around a median of 1: an IQR of 30%.
        let wide = [0.4, 1.0, 1.0, 1.6];
        assert_eq!(row(&steady, &steady)[6], "ok");
        assert_eq!(
            row(&steady, &wide),
            [
                "1.000",
                "1.000",
                "+0.0%",
                "0.0%",
                "30.0%",
                "25%",
                "unresolved"
            ]
        );
        assert_eq!(row(&wide, &steady)[6], "unresolved");
        // Unless every CHANGE run is better than every PARENT run.
        assert_eq!(row(&[1.7, 2.0, 3.0, 3.5], &wide)[6], "ok");
        // A median past its bound still fails, whatever the spread.
        let slow = runs(&[1.0, 1.4, 1.4, 2.0]);
        assert_eq!(judge(&metrics, &runs(&wide), &slow).1.len(), 1);
    }

    #[test]
    fn an_incorrect_or_failing_run_fails() {
        let metrics = [metric("color_s", false)];
        let good = vec![result(true, 0, &[("color_s", 1.0)]); 3];
        for bad in [
            result(false, 0, &[("color_s", 1.0)]),
            result(true, 2, &[("color_s", 1.0)]),
        ] {
            let change = [good[0].clone(), good[1].clone(), bad];
            let problems = judge(&metrics, &good, &change).1;
            assert_eq!(problems.len(), 1, "{problems:?}");
            assert!(problems[0].starts_with("a CHANGE run is not correct with 0 failed"));
        }
    }

    #[test]
    fn a_missing_metric_fails() {
        let metrics = [metric("color_s", false), metric("solo_rps", true)];
        let both = [("color_s", 1.0), ("solo_rps", 100.0)];
        let problems = verdict(&metrics, &both, &[("color_s", 1.0)]);
        assert_eq!(problems, ["solo_rps is missing from a run"]);
    }

    #[test]
    fn checkouts_at_paths_of_unequal_length_are_refused() {
        let parent = Path::new("/tmp/ab/parent");
        assert!(equal_lengths(parent, Path::new("/tmp/ab/change")).is_ok());
        assert!(equal_lengths(parent, Path::new("/tmp/ab/change2")).is_err());
    }

    #[test]
    fn the_repository_benchmark_declares_workloads_and_bounded_metrics() {
        let spec = read_spec(Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))).unwrap();
        assert!(spec.workloads.iter().any(|w| w == "stream-t2"));
        let color = spec.metrics.iter().find(|m| m.name == "color_s").unwrap();
        assert!(!color.higher_is_better && color.bound > 0.0);
        assert!(spec
            .metrics
            .iter()
            .any(|m| m.name == "solo_rps" && m.higher_is_better));
    }

    #[test]
    fn flat_objects_skip_braces_inside_strings() {
        let json = r#"{"w": [{"name": "a", "why": "x{y}] \"z\""}, {"name": "b"}], "v": []}"#;
        let names: Vec<_> = objects(json, "w").iter().map(|o| text(o, "name")).collect();
        assert_eq!(names, [Some("a".to_string()), Some("b".to_string())]);
        assert!(objects(json, "v").is_empty());
        assert_eq!(number(r#"{"a": -1.5e3}"#, "a"), Some(-1500.0));
    }
}
