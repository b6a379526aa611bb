//! Machine-readable experiment records (JSON), so the tables of the
//! README's Experiments section can be regenerated and diffed.
//!
//! Serialization is hand-rolled: the build environment has no crates.io
//! access, the record shape is flat, and a ~40-line formatter keeps the
//! workspace free of a vendored `serde`/`serde_json`.

use std::io::Write;
use std::path::{Path, PathBuf};

/// One measured run of one algorithm on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Experiment id (e.g. "E1").
    pub experiment: String,
    /// Instance label.
    pub instance: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Number of nodes.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Simulated rounds.
    pub rounds: u64,
    /// Words communicated.
    pub communication_words: u64,
    /// Peak single-machine space in words.
    pub peak_local_words: usize,
    /// Peak total space in words.
    pub peak_total_words: usize,
    /// Whether all model constraints held.
    pub within_limits: bool,
    /// Free-form extra measurements (name, value).
    pub extra: Vec<(String, f64)>,
}

/// Escapes a string for inclusion in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a finite `f64` as JSON (JSON has no NaN/Inf; those become `null`).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// Serializes records as a JSON array, one field per line.
pub fn to_json(records: &[RunRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        let extra: Vec<String> = r
            .extra
            .iter()
            .map(|(k, v)| format!("[\"{}\",{}]", escape_json(k), json_number(*v)))
            .collect();
        let fields = [
            format!("\"experiment\":\"{}\"", escape_json(&r.experiment)),
            format!("\"instance\":\"{}\"", escape_json(&r.instance)),
            format!("\"algorithm\":\"{}\"", escape_json(&r.algorithm)),
            format!("\"n\":{}", r.n),
            format!("\"m\":{}", r.m),
            format!("\"max_degree\":{}", r.max_degree),
            format!("\"rounds\":{}", r.rounds),
            format!("\"communication_words\":{}", r.communication_words),
            format!("\"peak_local_words\":{}", r.peak_local_words),
            format!("\"peak_total_words\":{}", r.peak_total_words),
            format!("\"within_limits\":{}", r.within_limits),
            format!("\"extra\":[{}]", extra.join(",")),
        ];
        for (j, field) in fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(field);
        }
        out.push_str("\n  }");
    }
    out.push_str("\n]");
    out
}

/// Writes records as pretty JSON under `target/experiments/<name>.json`.
///
/// Returns the path written. Errors are reported to stderr and swallowed —
/// failing to persist a JSON copy must never fail an experiment run.
pub fn write_json(name: &str, records: &[RunRecord]) -> Option<PathBuf> {
    let dir = Path::new("target").join("experiments");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    let json = to_json(records);
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: could not write {}: {e}", path.display());
            None
        }
    }
}

impl RunRecord {
    /// Convenience constructor from an execution report.
    pub fn from_report(
        experiment: &str,
        instance: &str,
        algorithm: &str,
        stats: (usize, usize, usize),
        report: &cc_sim::report::ExecutionReport,
    ) -> Self {
        RunRecord {
            experiment: experiment.to_string(),
            instance: instance.to_string(),
            algorithm: algorithm.to_string(),
            n: stats.0,
            m: stats.1,
            max_degree: stats.2,
            rounds: report.rounds,
            communication_words: report.communication_words,
            peak_local_words: report.peak_local_words,
            peak_total_words: report.peak_total_words,
            within_limits: report.within_limits(),
            extra: Vec::new(),
        }
    }

    /// Adds an extra named measurement.
    pub fn with_extra(mut self, name: &str, value: f64) -> Self {
        self.extra.push((name.to_string(), value));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        RunRecord {
            experiment: "E1".into(),
            instance: "gnp".into(),
            algorithm: "color-reduce".into(),
            n: 10,
            m: 20,
            max_degree: 5,
            rounds: 7,
            communication_words: 100,
            peak_local_words: 50,
            peak_total_words: 200,
            within_limits: true,
            extra: vec![("bad_nodes".into(), 0.0)],
        }
    }

    #[test]
    fn records_serialize_to_json() {
        let json = to_json(&[sample()]);
        assert!(json.contains("\"experiment\":\"E1\""));
        assert!(json.contains("bad_nodes"));
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut r = sample();
        r.instance = "quote \" backslash \\ newline \n".into();
        let json = to_json(&[r]);
        assert!(json.contains("quote \\\" backslash \\\\ newline \\n"));
    }

    #[test]
    fn json_non_finite_extra_becomes_null() {
        let r = sample().with_extra("ratio", f64::INFINITY);
        let json = to_json(&[r]);
        assert!(json.contains("[\"ratio\",null]"));
    }

    #[test]
    fn with_extra_appends() {
        let r = sample().with_extra("depth", 3.0);
        assert_eq!(r.extra.len(), 2);
        assert_eq!(r.extra[1], ("depth".to_string(), 3.0));
    }

    #[test]
    fn write_json_creates_file() {
        let path = write_json("unit-test-record", &[sample()]);
        if let Some(p) = path {
            assert!(p.exists());
            let contents = std::fs::read_to_string(p).unwrap();
            assert!(contents.contains("color-reduce"));
        }
    }
}
