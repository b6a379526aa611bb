//! Experiment harness for the reproduction.
//!
//! The paper has no empirical tables or figures; its quantitative content is
//! in the theorems and lemmas. Each experiment here (E1–E9 and E11, listed
//! in the README's Experiments section) measures one of those claims, or
//! one property of the execution stack, on concrete instances and prints a
//! table (E9 checks the `cc-runtime` message-passing engine across
//! worker-thread counts, E11 its fault recovery). Every table counts rounds,
//! words and outcomes, never time, so two runs print the same output; all
//! timing is the benchmark's (`perfbench/`, below).
//!
//! Every experiment is an ordinary function in [`experiments`]; the binaries
//! under `src/bin/` are thin wrappers so that
//! `cargo run -p cc-bench --release --bin exp_rounds` (etc.) regenerates a
//! single table and `--bin run_all` regenerates all of them. Results can
//! additionally be dumped as JSON via [`records`]. Each binary checks its
//! command line against its usage line with [`Args`]. One more binary,
//! `perf_ab`, is the same-runner A/B gate on the benchmark (`perfbench/`)
//! that CI runs between a change and its parent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod records;
pub mod suite;
pub mod table;

/// How large the experiment instances are.
///
/// `Quick` keeps every experiment under a few seconds (used by `run_all` in
/// CI-like settings); `Full` is the default of the binaries in the
/// README's Experiments section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small instances, seconds per experiment.
    Quick,
    /// The binaries' default scale.
    Full,
}

impl Scale {
    /// Scales a size: full scale returns `full`, quick scale returns
    /// `quick`.
    pub fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// A binary's command line, checked against its usage line.
///
/// The usage line is the specification: after the program name, `[--flag]`
/// is a switch, `[--flag VALUE]` a flag that takes a value, and any other
/// word a required positional argument, as in
/// `exp_engine [--quick] [--threads LIST] [--dump PATH] [--trace PATH]`.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    /// Parses the process arguments against `usage`. On an unknown flag, a
    /// flag without its value or a wrong number of positional arguments, it
    /// prints the fault and the usage line and exits with status 2, before
    /// the binary runs anything.
    pub fn parse(usage: &'static str) -> Args {
        Args::try_parse(usage, std::env::args().skip(1))
            .unwrap_or_else(|why| exit_usage(usage, &why))
    }

    fn try_parse(
        usage: &'static str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let (mut switches, mut valued, mut positional) = (Vec::new(), Vec::new(), 0);
        let mut spec = usage.split_whitespace().skip(1);
        while let Some(word) = spec.next() {
            match word.strip_prefix('[') {
                Some(flag) => match flag.strip_suffix(']') {
                    Some(switch) => switches.push(switch),
                    None => {
                        valued.push(flag);
                        spec.next();
                    }
                },
                None => positional += 1,
            }
        }
        let mut parsed = Args {
            usage,
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if switches.contains(&arg.as_str()) {
                parsed.flags.push((arg, None));
            } else if valued.contains(&arg.as_str()) {
                let value = args.next().filter(|v| !v.starts_with("--"));
                let value = value.ok_or_else(|| format!("{arg} needs a value"))?;
                parsed.flags.push((arg, Some(value)));
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag {arg}"));
            } else {
                parsed.positional.push(arg);
            }
        }
        if parsed.positional.len() != positional {
            return Err(format!(
                "expected {positional} positional argument(s), got {}",
                parsed.positional.len()
            ));
        }
        Ok(parsed)
    }

    /// The value of the last `flag` given, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let last = self.flags.iter().rev().find(|(f, _)| f == flag);
        last.and_then(|(_, v)| v.as_deref())
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// [`Scale::Quick`] with `--quick`, else [`Scale::Full`].
    pub fn scale(&self) -> Scale {
        if self.flags.iter().any(|(f, _)| f == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// The worker-thread counts of `--threads 1,4`, else `default`. A list
    /// that is not comma-separated integers exits as [`Args::parse`] does.
    pub fn threads(&self, default: &[usize]) -> Vec<usize> {
        let Some(list) = self.value("--threads") else {
            return default.to_vec();
        };
        let parsed: Result<Vec<usize>, _> = list.split(',').map(|t| t.trim().parse()).collect();
        parsed.unwrap_or_else(|_| {
            exit_usage(self.usage, &format!("--threads takes integers, got {list}"))
        })
    }
}

/// Prints `why` and the usage line to stderr and exits with status 2.
fn exit_usage(usage: &str, why: &str) -> ! {
    let program = usage.split_whitespace().next().unwrap_or("cc-bench");
    eprintln!("{program}: {why}\nusage: {usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(usage: &'static str, args: &[&str]) -> Result<Args, String> {
        Args::try_parse(usage, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn args_follow_the_usage_line() {
        const USAGE: &str = "prog [--quick] [--dump PATH] A B";
        let args = parse(USAGE, &["x", "--dump", "out", "--quick", "y"]).unwrap();
        assert_eq!(args.scale(), Scale::Quick);
        assert_eq!(args.value("--dump"), Some("out"));
        assert_eq!(args.positional(), ["x", "y"]);
        assert_eq!(parse(USAGE, &["x", "y"]).unwrap().scale(), Scale::Full);
        for bad in [
            &["x", "y", "--bogus"][..],
            &["x", "y", "--dump"],
            &["x", "y", "--dump", "--quick"],
            &["x"],
            &["x", "y", "z"],
        ] {
            assert!(parse(USAGE, bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(10, 100), 10);
        assert_eq!(Scale::Full.pick(10, 100), 100);
    }
}
