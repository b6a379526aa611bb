//! Experiment harness for the reproduction.
//!
//! The paper has no empirical tables or figures; its quantitative content is
//! in the theorems and lemmas. Each experiment here (E1–E11, listed in the
//! README's Experiments section) measures one of those claims, or one
//! property of the execution stack, on concrete instances and prints a
//! table (E9 times the `cc-runtime` message-passing engine across
//! worker-thread counts).
//!
//! Every experiment is an ordinary function in [`experiments`]; the binaries
//! under `src/bin/` are thin wrappers so that
//! `cargo run -p cc-bench --release --bin exp_rounds` (etc.) regenerates a
//! single table and `--bin run_all` regenerates all of them. Results can
//! additionally be dumped as JSON via [`records`].

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
    /// Parses the scale from the process arguments (`--quick` selects
    /// [`Scale::Quick`]; default is [`Scale::Full`]).
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Scales a size: full scale returns `full`, quick scale returns
    /// `quick`.
    pub fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(10, 100), 10);
        assert_eq!(Scale::Full.pick(10, 100), 100);
    }
}
