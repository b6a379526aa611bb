//! The workspace's randomized baselines, as per-node programs.
//!
//! These programs are the only implementations of the two classic
//! O(log 𝔫)-phase randomized algorithms the deterministic coloring is
//! compared against:
//!
//! * [`trial::TrialColoringProgram`] — the randomized propose/resolve list
//!   coloring, two engine rounds per phase;
//! * [`luby::LubyMisProgram`] — Luby's MIS, three engine rounds per phase
//!   (priorities, joins, leaves).
//!
//! Programs here take plain adjacency lists and exchange color/priority
//! words; the trial coloring also takes its node's
//! [`cc_graph::palette::Palette`], so a program shares its instance's
//! palette instead of copying it. The `cc-core` and `cc-mis` crates provide
//! the adapters that build these programs from `CsrGraph`-based instances
//! and interpret the outputs.

pub mod luby;
pub mod trial;
