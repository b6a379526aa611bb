//! Smoke test: every workspace error type is a uniform, well-behaved
//! `std::error::Error`.
//!
//! The workspace promises that its errors compose with `?`, `Box<dyn
//! Error>`, and multi-threaded call sites (the `cc-runtime` engine moves
//! results across threads). This test pins the trait bounds so a regression
//! — a dropped `Display` impl, an error type gaining a non-`Send` field —
//! fails to compile rather than surfacing downstream.

use congested_clique_coloring::coloring::error::CoreError;
use congested_clique_coloring::graph::GraphError;
use congested_clique_coloring::mis::verify::MisError;
use congested_clique_coloring::prelude::NodeId;
use congested_clique_coloring::sim::error::{SimError, Violation, ViolationKind};

/// The uniform bound every workspace error must satisfy.
fn assert_uniform_error<E>()
where
    E: std::error::Error + std::fmt::Display + std::fmt::Debug + Send + Sync + 'static,
{
}

#[test]
fn all_workspace_errors_satisfy_the_uniform_bound() {
    assert_uniform_error::<GraphError>();
    assert_uniform_error::<SimError>();
    assert_uniform_error::<CoreError>();
    assert_uniform_error::<MisError>();
}

#[test]
fn errors_box_into_dyn_error() {
    // `?`-style conversion into the catch-all error type must work for all
    // of them.
    fn boxed<E: std::error::Error + Send + Sync + 'static>(e: E) -> Box<dyn std::error::Error> {
        Box::new(e)
    }
    let g = boxed(GraphError::Uncolored { node: NodeId(1) });
    assert!(g.to_string().contains("v1"));
    let s = boxed(SimError::ConstraintViolated(Violation {
        label: "x".into(),
        kind: ViolationKind::BandwidthExceeded { words: 2, limit: 1 },
    }));
    assert!(s.to_string().contains("model constraint violated"));
    let c = boxed(CoreError::PaletteExhausted { node: NodeId(2) });
    assert!(c.to_string().contains("v2"));
    let m = boxed(MisError::NotMaximal { node: NodeId(3) });
    assert!(m.to_string().contains("v3"));
}

#[test]
fn error_sources_chain() {
    use std::error::Error;
    let core: CoreError = GraphError::Uncolored { node: NodeId(4) }.into();
    let source = core.source().expect("wrapped graph error has a source");
    assert!(source.to_string().contains("v4"));
}

#[test]
fn non_exhaustive_enums_still_match_with_wildcards() {
    // The error enums are #[non_exhaustive]; downstream code must always
    // keep a wildcard arm. This match is the documented pattern.
    let violation = Violation {
        label: "x".into(),
        kind: ViolationKind::MessageTooWide {
            bits: 40,
            limit: 16,
        },
    };
    let described = match violation.kind {
        ViolationKind::BandwidthExceeded { .. } => "bandwidth",
        ViolationKind::MessageTooWide { .. } => "width",
        _ => "other",
    };
    assert_eq!(described, "width");
}
