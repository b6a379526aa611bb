//! Error types of the coloring algorithms.

use cc_graph::{GraphError, NodeId};
use cc_sim::SimError;

/// Errors returned by the coloring drivers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// The input instance or an intermediate coloring violated a graph-level
    /// invariant.
    Graph(GraphError),
    /// A simulator constraint was violated while running in strict mode.
    Sim(SimError),
    /// Greedy local coloring found a node with no usable color left. This
    /// indicates a bug in palette bookkeeping (the `p(v) > d(v)` invariant
    /// guarantees it cannot happen on valid inputs).
    PaletteExhausted {
        /// The node that could not be colored.
        node: NodeId,
    },
    /// The recursion exceeded its configured safety depth.
    RecursionDepthExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Human-readable description.
        reason: String,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
            CoreError::PaletteExhausted { node } => {
                write!(
                    f,
                    "no available color for node {node} during local coloring"
                )
            }
            CoreError::RecursionDepthExceeded { limit } => {
                write!(f, "recursion exceeded the safety depth of {limit}")
            }
            CoreError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Graph(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let g: CoreError = GraphError::Uncolored { node: NodeId(3) }.into();
        assert!(g.to_string().contains("graph error"));
        let violation = cc_sim::error::Violation {
            label: "x".into(),
            kind: cc_sim::error::ViolationKind::BandwidthExceeded { words: 2, limit: 1 },
        };
        let s: CoreError = SimError::ConstraintViolated(violation).into();
        assert!(s.to_string().contains("simulation error"));
        let p = CoreError::PaletteExhausted { node: NodeId(1) };
        assert!(p.to_string().contains("v1"));
        let d = CoreError::RecursionDepthExceeded { limit: 9 };
        assert!(d.to_string().contains('9'));
    }

    #[test]
    fn sources_are_exposed() {
        use std::error::Error;
        let g: CoreError = GraphError::Uncolored { node: NodeId(3) }.into();
        assert!(g.source().is_some());
        let p = CoreError::PaletteExhausted { node: NodeId(1) };
        assert!(p.source().is_none());
    }
}
