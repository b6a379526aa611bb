//! Error and violation types for the simulator.

/// A violated model constraint, recorded by the [`crate::ClusterContext`].
///
/// In lenient mode (the default) violations are collected and reported; in
/// strict mode the offending operation returns a [`SimError`] instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Phase label under which the violation occurred.
    pub label: String,
    /// What was violated.
    pub kind: ViolationKind,
}

/// The kinds of constraint the simulator checks.
///
/// Marked `#[non_exhaustive]`: new execution backends (such as `cc-runtime`)
/// add constraint kinds over time, and downstream matches must stay valid
/// when they do.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ViolationKind {
    /// A single machine was asked to hold more words than its local space 𝔰.
    LocalSpaceExceeded {
        /// Words the machine would have to hold.
        words: usize,
        /// The local space limit.
        limit: usize,
    },
    /// The sum of all machines' holdings exceeded the total space 𝔐·𝔰.
    TotalSpaceExceeded {
        /// Total words across machines.
        words: usize,
        /// The global space limit.
        limit: usize,
    },
    /// A machine sent or received more words in one routing round than the
    /// model allows (O(𝔫) for Lenzen routing, 𝔰 for MPC).
    BandwidthExceeded {
        /// Words the machine sends/receives in the round.
        words: usize,
        /// The per-round limit.
        limit: usize,
    },
    /// A single message carried more than the O(log 𝔫) bits one word may
    /// hold. Checked by the message-passing engine (`cc-runtime`) at
    /// delivery time.
    MessageTooWide {
        /// Significant bits in the offending word.
        bits: u32,
        /// The per-message width limit in bits.
        limit: u32,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ViolationKind::LocalSpaceExceeded { words, limit } => write!(
                f,
                "[{}] local space exceeded: {} words > limit {}",
                self.label, words, limit
            ),
            ViolationKind::TotalSpaceExceeded { words, limit } => write!(
                f,
                "[{}] total space exceeded: {} words > limit {}",
                self.label, words, limit
            ),
            ViolationKind::BandwidthExceeded { words, limit } => write!(
                f,
                "[{}] per-round bandwidth exceeded: {} words > limit {}",
                self.label, words, limit
            ),
            ViolationKind::MessageTooWide { bits, limit } => write!(
                f,
                "[{}] message too wide: {} bits > limit of {} bits per word",
                self.label, bits, limit
            ),
        }
    }
}

/// Error returned by simulator operations in strict mode.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A model constraint was violated.
    ConstraintViolated(Violation),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::ConstraintViolated(v) => write!(f, "model constraint violated: {v}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_mentions_label_and_numbers() {
        let v = Violation {
            label: "partition".to_string(),
            kind: ViolationKind::LocalSpaceExceeded {
                words: 100,
                limit: 50,
            },
        };
        let msg = v.to_string();
        assert!(msg.contains("partition"));
        assert!(msg.contains("100"));
        assert!(msg.contains("50"));
    }

    #[test]
    fn sim_error_is_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<SimError>();
        let e = SimError::ConstraintViolated(Violation {
            label: "x".into(),
            kind: ViolationKind::BandwidthExceeded { words: 2, limit: 1 },
        });
        assert!(e.to_string().contains("model constraint violated"));
    }
}
