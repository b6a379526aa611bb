//! Bounds on how hard the engine tries to recover a damaged round.

/// The recovery budget for one execution.
///
/// When the engine detects a damaged round (delivered digests differ from
/// the intended ones), it restores the round's checkpoint and re-executes,
/// up to `max_round_retries` times per round, charging each wasted
/// attempt as one model round. A round still damaged after the budget is
/// committed as-is and the outcome is marked degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed per damaged round before committing the damage.
    pub max_round_retries: u32,
}

impl Default for RetryPolicy {
    /// 16 retries: with per-message settling, even a 50% fault rate leaves
    /// ~0.0015% of messages unsettled after 16 attempts.
    fn default() -> Self {
        RetryPolicy {
            max_round_retries: 16,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: damage is committed immediately.
    #[must_use]
    pub fn none() -> Self {
        RetryPolicy {
            max_round_retries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_allows_retries_and_none_does_not() {
        assert_eq!(RetryPolicy::default().max_round_retries, 16);
        assert_eq!(RetryPolicy::none().max_round_retries, 0);
    }
}
