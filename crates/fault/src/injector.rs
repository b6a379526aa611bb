//! The [`FaultInjector`] hook and its no-op implementation; the other
//! implementation is [`crate::FaultPlan`] itself.
//!
//! The engine is generic over an injector exactly the way it is generic
//! over `cc-trace`'s `Recorder`: a `const ENABLED` flag lets every call
//! site guard its argument computation with `if F::ENABLED`, so the
//! default [`NoopInjector`] leaves the fault-free hot path untouched down
//! to the instruction level — the frozen ledger fixtures and the
//! alloc-free proofs hold with the hook in place.

use std::fmt;

use crate::plan::MessageFault;

/// A source of fault decisions the engine consults at seal and step time.
///
/// All methods take `&self` and are called concurrently from worker
/// threads inside `no_alloc` regions: implementations must not lock,
/// allocate, or consult anything non-deterministic. Decisions must be pure
/// functions of the model-level arguments.
pub trait FaultInjector: fmt::Debug + Send + Sync + 'static {
    /// Whether this injector can inject anything at all. Call sites guard
    /// fault bookkeeping with `if F::ENABLED`, so a disabled injector
    /// costs nothing.
    const ENABLED: bool;

    /// The settled outcome for one staged message at the given retry
    /// attempt (`None` = deliver clean). `seq` is the message's index
    /// within its sender's outbox this round.
    fn message_outcome(
        &self,
        round: u64,
        attempt: u32,
        src: u32,
        dst: u32,
        seq: u32,
        bits_limit: u32,
    ) -> Option<MessageFault>;

    /// Busy-wait iterations to inject into one chunk's seal this round.
    fn stall_spins(&self, round: u64, chunk: usize) -> u32;

    /// The round at whose start `node` crash-stops, if scheduled.
    fn crash_round(&self, node: u32) -> Option<u64>;

    /// Whether any message-delivery fault can ever fire (lets the engine
    /// skip allocating delivered-side buffers for crash-only plans).
    fn has_message_faults(&self) -> bool;
}

/// The default injector: injects nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopInjector;

impl FaultInjector for NoopInjector {
    const ENABLED: bool = false;

    #[inline(always)]
    fn message_outcome(
        &self,
        _round: u64,
        _attempt: u32,
        _src: u32,
        _dst: u32,
        _seq: u32,
        _bits_limit: u32,
    ) -> Option<MessageFault> {
        None
    }

    #[inline(always)]
    fn stall_spins(&self, _round: u64, _chunk: usize) -> u32 {
        0
    }

    #[inline(always)]
    fn crash_round(&self, _node: u32) -> Option<u64> {
        None
    }

    #[inline(always)]
    fn has_message_faults(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_clean() {
        const { assert!(!NoopInjector::ENABLED) }
        let noop = NoopInjector;
        assert_eq!(noop.message_outcome(0, 0, 0, 1, 0, 10), None);
        assert_eq!(noop.stall_spins(0, 0), 0);
        assert_eq!(noop.crash_round(0), None);
        assert!(!noop.has_message_faults());
    }
}
