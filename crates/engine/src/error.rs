//! Typed errors for the ingest engine: every failure mode the engine can
//! surface — a poisoned shard, a zero-weight update, an injected fault — is
//! an explicit [`EngineError`] variant instead of a panic. Overload is not
//! an error: a full shard queue blocks the producer until it drains.

use opthash_stream::ElementId;
use std::fmt;

/// Error returned by the fallible [`crate::IngestEngine`] operations.
///
/// The ingest and query paths never panic on runtime conditions: a shard
/// whose state was corrupted beyond recovery and malformed updates map to a
/// variant here so callers can react (fail the request, re-route).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// A weight-0 update was presented. Zero-weight arrivals are rejected at
    /// the API boundary because a zero count is the engine's *empty slot*
    /// marker: admitting one would be indistinguishable from no arrival at
    /// all and could be silently dropped. Rejections are counted in
    /// [`crate::EngineStats::zero_weight_rejections`].
    ZeroWeight {
        /// ID of the element whose update carried weight 0.
        id: ElementId,
    },
    /// The shard's state is corrupt beyond what the supervisor can recover
    /// (a panic struck while the shard's snapshot was being replaced, so
    /// the committed snapshot may be half-written). Queries and
    /// flushes fail with this error instead of returning wrong counts. An
    /// ingest call fails with it when it dispatches a batch to the shard;
    /// that batch is quarantined, so its mass stays accounted.
    ShardPoisoned {
        /// The unrecoverable shard.
        shard: usize,
    },
    /// A programmed failpoint fired with the *error* action (only reachable
    /// with the `failpoints` cargo feature).
    FaultInjected {
        /// Name of the failpoint that fired.
        failpoint: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ZeroWeight { id } => {
                write!(f, "zero-weight update for element {id} rejected")
            }
            EngineError::ShardPoisoned { shard } => {
                write!(f, "shard {shard} poisoned: state unrecoverable after panic")
            }
            EngineError::FaultInjected { failpoint } => {
                write!(f, "injected fault at failpoint '{failpoint}'")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let zero = EngineError::ZeroWeight { id: ElementId(42) };
        assert!(zero.to_string().contains("e42"));
        let poisoned = EngineError::ShardPoisoned { shard: 1 };
        assert!(poisoned.to_string().contains("shard 1"));
        assert!(poisoned.to_string().contains("unrecoverable"));
        let injected = EngineError::FaultInjected {
            failpoint: "engine::ingest",
        };
        assert!(injected.to_string().contains("'engine::ingest'"));
    }
}
