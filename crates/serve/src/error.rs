//! Typed degraded-mode outcomes: every way the resilient serving loop can
//! decline or cut short a query is a distinct, matchable variant — never a
//! panic, never a silently shortened result.

use rsse_core::DocId;
use rsse_sse::StorageError;
use std::fmt;
use std::time::Duration;

/// Why an admission attempt was shed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadReason {
    /// The tenant's own bounded queue is full — a noisy neighbor sheds
    /// itself, not everyone else.
    TenantQueueFull,
    /// The server-wide queue bound is reached.
    GlobalQueueFull,
    /// The block cache reports more resident bytes than the configured
    /// shed threshold — memory pressure, shed before thrashing.
    CachePressure,
}

impl fmt::Display for OverloadReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TenantQueueFull => write!(f, "tenant queue full"),
            Self::GlobalQueueFull => write!(f, "global queue full"),
            Self::CachePressure => write!(f, "cache pressure"),
        }
    }
}

/// What a deadline-expired query had resolved before it was cut off.
///
/// The partial ids are a faithful prefix of the work — per token, a prefix
/// of its group in storage-counter order (the counter scan of one query
/// advances all its tokens in counter rounds; the batch executor scans
/// token by token) — and every id in here was decrypted and decoded
/// exactly as a completed query would have.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartialOutcome {
    /// Ids resolved before the deadline tripped (token order, each token
    /// group in storage-counter order).
    pub ids: Vec<DocId>,
    /// Dictionary probes that completed successfully.
    pub probes_resolved: u64,
    /// Tokens the query would have answered in full.
    pub tokens_total: usize,
}

/// A typed degraded-mode serving outcome.
#[derive(Debug)]
pub enum ServeError {
    /// The request was shed at admission — it consumed no probes and no
    /// retry budget. Back off and resubmit.
    Overloaded {
        /// The tenant whose request was shed.
        tenant: String,
        /// What bound tripped.
        reason: OverloadReason,
        /// Entries queued server-wide at shed time.
        queued: usize,
        /// The bound that tripped (queue capacity or resident-byte limit).
        limit: usize,
    },
    /// The per-request deadline expired mid-scan; probe fan-out stopped at
    /// the next probe boundary and the partially resolved result is
    /// returned typed instead of discarded.
    DeadlineExceeded {
        /// Time the query was allotted.
        deadline: Duration,
        /// Time it had consumed when the deadline tripped.
        elapsed: Duration,
        /// What it resolved before stopping.
        partial: PartialOutcome,
    },
    /// The probed shard's circuit breaker is open (or mid-trial): the query
    /// failed fast without touching storage or consuming retry budget.
    ShardUnavailable {
        /// The unhealthy shard.
        shard: u32,
        /// How long the breaker had been open when this query arrived.
        open_for: Duration,
    },
    /// A probe kept failing until its attempt limit — or the global retry
    /// budget — ran out; the last storage error is attached.
    RetriesExhausted {
        /// Probe attempts performed (including the first).
        attempts: u32,
        /// Whether the global retry budget (rather than the per-probe
        /// attempt limit) was the binding constraint.
        budget_empty: bool,
        /// The last typed storage error.
        source: StorageError,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overloaded {
                tenant,
                reason,
                queued,
                limit,
            } => write!(
                f,
                "overloaded ({reason}): tenant {tenant:?} shed with {queued} queued (limit {limit})"
            ),
            Self::DeadlineExceeded {
                deadline,
                elapsed,
                partial,
            } => write!(
                f,
                "deadline exceeded: {elapsed:?} of {deadline:?} spent, \
                 {} ids / {} probes resolved of {} tokens",
                partial.ids.len(),
                partial.probes_resolved,
                partial.tokens_total
            ),
            Self::ShardUnavailable { shard, open_for } => {
                write!(
                    f,
                    "shard {shard} unavailable: breaker open for {open_for:?}"
                )
            }
            Self::RetriesExhausted {
                attempts,
                budget_empty,
                source,
            } => write!(
                f,
                "retries exhausted after {attempts} attempts ({}): {source}",
                if *budget_empty {
                    "global retry budget empty"
                } else {
                    "per-probe attempt limit"
                }
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::RetriesExhausted { source, .. } => Some(source),
            _ => None,
        }
    }
}
