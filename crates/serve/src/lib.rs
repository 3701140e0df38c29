//! Resilient serving layer for RSSE endpoints: admission control,
//! per-request deadlines, budgeted retries, and per-shard circuit breakers.
//!
//! `rsse-core` builds encrypted range indexes and answers queries over
//! them; this crate turns that query path into a *service* that stays
//! predictable when storage misbehaves or load spikes:
//!
//! - [`admission`] — bounded per-tenant queues with typed load shedding
//!   (queue depth and block-cache pressure) and oldest-tenant-fair drains.
//! - [`clock`] — the time abstraction: a system clock for production, a
//!   virtual clock so every deadline/backoff/cooldown test is exact and
//!   instant.
//! - [`breaker`] — per-shard circuit breakers: consecutive failures open a
//!   shard, a cooldown trial heals it, open shards fail fast.
//! - [`retry`] — a global retry-token budget with seeded decorrelated-jitter
//!   backoff, replacing unbounded (or fixed-one-shot) retrying.
//! - [`error`] — every degraded outcome as a typed, matchable
//!   [`ServeError`], including partial results for expired deadlines.
//! - [`server`] — [`ResilientServer`], the guarded probe loop tying it all
//!   together over any [`ServeIndex`] backend. It answers through one
//!   entry: a [`Query`] (tokens, tenant, deadline budget) goes in a batch,
//!   [`answer`](ResilientServer::answer) being a batch of one,
//!   [`answer_batch`](ResilientServer::answer_batch) any batch and
//!   [`drain`](ResilientServer::drain) the queued admission plan.
//! - [`executor`] — the batch executor behind that entry: a batch of one
//!   runs its token vector through one guarded scan; in a larger batch
//!   each distinct token is scanned once and shared across the queries
//!   demanding it, byte-identical outcomes.
//!
//! Completed queries are byte-identical to the raw `rsse_core` path; the
//! resilience machinery only changes *when* probes happen and how failures
//! surface. The chaos battery in `tests/resilient_serving.rs` pins that
//! equivalence under seeded fault plans (see `rsse_sse::FaultPlan`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod breaker;
pub mod clock;
pub mod error;
pub mod executor;
pub mod retry;
pub mod server;

pub use admission::{AdmissionConfig, Ticket};
pub use breaker::{Admit, BreakerConfig, BreakerState, ShardHealth};
pub use clock::{Clock, SystemClock, VirtualClock};
pub use error::{OverloadReason, PartialOutcome, ServeError};
pub use retry::{RetryConfig, RetryPolicy};
pub use server::{Query, ResilientServer, ServeConfig, ServeIndex, ServeStats};
