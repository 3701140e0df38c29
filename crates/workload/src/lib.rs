//! Synthetic workloads mirroring the paper's evaluation datasets.
//!
//! The paper evaluates on two real datasets that are not redistributable
//! here:
//!
//! * **Gowalla** — 6.4M location check-ins, query attribute = check-in
//!   timestamp, ~95% of the tuples carry *distinct* values (near-uniform
//!   spread over a ~10^8-value domain);
//! * **USPS** — 389K employee records, query attribute = annual salary,
//!   only ~5% distinct values (heavy skew: many employees share the same
//!   salary step).
//!
//! What the experiments actually exercise is not the raw data but those two
//! statistical profiles — size, domain, distinct-value ratio and skew — so
//! this crate generates synthetic datasets with the same profiles
//! ([`datasets::gowalla_like`], [`datasets::usps_like`]) plus fully
//! parameterised generators ([`datasets::synthetic`]) and the query
//! workloads of Figures 6–8 ([`queries`]).
//!
//! Beside them, [`trace`] generates deterministic multi-tenant event
//! streams — Zipf-hotspot range queries mixed with insert batches — on the
//! Poisson arrivals of [`arrivals`], and [`insert_batches`] the update
//! batches of the ingest workloads.

#![deny(missing_docs)]

pub mod arrivals;
pub mod datasets;
pub mod distributions;
pub mod queries;
pub mod trace;

pub use arrivals::ArrivalProcess;
pub use datasets::{gowalla_like, synthetic, usps_like, DatasetProfile, SyntheticConfig};
pub use distributions::{ClusteredValues, UniformValues, ValueDistribution, Zipf};
pub use queries::{percent_of_domain, random_queries_of_len, random_queries_percent, QuerySet};
pub use trace::{insert_batch, insert_batches, EventKind, Trace, TraceEvent, TraceSpec};
