//! Experiment harness reproducing the evaluation of *Practical Private
//! Range Search Revisited* (SIGMOD 2016).
//!
//! Each public function in [`experiments`] regenerates one table or figure
//! of the paper (at laptop scale by default — see [`Scale`]); the
//! `reproduce` binary is a thin CLI over them. Performance is measured
//! elsewhere, by the `perf/` harness the benchmark gates on; this crate
//! only regenerates the paper's artefacts.
//!
//! | Paper artefact | Function |
//! |---|---|
//! | Table 1 (measured columns)        | [`experiments::table1`] |
//! | Figure 5(a)/(b) — index costs, Gowalla | [`experiments::fig5_index_costs`] |
//! | Table 2 — index costs, USPS       | [`experiments::table2`] |
//! | Figure 6(a)/(b) — false positives | [`experiments::fig6_false_positives`] |
//! | Figure 7(a)/(b) — search time     | [`experiments::fig7_search_time`] |
//! | Figure 8(a)/(b) — query costs at the owner | [`experiments::fig8_query_costs`] |
//! | Cover ablation (BRC/URC/SRC)      | [`experiments::ablation_cover`] |
//! | Update-consolidation ablation     | [`experiments::ablation_updates`] |

#![deny(missing_docs)]

pub mod experiments;
pub mod report;
pub mod scale;

pub use report::Report;
pub use scale::{DatasetKind, Scale};
