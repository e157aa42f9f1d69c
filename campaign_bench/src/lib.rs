//! Benchmark of the wafer-campaign engine and the campaign service.
//!
//! The binary runs one workload, or all of them in turn (see
//! `README.md`): a timed run prints the end-to-end metrics, a traced run
//! the per-layer ones. Everything here drives the program through its
//! public API with default solver settings, and reads program counters
//! only by key from the campaign metrics document.

pub mod digest;
pub mod ledger;
pub mod measure;
pub mod replay;
pub mod report;
pub mod serve;
pub mod spans;
pub mod traced;
pub mod unit_cost;
pub mod wafer;
pub mod workloads;
