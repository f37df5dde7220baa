//! Benchmark harness regenerating every table and figure of the paper.
//!
//! Each experiment is a function in [`figs`] that provisions fresh
//! kernels (baseline and optimized), drives the matching workload from
//! `dc-workloads`, and prints the same rows/series the paper reports.
//! The `repro` binary dispatches to them. [`Scale`] trades fidelity for
//! runtime so the whole suite can run in CI (`quick`) or at paper scale
//! (`full`). What a run leaves on disk goes through [`report`].

pub mod crash;
pub mod faults;
pub mod figs;
pub mod fleet;
pub mod report;
pub mod serve;
pub mod setup;
pub mod table;
pub mod warm;

pub use setup::{Scale, Setup};
