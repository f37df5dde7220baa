//! The standing benchmark of the directory-cache reproduction: four
//! workloads, end-to-end and per-layer metrics, and a traced run.
//!
//! Everything here drives the workspace's crates through their public
//! APIs and measures each layer from outside, by timing calls into that
//! layer's public functions. See `README.md` for the one command, the
//! workloads, and how the metrics interact.

pub mod compare;
pub mod counters;
pub mod drive;
pub mod host;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod probes;
pub mod rng;
pub mod run;
pub mod serve;
pub mod span;
pub mod stats;
pub mod workloads;
pub mod world;
