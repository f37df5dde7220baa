//! Observability for the directory-cache reproduction: counters, latency
//! histograms, lookup-path span tracing, and one snapshot of all of them.
//!
//! The paper's argument is quantitative — every evaluation section asks
//! *where* a path lookup spent its time (DLHT probe, PCC check, seq
//! revalidation, slowpath steps, FS miss, block I/O). This crate is the
//! measurement substrate the rest of the workspace instruments itself
//! with:
//!
//! - [`Counter`] and the two declaration forms, [`counters!`] and
//!   [`keyed_enum!`] — a counter, an event kind or an op class is written
//!   down once, and that line is its storage, its reset, its export key
//!   and its place in the snapshot (DESIGN.md §8).
//! - [`LatencyHist`] — log-linear (HDR-style) histograms: power-of-two
//!   major buckets, 32 linear sub-buckets each, lock-free `AtomicU64`
//!   cells, mergeable across threads, p50/p90/p99/p999 + mean
//!   extraction with ≤ 1/32 relative bucket error.
//! - [`TraceRing`] — a fixed-capacity, overwrite-oldest span buffer of
//!   typed [`TraceEvent`]s, so a single slow lookup can be
//!   reconstructed end-to-end from its event sequence.
//! - [`Recorder`] — the handle hot paths hold. A disabled recorder is
//!   `None` inside; every probe is one branch on that cold value and
//!   the event payload is never even constructed (closure argument).
//! - [`MetricSource`] / [`MetricsSnapshot`] — a list of sources (a
//!   `counters!` struct with a section name is one), the recorder's
//!   histograms, and its event counts copied into one snapshot
//!   ([`MetricsSnapshot::collect`]) that is read by name
//!   ([`MetricsSnapshot::counter`]) or rendered as JSON
//!   ([`MetricsSnapshot::to_json`]) or aligned text
//!   ([`MetricsSnapshot::to_text`]).
//!
//! Layering: this crate depends on nothing in the workspace, so every
//! layer (blockdev, core, vfs, bench) can record into it.

mod hist;
mod recorder;
mod registry;
mod stats;
mod trace;

pub use hist::{HistSummary, LatencyHist};
pub use recorder::{current_tid, EventKind, Obs, ObsConfig, OpClass, Recorder};
pub use registry::{MetricSource, MetricsSnapshot, Section};
#[doc(hidden)]
pub use stats::key_part;
pub use stats::{Cells, Counter, Keyed, Per};
pub use trace::{FaultClass, LookupOutcome, Span, TraceEvent, TraceRing};
