//! A batched metadata lookup service on top of the dcache kernel.
//!
//! The paper's fastpath makes a single lookup cheap — one hash, one
//! DLHT probe, one permission check. This crate turns that into a
//! *serving tier*: a network-shaped front-end that accepts **batches**
//! of lookup/stat/readdir/signature-lookup requests over a
//! length-prefixed binary protocol ([`proto`]), executes each batch on
//! a worker pool under a single epoch pin ([`dcache_core::Dcache::
//! batch_pin`] — the pin and its accounting amortize across the whole
//! frame), and sheds load with typed `Overloaded` rejections when the
//! submission queue fills or a [`dcache_core::MemoryGate`] trips on
//! the kernel's reclaimable footprint (triggering the PR-4 shrinker on
//! the trip edge instead of stalling).
//!
//! Layering:
//!
//! - [`proto`] — wire format v1: versioned frames, request/response
//!   records, status codes (pure functions of bytes, no I/O);
//! - [`transport`] — 4-byte length-prefix framing over any
//!   `Read`/`Write` stream, plus a connected Unix socket pair;
//! - [`server`] — admission control, the bounded queue, the worker
//!   pool, request execution;
//! - [`client`] — synchronous batch clients (in-process and stream);
//! - [`stats`] — counters and per-worker latency histograms, exported
//!   through the kernel's metrics registry as the `serve` section.
//!
//! See `DESIGN.md` §12 for the protocol rationale and the
//! admission-control/shrinker interaction.

pub mod client;
pub mod proto;
pub mod server;
pub mod stats;
pub mod transport;

pub use client::{Client, StreamClient};
pub use proto::{Op, ReqBody, Request, RespBody, Response, Status};
pub use server::{Connection, Server, ServerConfig};
pub use stats::{ServeMetrics, ServeStats, WorkerHists};
pub use transport::{duplex_pair, read_frame, write_frame, DuplexEnd};
