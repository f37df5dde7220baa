//! A batched metadata lookup service on top of the dcache kernel.
//!
//! The paper's fastpath makes a single lookup cheap — one hash, one
//! DLHT probe, one permission check. This crate turns that into a
//! *serving tier*: a network-shaped front-end that accepts **batches**
//! of lookup/stat/readdir/signature-lookup requests over a
//! length-prefixed binary protocol ([`proto`]), executes each batch on
//! a worker pool under a single epoch pin ([`dcache_core::Dcache::pin`],
//! held across the frame — the pin and its accounting amortize over
//! every lookup nested inside it), and sheds load with typed
//! `Overloaded` rejections when the submission queue fills or a
//! [`dcache_core::MemoryGate`] trips on the kernel's reclaimable
//! footprint ([`dcache_core::Dcache::reclaimable_bytes`]; the trip edge
//! runs `Kernel::memory_pressure` instead of stalling).
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
//! admission-control/reclaim interaction.

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
