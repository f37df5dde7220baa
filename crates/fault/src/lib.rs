//! dc-fault — deterministic, seeded fault injection for the block layer.
//!
//! The paper's coherence story (§3.2) rests on *eviction*: DLHT entries
//! and PCC lines are dropped — never updated — and the slow path is
//! always available to rebuild them. A production directory cache must
//! therefore keep working when the layers under it misbehave: device
//! reads fail transiently or permanently, reads come back torn, and
//! latency spikes turn a warm miss into a slow one. This crate provides
//! the machinery to *provoke* those conditions on purpose and
//! deterministically:
//!
//! - [`FaultPlan`] — a declarative, seeded description of which I/O
//!   operations fail, how, and how often. Building it compiles to a
//!   [`FaultInjector`].
//! - [`FaultInjector`] — the armed runtime object `dc-blockdev` consults
//!   on every device access. Decisions are a pure function of the seed
//!   and the access sequence, so a failing campaign replays exactly.
//! - [`RetryPolicy`] — the bounded exponential-backoff schedule the page
//!   cache uses to ride out transient errors.
//! - [`SplitMix64`] and [`check`] — the repo's one seeded generator and
//!   the property-test driver built on it (seeded cases, greedy
//!   shrinking), for every crate's tests.
//!
//! Determinism: the injector's RNG is split per rule from the plan seed,
//! and transient faults are tracked as per-block *bursts* (a triggered
//! block fails the next `burst` accesses, then heals), so a retry loop
//! with more attempts than the burst length always recovers — the
//! property the campaign tests assert.
//!
//! # Example
//!
//! ```
//! use dc_fault::{FaultPlan, IoOp, FaultKind};
//!
//! let injector = FaultPlan::new(0x5EED)
//!     .transient(IoOp::Read, 0.01, 2)   // 1% of reads fail twice, then heal
//!     .latency_spike(IoOp::Read, 0.001, 2_000_000)
//!     .build();
//! injector.arm();
//! // 100 reads of block 7: some may fault, deterministically per seed.
//! let mut faults = 0;
//! for _ in 0..100 {
//!     if injector.decide(IoOp::Read, 7).is_some() {
//!         faults += 1;
//!     }
//! }
//! assert_eq!(faults, injector.stats().total());
//! ```

mod check;
mod plan;
mod retry;
mod rng;

pub use check::check;
pub use plan::{FaultInjector, FaultKind, FaultPlan, FaultRule, FaultStats, IoOp};
pub use retry::RetryPolicy;
pub use rng::SplitMix64;
