//! Memory-budget admission control for serving tiers.
//!
//! [`dcache_core::Dcache::shrink_to_bytes`] reclaims cache memory once asked;
//! what a front-end still needs is the *asking* policy: notice that the
//! cache footprint has outgrown its budget, shed new work with a typed
//! `EAGAIN`-style rejection instead of queueing it, and re-open once
//! reclaim has brought the footprint back down.
//!
//! [`MemoryGate`] packages that policy:
//!
//! - **Hysteresis.** The gate trips when the sampled footprint exceeds
//!   `budget` and re-opens only once it falls to `low_water`
//!   (⅞ · budget by default), so a footprint hovering at the budget
//!   does not flap admit/reject on every batch.
//! - **Sampled probing.** The footprint
//!   ([`dcache_core::Dcache::reclaimable_bytes`]) walks nothing: it reads
//!   the live-dentry count and one entry count per namespace table. That
//!   is still O(namespaces) and a snapshot of the table map, too much
//!   for every admission of a many-tenant kernel. While open, the gate
//!   probes once every `sample_every` admissions; while tripped it
//!   probes on every call, because re-opening promptly matters more
//!   than probe cost when work is already being shed.
//! - **Trip edge detection.** Exactly one caller observes
//!   [`Verdict::Shed`] with `just_tripped == true` per trip, making it
//!   the natural place to trigger `Kernel::memory_pressure` without a
//!   thundering herd of shrink calls.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Outcome of [`MemoryGate::admit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The work may proceed.
    Admit,
    /// The memory budget is tripped: shed this work with a typed
    /// overload error. `just_tripped` is true for exactly one caller
    /// per open→tripped transition — that caller should kick reclaim.
    Shed { just_tripped: bool },
}

impl Verdict {
    /// Convenience predicate for callers that do not care about edges.
    pub fn admitted(self) -> bool {
        matches!(self, Verdict::Admit)
    }
}

/// Hysteretic memory-budget gate (see module docs).
///
/// All methods are lock-free and callable concurrently; the worst race
/// outcome is one extra footprint probe or one batch admitted/shed on
/// the stale side of a transition, both benign.
#[derive(Debug)]
pub struct MemoryGate {
    budget: u64,
    low_water: u64,
    sample_every: u64,
    tripped: AtomicBool,
    calls: AtomicU64,
    trips: AtomicU64,
}

impl MemoryGate {
    /// Default re-open threshold as a fraction of the budget (⅞).
    fn default_low_water(budget: u64) -> u64 {
        budget - budget / 8
    }

    /// Gate with `budget` bytes, ⅞-budget low water, probing every 64
    /// admissions while open.
    pub fn new(budget: u64) -> MemoryGate {
        MemoryGate::with_params(budget, MemoryGate::default_low_water(budget), 64)
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    ///
    /// Panics if `low_water > budget` or `sample_every == 0`.
    pub fn with_params(budget: u64, low_water: u64, sample_every: u64) -> MemoryGate {
        assert!(low_water <= budget, "low water above budget");
        assert!(sample_every > 0, "sample_every must be nonzero");
        MemoryGate {
            budget,
            low_water,
            sample_every,
            tripped: AtomicBool::new(false),
            calls: AtomicU64::new(0),
            trips: AtomicU64::new(0),
        }
    }

    /// The configured budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The re-open threshold in bytes.
    pub fn low_water(&self) -> u64 {
        self.low_water
    }

    /// Whether the gate is currently shedding load.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// Open→tripped transitions so far.
    pub fn trip_count(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Decides admission for one unit of work, probing the footprint via
    /// `footprint` (bytes) according to the sampling policy above.
    pub fn admit(&self, footprint: impl FnOnce() -> u64) -> Verdict {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.tripped.load(Ordering::Acquire) {
            // Tripped: probe every call so recovery is prompt.
            if footprint() <= self.low_water {
                self.tripped.store(false, Ordering::Release);
                return Verdict::Admit;
            }
            return Verdict::Shed {
                just_tripped: false,
            };
        }
        if !call.is_multiple_of(self.sample_every) {
            return Verdict::Admit;
        }
        if footprint() > self.budget {
            let just_tripped = !self.tripped.swap(true, Ordering::AcqRel);
            if just_tripped {
                self.trips.fetch_add(1, Ordering::Relaxed);
            }
            return Verdict::Shed { just_tripped };
        }
        Verdict::Admit
    }

    /// Resets the gate to open and zeroes its counters.
    pub fn reset(&self) {
        self.tripped.store(false, Ordering::Release);
        self.calls.store(0, Ordering::Relaxed);
        self.trips.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn admits_under_budget() {
        let gate = MemoryGate::with_params(1000, 875, 1);
        for _ in 0..100 {
            assert_eq!(gate.admit(|| 500), Verdict::Admit);
        }
        assert!(!gate.is_tripped());
        assert_eq!(gate.trip_count(), 0);
    }

    #[test]
    fn trips_once_and_sheds_until_low_water() {
        let gate = MemoryGate::with_params(1000, 875, 1);
        assert_eq!(gate.admit(|| 1500), Verdict::Shed { just_tripped: true });
        // Subsequent calls shed without re-reporting the edge.
        assert_eq!(
            gate.admit(|| 1500),
            Verdict::Shed {
                just_tripped: false
            }
        );
        // Still above low water: keep shedding even though below budget.
        assert_eq!(
            gate.admit(|| 900),
            Verdict::Shed {
                just_tripped: false
            }
        );
        // At low water: re-open and admit this very call.
        assert_eq!(gate.admit(|| 875), Verdict::Admit);
        assert!(!gate.is_tripped());
        assert_eq!(gate.trip_count(), 1);
    }

    #[test]
    fn probes_are_sampled_while_open() {
        let gate = MemoryGate::with_params(1000, 875, 8);
        let probes = AtomicU64::new(0);
        for _ in 0..64 {
            gate.admit(|| {
                probes.fetch_add(1, Ordering::Relaxed);
                0
            });
        }
        assert_eq!(probes.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn probes_every_call_while_tripped() {
        let gate = MemoryGate::with_params(1000, 875, 64);
        assert!(!gate.admit(|| 2000).admitted()); // call 0 samples, trips
        let probes = AtomicU64::new(0);
        for _ in 0..10 {
            gate.admit(|| {
                probes.fetch_add(1, Ordering::Relaxed);
                2000
            });
        }
        assert_eq!(probes.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn reset_reopens() {
        let gate = MemoryGate::with_params(1000, 875, 1);
        assert!(!gate.admit(|| 2000).admitted());
        assert!(gate.is_tripped());
        gate.reset();
        assert!(!gate.is_tripped());
        assert_eq!(gate.trip_count(), 0);
        assert!(gate.admit(|| 0).admitted());
    }

    #[test]
    fn default_low_water_is_seven_eighths() {
        let gate = MemoryGate::new(1 << 20);
        assert_eq!(gate.low_water(), (1 << 20) - (1 << 17));
    }
}
