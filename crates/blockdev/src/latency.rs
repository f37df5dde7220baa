//! Device latency simulation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Models per-access device latency.
///
/// Two accounting modes are combined:
///
/// - **Virtual accounting** always sums the configured cost into a counter
///   so experiments can report "simulated I/O time" deterministically.
/// - **Real spinning** (`spin: true`) additionally busy-waits for the
///   configured duration, so wall-clock benchmark numbers reflect device
///   cost. Spinning (not sleeping) is used because OS sleep granularity is
///   far coarser than the tens of microseconds being modeled.
#[derive(Debug)]
pub struct LatencyModel {
    read_ns: u64,
    write_ns: u64,
    hit_ns: u64,
    spin: bool,
    accounted_ns: AtomicU64,
}

impl LatencyModel {
    /// A model with the given costs; `spin` selects real busy-waiting.
    pub fn new(read_ns: u64, write_ns: u64, spin: bool) -> Self {
        LatencyModel {
            read_ns,
            write_ns,
            hit_ns: 0,
            spin,
            accounted_ns: AtomicU64::new(0),
        }
    }

    /// Adds a per-page-cache-hit cost, modeling the buffer-cache lookup
    /// and on-disk-format translation work a real kernel pays even when
    /// metadata is memory-resident (§5: "at best ... must be translated").
    pub fn with_hit_ns(mut self, hit_ns: u64) -> Self {
        self.hit_ns = hit_ns;
        self
    }

    /// Charges one page-cache hit.
    pub fn charge_hit(&self) {
        self.charge(self.hit_ns);
    }

    /// Zero-cost model (unit tests, correctness-only runs).
    pub fn free() -> Self {
        Self::new(0, 0, false)
    }

    /// Charges one read access.
    pub fn charge_read(&self) {
        self.charge(self.read_ns);
    }

    /// Charges one write access.
    pub fn charge_write(&self) {
        self.charge(self.write_ns);
    }

    /// Charges an arbitrary extra cost (injected latency spikes, retry
    /// backoff). Spins for real when the model does.
    pub fn charge_extra(&self, ns: u64) {
        self.charge(ns);
    }

    fn charge(&self, ns: u64) {
        if ns == 0 {
            return;
        }
        self.accounted_ns.fetch_add(ns, Ordering::Relaxed);
        if self.spin {
            let deadline = Instant::now() + Duration::from_nanos(ns);
            while Instant::now() < deadline {
                std::hint::spin_loop();
            }
        }
    }

    /// Configured cost of one read access, nanoseconds.
    pub fn read_cost_ns(&self) -> u64 {
        self.read_ns
    }

    /// Configured cost of one write access, nanoseconds.
    pub fn write_cost_ns(&self) -> u64 {
        self.write_ns
    }

    /// Total simulated device time charged so far, in nanoseconds.
    pub fn accounted_ns(&self) -> u64 {
        self.accounted_ns.load(Ordering::Relaxed)
    }

    /// Resets the virtual accounting (between experiment phases).
    pub fn reset_accounting(&self) {
        self.accounted_ns.store(0, Ordering::Relaxed);
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_model_charges_nothing() {
        let m = LatencyModel::free();
        m.charge_read();
        m.charge_write();
        assert_eq!(m.accounted_ns(), 0);
    }

    #[test]
    fn virtual_accounting_accumulates() {
        let m = LatencyModel::new(100, 250, false);
        m.charge_read();
        m.charge_read();
        m.charge_write();
        assert_eq!(m.accounted_ns(), 450);
        m.reset_accounting();
        assert_eq!(m.accounted_ns(), 0);
    }

    #[test]
    fn spinning_takes_wall_time() {
        let m = LatencyModel::new(2_000_000, 0, true); // 2 ms
        let t0 = Instant::now();
        m.charge_read();
        assert!(t0.elapsed() >= Duration::from_millis(2));
    }
}
