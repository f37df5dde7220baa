//! Property-style oracle tests for the log-linear histogram: random
//! sample streams are recorded into the histogram and into a plain
//! sorted vector, and every derived statistic must agree within the
//! histogram's documented 1/32 relative bucket-width bound.
//!
//! (`dc-obs` is dependency-free and keeps its own tiny generator —
//! same shape as the `dc_fault::check` properties: many seeded cases, an
//! exact oracle, and tight tolerances.)

use dc_obs::LatencyHist;

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value in `0..bound`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// The exact oracle: nearest-rank percentile over a sorted copy.
fn oracle_percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// |got - want| must be within 1/32 of want (plus 1 ns of slack for
/// the sub-linear region's integer bucket edges).
fn assert_close(got: u64, want: u64, what: &str) {
    let tol = want / 32 + 1;
    assert!(
        got.abs_diff(want) <= tol,
        "{what}: histogram said {got}, oracle said {want} (tolerance {tol})"
    );
}

/// Draws a sample stream whose magnitude spans many histogram groups:
/// each draw picks a random bit-width first, then a value of that
/// width, so small and huge values are equally likely.
fn random_samples(rng: &mut Rng, n: usize, max_bits: u32) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let bits = rng.below(max_bits as u64) as u32 + 1;
            rng.next() >> (64 - bits)
        })
        .collect()
}

#[test]
fn percentiles_match_sorted_vec_oracle() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    for case in 0..50 {
        let n = 1 + rng.below(4000) as usize;
        let max_bits = 8 + rng.below(50) as u32;
        let samples = random_samples(&mut rng, n, max_bits);
        let h = LatencyHist::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();

        assert_eq!(h.count(), n as u64, "case {case}: count");
        assert_eq!(h.max(), *sorted.last().unwrap(), "case {case}: max");
        let exact_mean = sorted.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        let got_mean = h.mean();
        assert!(
            (got_mean - exact_mean).abs() <= exact_mean / 1e6 + 1e-6,
            "case {case}: mean {got_mean} vs {exact_mean}"
        );
        for q in [0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
            let want = oracle_percentile(&sorted, q);
            let got = h.percentile(q);
            assert_close(got, want, &format!("case {case}: p{}", q * 100.0));
            // The histogram must never report above the observed max.
            assert!(got <= h.max(), "case {case}: p{} above max", q * 100.0);
        }
    }
}

#[test]
fn merge_equals_recording_both_streams() {
    let mut rng = Rng(0xDEAD_BEEF_CAFE_F00D);
    for case in 0..20 {
        let na = 500 + rng.below(1500) as usize;
        let nb = 500 + rng.below(1500) as usize;
        let a = random_samples(&mut rng, na, 40);
        let b = random_samples(&mut rng, nb, 40);
        let ha = LatencyHist::new();
        let hb = LatencyHist::new();
        let combined = LatencyHist::new();
        for &s in &a {
            ha.record(s);
            combined.record(s);
        }
        for &s in &b {
            hb.record(s);
            combined.record(s);
        }
        ha.merge_from(&hb);
        assert_eq!(ha.count(), combined.count(), "case {case}: merged count");
        assert_eq!(ha.max(), combined.max(), "case {case}: merged max");
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                ha.percentile(q),
                combined.percentile(q),
                "case {case}: merged p{} differs from single-stream recording",
                q * 100.0
            );
        }
    }
}

#[test]
fn degenerate_streams() {
    // All-identical samples: every percentile is that sample.
    let h = LatencyHist::new();
    for _ in 0..1000 {
        h.record(7777);
    }
    for q in [0.01, 0.5, 0.999, 1.0] {
        assert_close(h.percentile(q), 7777, "identical samples");
    }
    // Zeros are representable exactly.
    let z = LatencyHist::new();
    z.record(0);
    assert_eq!(z.percentile(0.5), 0);
    assert_eq!(z.max(), 0);
    // u64::MAX does not overflow the bucket math.
    let m = LatencyHist::new();
    m.record(u64::MAX);
    assert_eq!(m.max(), u64::MAX);
    assert_eq!(m.percentile(1.0), u64::MAX);
}
