//! `compare A.json B.json`: is B worse than A?
//!
//! Per workload and end-to-end metric: worse by more than the metric's
//! bound → **regression**; inside the bound → **unchanged** (or
//! **improved**, when better by more than the bound). When the spread
//! between a side's own windows is wider than the bound the reported
//! values cannot carry that verdict: the pair is **unresolved**, not unchanged —
//! unless every window of one side beats every window of the other.

use crate::json::Value;
use crate::metrics::{self, Better, Kind};
use crate::stats;

/// The verdict on one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is worse than A by more than the bound.
    Regression,
    /// Within the bound, and the windows are steady enough to say so.
    Unchanged,
    /// B is better than A by more than the bound.
    Improved,
    /// The windows spread wider than the bound and overlap.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// Smallest and largest of `v`.
fn range(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// Judges one metric from both sides' reported values `ma` and `mb` and
/// the per-window values `a` and `b` behind them.
pub fn judge(a: &[f64], b: &[f64], ma: f64, mb: f64, better: Better, bound: f64) -> Verdict {
    // Relative worsening of B against A, positive when worse.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    // Every window of x is better than every window of y.
    let beats = |x: &[f64], y: &[f64]| {
        let ((xlo, xhi), (ylo, yhi)) = (range(x), range(y));
        match better {
            Better::Lower => xhi < ylo,
            Better::Higher => xlo > yhi,
        }
    };
    let separated = beats(a, b) || beats(b, a);
    let noisy = stats::spread(a).max(stats::spread(b)) > bound;
    if worse_by > bound {
        Verdict::Regression
    } else if noisy && !separated {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// The workloads of a result document: a `run` of all workloads nests
/// them under `workloads`; a single-workload result is one of its own.
fn workloads(doc: &Value) -> Vec<(String, &Value)> {
    if let Some(ws) = doc.get("workloads").and_then(Value::as_obj) {
        return ws.iter().map(|(k, v)| (k.clone(), v)).collect();
    }
    let name = doc
        .get("workload")
        .and_then(Value::as_str)
        .unwrap_or("unknown");
    vec![(name.to_string(), doc)]
}

/// The per-window values of `metric` in one workload's result.
fn windows_of(result: &Value, metric: &str) -> Option<Vec<f64>> {
    let m = result.get("metrics")?.get(metric)?;
    match m.get("windows").and_then(Value::as_arr) {
        Some(ws) => Some(ws.iter().filter_map(Value::as_f64).collect()),
        None => Some(vec![m.get("value")?.as_f64()?]),
    }
}

/// One line of the report.
#[derive(Debug, Clone)]
pub struct Row {
    /// The workload.
    pub workload: String,
    /// The metric.
    pub metric: &'static str,
    /// Side A's reported value.
    pub a: f64,
    /// Side B's reported value.
    pub b: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares every end-to-end metric both documents report. `Err` when
/// the documents share no workload.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let (wa, wb) = (workloads(a), workloads(b));
    let mut rows = Vec::new();
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for def in metrics::CATALOGUE.iter().filter(|m| m.kind != Kind::Layer) {
            let (Some(va), Some(vb), Some(bound)) = (
                windows_of(ra, def.name),
                windows_of(rb, def.name),
                def.bound,
            ) else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (a, b) = (def.summarize(&va), def.summarize(&vb));
            rows.push(Row {
                workload: name.clone(),
                metric: def.name,
                a,
                b,
                verdict: judge(&va, &vb, a, b, def.better, bound),
            });
        }
    }
    if rows.is_empty() {
        return Err("the two results share no workload with end-to-end metrics".to_string());
    }
    Ok(rows)
}

/// The report as text, one row per workload × metric.
pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in rows {
        let def = metrics::def(r.metric).expect("catalogued");
        let _ = writeln!(
            out,
            "{:<11} {:<28} {:>16.4} -> {:>16.4} {:<6} ({:+.2}%, bound {:.0}%)  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            def.unit,
            100.0 * (r.b - r.a) / r.a.abs().max(f64::MIN_POSITIVE),
            100.0 * def.bound.unwrap_or(0.0),
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let _ = writeln!(
        out,
        "{} regression(s), {} unresolved, {} improved, {} unchanged",
        count(Verdict::Regression),
        count(Verdict::Unresolved),
        count(Verdict::Improved),
        count(Verdict::Unchanged)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [100.0, 101.0, 99.5, 100.5, 100.2];

    /// `judge` on the windows' medians.
    fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
        super::judge(a, b, stats::median(a), stats::median(b), better, bound)
    }

    fn scaled(v: &[f64], k: f64) -> Vec<f64> {
        v.iter().map(|x| x * k).collect()
    }

    #[test]
    fn worse_by_more_than_the_bound_is_a_regression() {
        let b = scaled(&STEADY, 1.08);
        assert_eq!(judge(&STEADY, &b, Better::Lower, 0.05), Verdict::Regression);
        // The same numbers are an improvement when higher is better.
        assert_eq!(judge(&STEADY, &b, Better::Higher, 0.05), Verdict::Improved);
        let b = scaled(&STEADY, 0.92);
        assert_eq!(
            judge(&STEADY, &b, Better::Higher, 0.05),
            Verdict::Regression
        );
    }

    #[test]
    fn inside_the_bound_with_steady_windows_is_unchanged() {
        let b = scaled(&STEADY, 1.02);
        assert_eq!(judge(&STEADY, &b, Better::Lower, 0.05), Verdict::Unchanged);
        assert_eq!(
            judge(&STEADY, &STEADY, Better::Higher, 0.05),
            Verdict::Unchanged
        );
    }

    #[test]
    fn wide_overlapping_windows_are_unresolved_not_unchanged() {
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        let b = scaled(&noisy, 1.01);
        assert_eq!(judge(&noisy, &b, Better::Lower, 0.05), Verdict::Unresolved);
        // One noisy side is enough.
        assert_eq!(
            judge(&STEADY, &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
    }

    #[test]
    fn wide_windows_resolve_when_one_side_beats_the_other_everywhere() {
        // Noisy, but every window of B is below every window of A, and
        // the medians are within the bound of each other: resolved.
        let a = [100.0, 108.0, 104.0, 112.0, 101.0];
        let b = [99.0, 91.0, 97.0, 98.5, 98.0];
        assert!(stats::spread(&a) > 0.05);
        assert_eq!(judge(&a, &b, Better::Lower, 0.07), Verdict::Unchanged);
        // And past the bound it is an improvement, or a regression the
        // other way round, however noisy.
        assert_eq!(
            judge(&a, &scaled(&b, 0.8), Better::Lower, 0.05),
            Verdict::Improved
        );
        assert_eq!(judge(&b, &a, Better::Lower, 0.05), Verdict::Regression);
    }

    #[test]
    fn documents_are_matched_by_workload_and_metric() {
        let result = |ops: &[f64]| {
            Value::obj().with("workload", "warm_stat").with(
                "metrics",
                Value::obj()
                    .with(
                        "ops_per_s",
                        Value::obj()
                            .with("value", stats::median(ops))
                            .with("windows", ops),
                    )
                    .with("peak_rss_mib", Value::obj().with("value", 50.0)),
            )
        };
        let a = result(&STEADY);
        let b = Value::obj().with(
            "workloads",
            Value::obj().with("warm_stat", result(&scaled(&STEADY, 0.7))),
        );
        let rows = compare(&a, &b).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].metric, "ops_per_s");
        assert_eq!(rows[0].verdict, Verdict::Regression);
        assert_eq!(rows[1].verdict, Verdict::Unchanged);
        assert!(render(&rows).contains("1 regression(s)"));
        let other = Value::obj()
            .with("workload", "cold_miss")
            .with("metrics", Value::obj());
        assert!(compare(&a, &other).is_err());
    }
}
