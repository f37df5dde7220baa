//! Spans for the traced run: `{name, start_ns, end_ns, parent, op_id}`
//! kept in memory and written as JSON lines when the run ends.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer. Where the benchmark makes the call itself the
//! nesting is real (`op` → `vfs.stat`); a layer reached only through
//! `vfs` is timed in a *replay group*: the same public call made
//! directly with that op's inputs, carrying the op's `op_id` and flagged
//! `replay`. A replay span may cover `n` calls made back to back (one
//! clock pair around sixteen 10 ns probes, not sixteen pairs).

use crate::json::Value;
use crate::stats;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `vfs.stat`, or `op` for the whole operation.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by the spans of one operation.
    pub op_id: u64,
    /// True for a replay-group span (see the module docs).
    pub replay: bool,
    /// Calls covered by this span (1 for real spans).
    pub n: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. One per thread; merged when written.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`, shared by every
    /// thread of a run so their spans line up.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op_id: u64) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            op_id,
            replay: false,
            n: 1,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `idx`.
    pub fn close(&mut self, idx: u32) {
        self.spans[idx as usize].end_ns = self.now();
    }

    /// Records `f` as a child span of `parent`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(name, parent, op_id);
        let r = f();
        self.close(idx);
        r
    }

    /// Records `f` — `n` direct calls into one layer with the inputs of
    /// operation `op_id` onwards — as a replay-group span.
    pub fn replay<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        n: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(name, None, op_id);
        let r = f();
        self.close(idx);
        let s = &mut self.spans[idx as usize];
        s.replay = true;
        s.n = n;
        r
    }

    /// Median nanoseconds per call over the spans called `name`, or
    /// `None` when there are none.
    pub fn ns_per_call(&self, name: &str) -> Option<f64> {
        let per: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.n > 0)
            .map(|s| s.dur() as f64 / s.n as f64)
            .collect();
        (!per.is_empty()).then(|| stats::median(&per))
    }

    /// Total nanoseconds and total calls over the spans called `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur(), n + s.n as u64))
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its child spans cover. Overlapping children are counted
    /// once (the union of their intervals, clipped to the parent).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur().saturating_sub(covered)
            })
            .collect()
    }
}

/// Writes the spans of several tracers (one per thread) as JSON lines.
/// Span ids are made global by offsetting each tracer's indices; `tid`
/// is the tracer's position in `tracers`.
pub fn write_jsonl(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut base = 0u64;
    for (tid, t) in tracers.iter().enumerate() {
        let selfs = t.self_times();
        for (i, s) in t.spans.iter().enumerate() {
            let line = Value::obj()
                .with("id", base + i as u64)
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with(
                    "parent",
                    s.parent
                        .map_or(Value::Null, |p| Value::from(base + p as u64)),
                )
                .with("op_id", s.op_id)
                .with("replay", s.replay)
                .with("n", s.n as u64)
                .with("self_ns", selfs[i])
                .with("tid", tid);
            writeln!(out, "{}", line.to_line())?;
        }
        base += t.spans.len() as u64;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
            replay: false,
            n: 1,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            span(0, 100, None),     // parent
            span(10, 40, Some(0)),  // child a
            span(30, 60, Some(0)),  // child b overlaps a: union is 10..60
            span(80, 120, Some(0)), // child c runs past the parent: clipped to 80..100
            span(35, 38, Some(1)),  // grandchild: only a's self time
        ];
        let s = t.self_times();
        assert_eq!(s[0], 100 - 50 - 20);
        assert_eq!(s[1], 30 - 3);
        assert_eq!(s[2], 30);
        assert_eq!(s[3], 40);
        assert_eq!(s[4], 3);
    }

    #[test]
    fn self_time_of_a_covered_span_is_zero() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            span(0, 50, None),
            span(0, 50, Some(0)),
            span(0, 50, Some(0)),
        ];
        assert_eq!(t.self_times()[0], 0);
    }

    #[test]
    fn ns_per_call_divides_by_batch_size() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![span(0, 160, None), span(200, 520, None)];
        t.spans[0].n = 16;
        t.spans[1].n = 16;
        assert_eq!(t.ns_per_call("t"), Some(15.0));
        assert_eq!(t.totals("t"), (480, 32));
        assert_eq!(t.ns_per_call("absent"), None);
    }
}
