//! What a metric source is, and the snapshot of a list of them: component
//! counters, recorder histograms and event counts behind one
//! snapshot/reset API.

use crate::hist::HistSummary;
use crate::recorder::{OpClass, Recorder};
use std::sync::Arc;

/// A component that exposes counters to a [`MetricsSnapshot`]. A
/// [`counters!`](crate::counters) struct with a section name is one; the
/// kernel keeps the list of them that its snapshot and its reset walk.
pub trait MetricSource: Send + Sync {
    /// Section name in exports (snake_case).
    fn name(&self) -> &'static str;
    /// Current counter values, in a stable order.
    fn counters(&self) -> Vec<(String, u64)>;
    /// Derived ratios in `[0, 1]` (optional).
    fn rates(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Latency histograms this source owns (optional), keyed by a
    /// stable snake_case name. Appears alongside the recorder's per-op
    /// histograms in both exporters — this is how components with their
    /// own per-worker histograms (e.g. the metadata server) surface
    /// latency without routing through the recorder's `OpClass` set.
    fn hists(&self) -> Vec<(String, HistSummary)> {
        Vec::new()
    }
    /// Zeroes the underlying counters.
    fn reset(&self);
}

/// One named group of counters in a [`MetricsSnapshot`].
#[derive(Debug, Clone)]
pub struct Section {
    /// Source name.
    pub name: String,
    /// Counter key/value pairs in source order.
    pub counters: Vec<(String, u64)>,
}

/// A point-in-time copy of every registered metric: counter sections,
/// derived rates, and per-op latency summaries.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Counter sections, one per source plus `events` when the
    /// recorder is enabled.
    pub sections: Vec<Section>,
    /// Derived ratios as `section.key` → value in `[0, 1]`.
    pub rates: Vec<(String, f64)>,
    /// Latency summaries keyed by [`OpClass::key`], present only for
    /// classes with samples.
    pub hists: Vec<(String, HistSummary)>,
}

impl MetricsSnapshot {
    /// Copies every source in order, then the recorder's event counts
    /// (section `events`) and non-empty per-op histograms.
    pub fn collect(sources: &[Arc<dyn MetricSource>], recorder: &Recorder) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            sections: Vec::with_capacity(sources.len() + 1),
            rates: Vec::new(),
            hists: Vec::new(),
        };
        for source in sources {
            snap.sections.push(Section {
                name: source.name().to_string(),
                counters: source.counters(),
            });
            for (key, value) in source.rates() {
                snap.rates
                    .push((format!("{}.{}", source.name(), key), value));
            }
            snap.hists.extend(source.hists());
        }
        if let Some(obs) = recorder.obs() {
            snap.sections.push(Section {
                name: "events".to_string(),
                counters: obs.event_counts(),
            });
            let per_op = OpClass::ALL.iter().map(|op| (op.key(), obs.hist(*op)));
            snap.hists
                .extend(per_op.map(|(key, h)| (key.to_string(), h.summary())));
        }
        snap.hists.retain(|(_, h)| h.count > 0);
        snap
    }

    /// The value of `section`'s counter `key`.
    pub fn counter(&self, section: &str, key: &str) -> Option<u64> {
        let section = self.sections.iter().find(|s| s.name == section)?;
        let (_, value) = section.counters.iter().find(|(k, _)| k == key)?;
        Some(*value)
    }

    /// The value of `section`'s derived ratio `key`.
    pub fn rate(&self, section: &str, key: &str) -> Option<f64> {
        let wanted = format!("{section}.{key}");
        let (_, value) = self.rates.iter().find(|(k, _)| *k == wanted)?;
        Some(*value)
    }

    /// The latency summary exported under `key`; `None` without samples.
    pub fn hist(&self, key: &str) -> Option<&HistSummary> {
        self.hists.iter().find(|(k, _)| k == key).map(|(_, h)| h)
    }

    /// Serialises to JSON (schema `dcache-metrics/v1`). Hand-rolled —
    /// keys are known-ASCII identifiers, so no escaping is needed.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"dcache-metrics/v1\",\n  \"counters\": {");
        for (si, section) in self.sections.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {{", section.name));
            for (ci, (key, value)) in section.counters.iter().enumerate() {
                if ci > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n      \"{key}\": {value}"));
            }
            out.push_str("\n    }");
        }
        out.push_str("\n  },\n  \"rates\": {");
        for (ri, (key, value)) in self.rates.iter().enumerate() {
            if ri > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{key}\": {value:.6}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (hi, (key, h)) in self.hists.iter().enumerate() {
            if hi > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    \"{key}\": {{ \"count\": {}, \"mean_ns\": {:.1}, \
                 \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \
                 \"p999_ns\": {}, \"max_ns\": {} }}",
                h.count, h.mean_ns, h.p50_ns, h.p90_ns, h.p99_ns, h.p999_ns, h.max_ns
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders an aligned, human-readable table.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        for section in &self.sections {
            out.push_str(&format!("[{}]\n", section.name));
            let width = section
                .counters
                .iter()
                .map(|(k, _)| k.len())
                .max()
                .unwrap_or(0);
            for (key, value) in &section.counters {
                out.push_str(&format!("  {key:<width$}  {value}\n"));
            }
        }
        if !self.rates.is_empty() {
            out.push_str("[rates]\n");
            let width = self.rates.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
            for (key, value) in &self.rates {
                out.push_str(&format!("  {key:<width$}  {:.2}%\n", value * 100.0));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("[latency]\n");
            out.push_str(&format!(
                "  {:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "op", "count", "mean_ns", "p50_ns", "p90_ns", "p99_ns", "max_ns"
            ));
            for (key, h) in &self.hists {
                out.push_str(&format!(
                    "  {:<12} {:>10} {:>10.0} {:>10} {:>10} {:>10} {:>10}\n",
                    key, h.count, h.mean_ns, h.p50_ns, h.p90_ns, h.p99_ns, h.max_ns
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::ObsConfig;
    use crate::trace::TraceEvent;
    use std::sync::atomic::Ordering;

    crate::counters! {
        /// A two-counter source.
        struct Fake = "fake" rates(hit_rate) { hits, misses }
    }

    impl Fake {
        fn hit_rate(&self) -> f64 {
            0.75
        }
    }

    /// One `fake` source reading `hits = 3, misses = 1` and a live recorder.
    fn sources() -> (Vec<Arc<dyn MetricSource>>, Recorder) {
        let fake = Fake::default();
        fake.hits.store(3, Ordering::Relaxed);
        fake.misses.store(1, Ordering::Relaxed);
        (
            vec![Arc::new(fake)],
            Recorder::enabled(ObsConfig::default()),
        )
    }

    #[test]
    fn snapshot_includes_sources_events_and_hists() {
        let (sources, r) = sources();
        r.time(OpClass::Open, || ());
        r.event(|| TraceEvent::LookupStart);

        let snap = MetricsSnapshot::collect(&sources, &r);
        assert_eq!(snap.sections[0].name, "fake");
        assert_eq!(snap.sections[0].counters[0], ("hits".to_string(), 3));
        assert_eq!(snap.counter("fake", "misses"), Some(1));
        assert_eq!(snap.counter("events", "lookup_start"), Some(1));
        assert_eq!(snap.counter("events", "no_such_event"), None);
        assert_eq!(snap.counter("misses", "fake"), None);
        assert_eq!(snap.rate("fake", "hit_rate"), Some(0.75));
        assert_eq!(snap.hists.len(), 1);
        assert_eq!(snap.hist("open").unwrap().count, 1);
        assert!(snap.hist("stat").is_none());
    }

    #[test]
    fn json_has_schema_and_sections() {
        let (sources, r) = sources();
        r.time(OpClass::AccessStat, || ());
        r.event(|| TraceEvent::FsMiss);
        let snap = MetricsSnapshot::collect(&sources, &r);
        let json = snap.to_json();
        assert!(json.contains("\"schema\": \"dcache-metrics/v1\""));
        assert!(json.contains("\"fake.hit_rate\": 0.750000"));
        assert!(json.contains("\"stat\": { \"count\": 1, "));
        // The rendering and `counter()` agree, section by section.
        for (section, key) in [("fake", "hits"), ("fake", "misses"), ("events", "fs_miss")] {
            let value = snap.counter(section, key).unwrap();
            let body = &json[json.find(&format!("\"{section}\": {{")).unwrap()..];
            assert!(body[..body.find('}').unwrap()].contains(&format!("\"{key}\": {value}")));
        }
    }

    #[test]
    fn text_render_mentions_everything() {
        let (sources, r) = sources();
        r.time(OpClass::Unlink, || ());
        r.event(|| TraceEvent::FsMiss);
        let snap = MetricsSnapshot::collect(&sources, &r);
        let text = snap.to_text();
        for header in ["[fake]", "[events]", "[rates]", "[latency]"] {
            assert!(text.contains(header), "{header} missing:\n{text}");
        }
        assert!(text.contains("unlink"));
        for (section, key) in [("fake", "hits"), ("fake", "misses"), ("events", "fs_miss")] {
            let value = snap.counter(section, key).unwrap();
            let body = &text[text.find(&format!("[{section}]")).unwrap()..];
            let line = body.lines().find(|l| l.trim_start().starts_with(key));
            assert_eq!(
                line.unwrap().split_whitespace().last(),
                Some(&*value.to_string())
            );
        }
    }

    #[test]
    fn source_hists_appear_in_both_exporters() {
        struct WithHist {
            h: crate::hist::LatencyHist,
        }
        impl MetricSource for WithHist {
            fn name(&self) -> &'static str {
                "serve"
            }
            fn counters(&self) -> Vec<(String, u64)> {
                vec![("requests".to_string(), self.h.count())]
            }
            fn hists(&self) -> Vec<(String, HistSummary)> {
                vec![
                    ("serve_lookup".to_string(), self.h.summary()),
                    // Empty histograms are suppressed, like per-op ones.
                    (
                        "serve_empty".to_string(),
                        crate::hist::LatencyHist::new().summary(),
                    ),
                ]
            }
            fn reset(&self) {
                self.h.reset();
            }
        }
        let src = WithHist {
            h: crate::hist::LatencyHist::new(),
        };
        src.h.record(640);
        let snap = MetricsSnapshot::collect(&[Arc::new(src)], &Recorder::disabled());
        assert_eq!(snap.hists.len(), 1);
        assert_eq!(snap.hists[0].0, "serve_lookup");
        let json = snap.to_json();
        assert!(json.contains("\"serve_lookup\""));
        assert!(!json.contains("\"serve_empty\""));
        let text = snap.to_text();
        assert!(text.contains("serve_lookup"));
    }
}
