//! The `--metrics-out` export end-to-end: the metrics workload's JSON
//! must carry the schema tag, per-op latency histograms for at least
//! stat/open/unlink, and event counters that reconcile with the
//! dcache section.

use dc_bench::setup::kernel_with_obs;
use dc_vfs::OpenFlags;
use dcache_core::DcacheConfig;

#[test]
fn metrics_snapshot_json_is_complete() {
    let s = kernel_with_obs(DcacheConfig::optimized());
    let k = &s.kernel;
    let p = &s.proc;
    k.mkdir(p, "/w", 0o755).unwrap();
    for i in 0..30 {
        let path = format!("/w/f{i}");
        let fd = k.open(p, &path, OpenFlags::create(), 0o644).unwrap();
        k.close(p, fd).unwrap();
        k.stat(p, &path).unwrap();
        let fd = k.open(p, &path, OpenFlags::read_only(), 0).unwrap();
        k.close(p, fd).unwrap();
    }
    for i in 0..10 {
        k.unlink(p, &format!("/w/f{i}")).unwrap();
    }

    let snap = k.metrics_snapshot();
    let json = snap.to_json();
    assert!(json.contains("\"schema\": \"dcache-metrics/v1\""));
    for section in ["dcache", "syscalls", "fs", "pagecache", "journal", "events"] {
        assert!(snap.sections.iter().any(|s| s.name == section), "{section}");
        assert!(json.contains(&format!("\"{section}\": {{")), "{section}");
    }
    for rate in ["hit_rate", "fastpath_rate", "neg_hit_rate"] {
        assert!(snap.rate("dcache", rate).is_some(), "missing rate {rate}");
        assert!(json.contains(&format!("\"dcache.{rate}\"")), "{rate}");
    }
    // Histograms for the three headline ops, each with percentiles.
    let hist_section = json
        .split("\"histograms\"")
        .nth(1)
        .expect("histograms section present");
    for op in ["stat", "open", "unlink"] {
        assert!(snap.hist(op).is_some(), "missing histogram for {op}");
        assert!(hist_section.contains(&format!("\"{op}\"")), "{op}");
    }
    assert!(hist_section.contains("\"p50_ns\""));
    assert!(hist_section.contains("\"p99_ns\""));

    // Event counters reconcile with the dcache section.
    let event = |key: &str| {
        snap.counter("events", key)
            .unwrap_or_else(|| panic!("{key}"))
    };
    let dcache = |key: &str| {
        snap.counter("dcache", key)
            .unwrap_or_else(|| panic!("{key}"))
    };
    assert_eq!(event("lookup_start"), dcache("lookups"));
    assert_eq!(event("slow_step"), dcache("slow_steps"));
    assert_eq!(event("fs_miss"), dcache("miss_fs"));
    assert_eq!(event("seq_retry"), dcache("slow_retries"));
    assert!(dcache("lookups") > 0);

    // Lock-free read-path counters: the `epoch_pin`/`read_retry` events
    // must reconcile with the `DcacheStats` counters surfaced in the
    // dcache section, and the optimized walk must actually have pinned.
    assert_eq!(event("epoch_pin"), dcache("epoch_pins"));
    assert_eq!(event("read_retry"), dcache("read_retries"));
    assert!(dcache("epoch_pins") > 0, "fastpath never pinned an epoch");
}

#[test]
fn metrics_snapshot_text_carries_lockfree_counters() {
    let s = kernel_with_obs(DcacheConfig::optimized());
    let k = &s.kernel;
    let p = &s.proc;
    k.mkdir(p, "/t", 0o755).unwrap();
    let fd = k.open(p, "/t/f", OpenFlags::create(), 0o644).unwrap();
    k.close(p, fd).unwrap();
    for _ in 0..20 {
        k.stat(p, "/t/f").unwrap();
    }

    let snap = k.metrics_snapshot();
    let text = snap.to_text();
    assert!(text.contains("[dcache]"), "missing dcache section:\n{text}");
    assert!(text.contains("[events]"), "missing events section:\n{text}");
    for key in ["epoch_pins", "read_retries", "epoch_pin", "read_retry"] {
        assert!(text.contains(key), "missing {key} in text export:\n{text}");
    }

    // The aligned text must agree with the snapshot on the values.
    let dcache_text = &text[text.find("[dcache]").unwrap()..];
    let text_count = |key: &str| -> u64 {
        let line = dcache_text
            .lines()
            .find(|l| l.trim_start().starts_with(key))
            .unwrap_or_else(|| panic!("{key} missing in text"));
        line.split_whitespace().last().unwrap().parse().unwrap()
    };
    for key in ["epoch_pins", "read_retries"] {
        assert_eq!(
            snap.counter("dcache", key),
            Some(text_count(key)),
            "the text export disagrees on {key}"
        );
    }
}
