//! `repro fleet` — the multi-tenant fleet campaign (DESIGN.md §14).
//!
//! Provisions a seeded `dc-fleet` simulator — 1000+ mount namespaces,
//! 10k+ credentials, three tenant classes (hot-web, cold-batch,
//! churn-ci) churning over overlapping trees — inside a fixed memory
//! budget, then reports a per-class summary (hit rate, sampled p50/p99
//! stat latency, resident bytes, teardown cost) and the fleet-wide
//! accounting (budget compliance, resident-PCC cap pressure, and the
//! teardown leak check).
//!
//! Results land in `BENCH_fleet.json`. Returns `false` (→ exit 1) when
//! the fleet misses the scale floor, any class misses its hit-rate
//! floor, a round ends over budget, or teardown leaks a table, a PCC, or
//! a byte.

use crate::report::{self, fields, Json, Stamp};
use crate::setup::Scale;
use crate::table::Table;
use dc_fleet::{Fleet, FleetConfig, TenantClass};

/// Per-class hit-rate floors (fraction of lookups served without an FS
/// call). Calibrated against seeded quick/full runs, which all land
/// ≥0.99 warm; the floors sit well below so only a real regression —
/// a tenant DLHT that stops retaining, a PCC cap that thrashes the hot
/// credential — trips them, not run-to-run noise.
const HIT_FLOORS: [(TenantClass, f64); 3] = [
    (TenantClass::HotWeb, 0.90),
    (TenantClass::ColdBatch, 0.85),
    (TenantClass::ChurnCi, 0.70),
];

/// The acceptance scale floor: a fleet, not a demo.
const MIN_NAMESPACES: usize = 1000;
const MIN_CREDS: usize = 10_000;

/// Entry point for `repro fleet`. Returns `false` on failure.
pub fn fleet(scale: Scale, seed: u64) -> bool {
    let cfg = if scale.is_full() {
        FleetConfig::full(seed)
    } else {
        FleetConfig::quick(seed)
    };
    run(scale, cfg)
}

/// [`fleet`] over an explicit configuration, so a test can run a fleet
/// of a dozen tenants (which fails the scale floor, and reports so).
pub(crate) fn run(scale: Scale, cfg: FleetConfig) -> bool {
    let seed = cfg.seed;
    println!(
        "fleet: {} tenants × {} creds, {} rounds × {} ops/tenant, budget {} MiB, seed {seed:#x}",
        cfg.tenants,
        cfg.creds_per_tenant,
        cfg.rounds,
        cfg.ops_per_tenant,
        cfg.mem_budget_bytes >> 20,
    );

    let fleet = Fleet::provision(cfg);
    let pcc_cap = fleet.kernel.dcache.pcc_cap();
    let report = fleet.run();

    let mut t = Table::new(&[
        "class",
        "tenants",
        "ops",
        "hit%",
        "p50 ns",
        "p99 ns",
        "resident KiB",
        "teardowns",
        "teardown µs",
    ]);
    for tally in &report.classes {
        let h = tally.hist.summary();
        t.row(vec![
            tally.class.key().into(),
            tally.tenants.to_string(),
            tally.ops.to_string(),
            format!("{:.2}", tally.hit_rate() * 100.0),
            h.p50_ns.to_string(),
            h.p99_ns.to_string(),
            (tally.resident_bytes >> 10).to_string(),
            tally.teardowns.to_string(),
            format!("{:.1}", tally.teardown_us()),
        ]);
    }
    t.print();

    println!(
        "fleet: peak {} namespaces, {} creds | footprint peak {} KiB (budget {} KiB), \
         {} rounds over budget | PCCs: peak {} resident (cap {}), {} evicted | churn {:.2}s",
        report.peak_namespaces,
        report.creds,
        report.peak_footprint >> 10,
        report.config.mem_budget_bytes >> 10,
        report.over_budget_rounds,
        report.peak_resident_pccs,
        pcc_cap,
        report.pcc_evictions,
        report.churn_s,
    );
    println!(
        "teardown: {} tables / {} PCCs / {} KiB left (baseline {} KiB) — {}",
        report.final_dlht_tables,
        report.final_resident_pccs,
        report.final_footprint >> 10,
        report.baseline_footprint >> 10,
        if report.teardown_clean() {
            "leak-free"
        } else {
            "LEAKED"
        }
    );

    // --- gates ---------------------------------------------------------
    let scale_ok = report.peak_namespaces >= MIN_NAMESPACES && report.creds >= MIN_CREDS;
    if !scale_ok {
        eprintln!(
            "fleet: scale floor missed ({} ns / {} creds; need {MIN_NAMESPACES}/{MIN_CREDS})",
            report.peak_namespaces, report.creds
        );
    }
    let mut hit_ok = true;
    for (class, floor) in HIT_FLOORS {
        let tally = report
            .classes
            .iter()
            .find(|c| c.class == class)
            .expect("class tally");
        if tally.hit_rate() < floor {
            eprintln!(
                "fleet: {} hit rate {:.3} below floor {floor}",
                class.key(),
                tally.hit_rate()
            );
            hit_ok = false;
        }
    }
    let budget_ok = report.over_budget_rounds == 0;
    if !budget_ok {
        eprintln!(
            "fleet: {} rounds ended over the {} MiB budget",
            report.over_budget_rounds,
            report.config.mem_budget_bytes >> 20
        );
    }
    let churn_ok = report.classes.iter().any(|c| c.teardowns > 0);
    if !churn_ok {
        eprintln!("fleet: no namespace was ever torn down — churn never ran");
    }
    let clean = report.teardown_clean();
    if !clean {
        eprintln!(
            "fleet: teardown leak — {} tables, {} PCCs, {} bytes not returned",
            report.final_dlht_tables - 1,
            report.final_resident_pccs,
            report.leaked_bytes
        );
    }
    let pass = scale_ok && hit_ok && budget_ok && churn_ok && clean;
    println!("fleet: {}", if pass { "PASS" } else { "FAIL" });

    let c = &report.config;
    let classes = report.classes.iter().map(|tally| {
        let h = tally.hist.summary();
        let class = fields!(tally => tenants, ops, lookups, miss_fs, resident_bytes, teardowns, teardown_entries)
            .with("hit_rate", tally.hit_rate())
            .with("p50_ns", h.p50_ns)
            .with("p99_ns", h.p99_ns)
            .with("teardown_us_mean", tally.teardown_us());
        (tally.class.key(), class)
    });
    let body = Json::obj()
        .with(
            "config",
            fields!(c => tenants, creds_per_tenant, rounds, ops_per_tenant, mem_budget_bytes),
        )
        .with("classes", Json::keyed(classes))
        .with(
            "fleet",
            fields!(report => peak_namespaces, creds, over_budget_rounds, peak_resident_pccs, pcc_evictions, churn_s)
                .with("pcc_cap", pcc_cap)
                .with("peak_footprint_bytes", report.peak_footprint),
        )
        .with(
            "teardown",
            fields!(report => final_dlht_tables, final_resident_pccs, leaked_bytes)
                .with("baseline_footprint_bytes", report.baseline_footprint)
                .with("final_footprint_bytes", report.final_footprint)
                .with("clean", clean),
        )
        .with("pass", pass);
    report::write("fleet", Stamp::new(scale, Some(seed)), body);
    pass
}
