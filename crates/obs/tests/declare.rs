//! The two declaration forms from outside the crate, as every other
//! crate uses them: what `counters!` and `keyed_enum!` expand to.

use dc_obs::{counters, keyed_enum, Cells, Counter, EventKind, Keyed, MetricSource, Per};
use dc_obs::{FaultClass, LookupOutcome, TraceEvent};
use std::sync::atomic::Ordering;
use std::sync::Arc;

keyed_enum! {
    /// A test enum.
    enum Gear { Low = "low", Mid = "mid", High = "high" }
}

counters! {
    /// A row.
    struct Row { a = "_a", b = "_b" }
}

counters! {
    /// Plain counters, a family of counters and a family of rows.
    struct Mixed = "mixed" rates(half) {
        first,
        gears: Per<Gear, Counter> = "gear_",
        rows: Per<Gear, Row> = "",
        last,
    }
}

impl Mixed {
    fn half(&self) -> f64 {
        0.5
    }
}

counters! {
    /// With a plain twin.
    struct Twinned { x, y } => TwinnedValues
}

#[test]
fn keys_compose_by_concatenation_in_declaration_order() {
    let m = Mixed::default();
    m.gears[Gear::Mid].fetch_add(2, Ordering::Relaxed);
    m.rows[Gear::High].b.fetch_add(3, Ordering::Relaxed);
    m.last.fetch_add(4, Ordering::Relaxed);
    let keys: Vec<String> = m.counters().into_iter().map(|(k, _)| k).collect();
    #[rustfmt::skip]
    assert_eq!(keys, [
        "first", "gear_low", "gear_mid", "gear_high",
        "low_a", "low_b", "mid_a", "mid_b", "high_a", "high_b", "last",
    ]);
    let values: Vec<u64> = m.counters().into_iter().map(|(_, v)| v).collect();
    assert_eq!(values, [0, 0, 2, 0, 0, 0, 0, 0, 0, 3, 4]);
    assert_eq!(<Mixed as Cells>::N, 11);
    m.reset();
    assert!(m.counters().iter().all(|(_, v)| *v == 0));
}

#[test]
fn a_named_section_is_a_metric_source_and_a_clone_shares_its_cells() {
    let m = Mixed::default();
    let source: Arc<dyn MetricSource> = Arc::new(m.clone());
    m.first.fetch_add(7, Ordering::Relaxed);
    assert_eq!(source.name(), "mixed");
    assert_eq!(source.counters()[0], ("first".to_string(), 7));
    assert_eq!(source.rates(), [("half", 0.5)]);
    source.reset();
    assert_eq!(m.first.load(Ordering::Relaxed), 0);
}

#[test]
fn the_twin_reads_every_counter() {
    let t = Twinned::default();
    t.y.fetch_add(9, Ordering::Relaxed);
    assert_eq!(t.values(), TwinnedValues { x: 0, y: 9 });
    assert_eq!(t.values().counters(), t.counters());
}

#[test]
fn keyed_enum_rows_are_index_and_key() {
    for (i, g) in Gear::ALL.iter().enumerate() {
        assert_eq!(g.idx(), i);
    }
    assert_eq!(Gear::High.key(), "high");
    assert_eq!(<Gear as Keyed>::ALL.len(), 3);
}

/// One constructed event per row, in row order: `of` maps it to the
/// kind on its row.
#[test]
fn every_event_maps_to_the_kind_on_its_row() {
    use TraceEvent as T;
    let end = |outcome| T::LookupEnd { outcome, ns: 1 };
    #[rustfmt::skip]
    let events = [
        T::LookupStart, T::DlhtProbe { hit: true }, T::DlhtProbe { hit: false },
        T::PccCheck { hit: true, stale: false }, T::PccCheck { hit: false, stale: true },
        T::PccCheck { hit: false, stale: false }, T::SeqRetry, T::EpochPin, T::ReadRetry,
        T::SlowStep { component: 0 }, T::FsMiss, T::BlockIo { blks: 1, ns: 1 },
        end(LookupOutcome::Positive), end(LookupOutcome::Negative), end(LookupOutcome::Error),
        T::FaultInjected { class: FaultClass::Transient },
        T::IoRetry { attempt: 1, backoff_ns: 1 },
        T::Shrink { target_bytes: 1, freed_bytes: 1 }, T::JournalCommit { blocks: 1 },
        T::JournalReplay { txns: 1 }, T::JournalCheckpoint, T::ServeBatch { ops: 1 },
        T::ServeReject { ops: 1 }, T::ServeConn, T::PccEvict,
        T::NsTeardown { entries: 1, pccs: 1 }, T::WarmCheckpoint { entries: 1 },
        T::WarmRestart { published: 1, rejected: 0, fallback: false },
    ];
    let kinds: Vec<EventKind> = events.iter().map(EventKind::of).collect();
    assert_eq!(kinds, EventKind::ALL);
    // A stale hit is still a hit: `stale` is only read on a miss.
    let stale_hit = T::PccCheck {
        hit: true,
        stale: true,
    };
    assert_eq!(EventKind::of(&stale_hit), EventKind::PccHit);
}
