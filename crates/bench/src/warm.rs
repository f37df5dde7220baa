//! Warm-restart phase of `repro crash` (DESIGN.md §15).
//!
//! Runs three sub-phases over the campaign's captured crash images:
//!
//! 1. **Rehydration** — every image remounts with warm restart enabled.
//!    The outcome must be typed (rehydrated, or a typed cold fallback),
//!    its accounting must balance, and every lookup the rehydrated
//!    cache answers must agree with the recovered metadata tree — zero
//!    wrong lookups, zero phantoms.
//! 2. **Corruption** — seeded byte flips in each image's warm-index
//!    region ([`CrashImage::corrupt_byte`]), then a second warm
//!    remount: still zero panics, zero wrong lookups, and `fsck`
//!    (index pass included) still clean — index rot must never read as
//!    metadata damage.
//! 3. **Ablation** — per rehydrated image, ops-to-90%-hit-rate over the
//!    recovered hot set with and without the persisted index; the
//!    with-index median must beat the without-index median by at least
//!    [`ABLATION_FLOOR`]×.
//!
//! Results land in `BENCH_warm.json`; the returned verdict feeds
//! `repro crash`'s exit code.

use crate::report::{self, fields, Json, Stamp};
use crate::setup::Scale;
use crate::table::Table;
use dc_blockdev::{CachedDisk, CrashImage, LatencyModel};
use dc_fault::SplitMix64;
use dc_fs::{fsck, FileSystem, MemFs};
use dc_vfs::{Kernel, KernelBuilder};
use dcache_core::DcacheConfig;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Acceptance floor: the with-index restart must reach the hit-rate
/// target in at least this many times fewer ops than the cold restart.
pub const ABLATION_FLOOR: f64 = 5.0;

/// The hit-rate a restarted node must reach: 90% of lookups served
/// without touching the backing file system.
const HIT_TARGET_PCT: u64 = 90;

/// Page-cache sizing for remounts (matches the campaign's disks).
const CACHE_PAGES: usize = 2048;

/// Remounts a crash image and builds an optimized kernel over it,
/// with or without warm restart.
fn mount_kernel(
    img: &CrashImage,
    seed: u64,
    warm: bool,
) -> Option<(Arc<CachedDisk>, Arc<MemFs>, Arc<Kernel>)> {
    let disk = Arc::new(CachedDisk::from_image(
        img,
        CACHE_PAGES,
        LatencyModel::free(),
    ));
    let fs = MemFs::mount(disk.clone()).ok()?;
    let kernel = KernelBuilder::new(DcacheConfig::optimized().with_seed(seed))
        .root_fs(fs.clone() as Arc<dyn FileSystem>)
        .warm_restart(warm)
        .build()
        .ok()?;
    Some((disk, fs, kernel))
}

/// The recovered hot working set: `(path, inode)` for every `/hot`
/// entry in the image's own metadata tree — the ground truth any
/// rehydrated answer must match.
fn hot_paths(fs: &MemFs) -> Vec<(String, u64)> {
    let Ok(hot) = fs.lookup(fs.root_ino(), "hot") else {
        return Vec::new();
    };
    let mut entries = Vec::new();
    let mut cursor = 0u64;
    while let Ok(Some(next)) = fs.readdir(hot.ino, cursor, 128, &mut entries) {
        cursor = next;
    }
    entries.sort_by(|a, b| a.name.cmp(&b.name));
    entries
        .iter()
        .map(|e| (format!("/hot/{}", e.name), e.ino))
        .collect()
}

/// Seeded Fisher–Yates permutation of `0..n`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ 0x5817_FF1E);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// Ops until the restarted node serves its hot set at the target hit
/// rate: stats the set in a seeded order and returns the first op count
/// (at least one full pass) where ≥90% of ops so far needed no
/// backing-fs lookup. Capped at 40 passes.
fn ops_to_target(kernel: &Kernel, paths: &[(String, u64)], seed: u64) -> u64 {
    let proc = kernel.init_process();
    kernel.reset_stats();
    let stats = &kernel.dcache.stats;
    let order = shuffled(paths.len(), seed);
    let cap = 40 * paths.len() as u64;
    let mut hit_ops = 0u64;
    let mut last_miss = 0u64;
    let mut n = 0u64;
    loop {
        let (path, _) = &paths[order[(n % paths.len() as u64) as usize]];
        let _ = kernel.stat(&proc, path);
        n += 1;
        let miss = stats.miss_fs.load(Ordering::Relaxed);
        if miss == last_miss {
            hit_ops += 1;
        }
        last_miss = miss;
        if (n >= paths.len() as u64 && hit_ops * 100 >= n * HIT_TARGET_PCT) || n >= cap {
            return n;
        }
    }
}

/// Wrong answers the (possibly rehydrated) cache gives against the
/// recovered tree: a hot path resolving to the wrong inode (or not at
/// all), or a phantom path resolving.
fn wrong_lookups(kernel: &Kernel, paths: &[(String, u64)]) -> u64 {
    let proc = kernel.init_process();
    let mut wrong = 0u64;
    for (path, ino) in paths {
        match kernel.stat(&proc, path) {
            Ok(a) if a.ino == *ino => {}
            _ => wrong += 1,
        }
    }
    if kernel.stat(&proc, "/hot/phantom-entry").is_ok() {
        wrong += 1;
    }
    wrong
}

fn median(v: &mut [u64]) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[v.len() / 2]
}

/// Everything the warm phase tallies (and exports).
#[derive(Default)]
struct WarmVerdict {
    images: usize,
    rehydrated: usize,
    fallbacks: usize,
    published: u64,
    rejected: u64,
    wrong: u64,
    accounting_breaks: usize,
    corrupt_images: usize,
    corrupt_flips: usize,
    corrupt_rehydrated: usize,
    corrupt_fallbacks: usize,
    corrupt_wrong: u64,
    corrupt_fsck_errors: usize,
    warm_p50: u64,
    cold_p50: u64,
    first_failure: Option<String>,
}

impl WarmVerdict {
    fn ratio(&self) -> f64 {
        self.cold_p50 as f64 / self.warm_p50.max(1) as f64
    }

    fn clean(&self) -> bool {
        self.wrong == 0
            && self.accounting_breaks == 0
            && self.corrupt_wrong == 0
            && self.corrupt_fsck_errors == 0
            && self.rehydrated > 0
            && self.ratio() >= ABLATION_FLOOR
    }

    fn note(&mut self, what: String) {
        if self.first_failure.is_none() {
            self.first_failure = Some(what);
        }
    }
}

/// The warm-restart phase entry point, fed by `crash::crash` with the
/// campaign's captured images. Returns whether every sub-phase passed.
pub(crate) fn phase(scale: Scale, seed: u64, hotset: usize, mut images: Vec<CrashImage>) -> bool {
    println!(
        "\n==== Warm restart: rehydration + index corruption + ops-to-90% ablation \
         ({} images, hot set {hotset}) ====",
        images.len()
    );
    let t0 = Instant::now();
    let mut rng = SplitMix64::new(seed ^ 0x57A6_11D0);
    let mut v = WarmVerdict {
        images: images.len(),
        ..Default::default()
    };
    let mut warm_ops: Vec<u64> = Vec::new();
    let mut cold_ops: Vec<u64> = Vec::new();

    for img in &mut images {
        let cut = img.cut_at_write;
        // Sub-phase 1: warm remount of the image as captured.
        let Some((_, wfs, wk)) = mount_kernel(img, seed, true) else {
            // Unmountable images already failed the main campaign.
            continue;
        };
        let geo = *wfs.geometry();
        let outcome = wk.warm_outcome().expect("builder ran warm restart");
        let paths = hot_paths(&wfs);
        if paths.is_empty() {
            continue;
        }
        if outcome.fallback.is_none() {
            v.rehydrated += 1;
            v.published += outcome.published;
            v.rejected += outcome.rejected;
            if outcome.attempted != outcome.published + outcome.rejected {
                v.accounting_breaks += 1;
                v.note(format!("cut@{cut}: outcome accounting broken: {outcome:?}"));
            }
        } else {
            v.fallbacks += 1;
        }
        let w = ops_to_target(&wk, &paths, seed ^ cut);
        let wrong = wrong_lookups(&wk, &paths);
        if wrong > 0 {
            v.wrong += wrong;
            v.note(format!(
                "cut@{cut}: {wrong} wrong lookups after warm restart ({outcome:?})"
            ));
        }
        // Ablation comparator only where an index actually rehydrated —
        // an absent/torn index is the cold case by definition.
        if outcome.fallback.is_none() && outcome.published > 0 {
            if let Some((_, _, ck)) = mount_kernel(img, seed, false) {
                warm_ops.push(w);
                cold_ops.push(ops_to_target(&ck, &paths, seed ^ cut));
            }
        }
        drop(wk);
        drop(wfs);

        // Sub-phase 2: corrupt the index region in-place, remount warm.
        let flips = 1 + rng.below(8) as usize;
        for _ in 0..flips {
            let blk = geo.warmidx_start + rng.below(geo.warmidx_blocks);
            let off = rng.below(geo.block_size as u64) as usize;
            img.corrupt_byte(blk, off, rng.below(256) as u8);
        }
        v.corrupt_images += 1;
        v.corrupt_flips += flips;
        let Some((cdisk, cfs, ck)) = mount_kernel(img, seed, true) else {
            v.corrupt_wrong += 1;
            v.note(format!("cut@{cut}: remount failed after index corruption"));
            continue;
        };
        let outcome2 = ck.warm_outcome().expect("builder ran warm restart");
        if outcome2.fallback.is_none() {
            v.corrupt_rehydrated += 1;
        } else {
            v.corrupt_fallbacks += 1;
        }
        let wrong2 = wrong_lookups(&ck, &hot_paths(&cfs));
        if wrong2 > 0 {
            v.corrupt_wrong += wrong2;
            v.note(format!(
                "cut@{cut}: {wrong2} wrong lookups after index corruption ({outcome2:?})"
            ));
        }
        // Index rot must never read as metadata damage.
        match fsck(&cdisk) {
            Ok(r) if r.is_clean() => {}
            Ok(r) => {
                v.corrupt_fsck_errors += 1;
                v.note(format!("cut@{cut}: post-corruption fsck: {}", r.errors[0]));
            }
            Err(e) => {
                v.corrupt_fsck_errors += 1;
                v.note(format!("cut@{cut}: post-corruption fsck failed: {e:?}"));
            }
        }
    }

    v.warm_p50 = median(&mut warm_ops);
    v.cold_p50 = median(&mut cold_ops);

    let mut t = Table::new(&["warm-restart check", "count", "failures"]);
    t.row(vec![
        "images rehydrated / fell back".into(),
        format!("{} / {}", v.rehydrated, v.fallbacks),
        v.accounting_breaks.to_string(),
    ]);
    t.row(vec![
        "entries published / rejected".into(),
        format!("{} / {}", v.published, v.rejected),
        String::new(),
    ]);
    t.row(vec![
        "lookups vs recovered tree".into(),
        (v.images * hotset).to_string(),
        v.wrong.to_string(),
    ]);
    t.row(vec![
        "corrupted images (byte flips)".into(),
        format!("{} ({})", v.corrupt_images, v.corrupt_flips),
        (v.corrupt_wrong + v.corrupt_fsck_errors as u64).to_string(),
    ]);
    t.row(vec![
        "corrupt: rehydrated / fell back".into(),
        format!("{} / {}", v.corrupt_rehydrated, v.corrupt_fallbacks),
        String::new(),
    ]);
    t.row(vec![
        "ops-to-90%: warm / cold (p50)".into(),
        format!("{} / {}", v.warm_p50, v.cold_p50),
        String::new(),
    ]);
    t.print();
    if let Some(f) = &v.first_failure {
        println!("first failure: {f}");
    }
    let pass = v.clean();
    println!(
        "warm restart: {:.1}x fewer ops to 90% hit rate (floor: {ABLATION_FLOOR}x) — {} [{:?}]",
        v.ratio(),
        if pass { "PASS" } else { "FAIL" },
        t0.elapsed(),
    );

    let body = Json::obj()
        .with("hotset", hotset)
        .with(
            "rehydration",
            fields!(v => images, rehydrated, fallbacks, published, rejected, accounting_breaks)
                .with("wrong_lookups", v.wrong),
        )
        .with(
            "corruption",
            Json::obj()
                .with("images", v.corrupt_images)
                .with("byte_flips", v.corrupt_flips)
                .with("rehydrated", v.corrupt_rehydrated)
                .with("fallbacks", v.corrupt_fallbacks)
                .with("wrong_lookups", v.corrupt_wrong)
                .with("fsck_errors", v.corrupt_fsck_errors),
        )
        .with(
            "ablation",
            Json::obj()
                .with("warm_ops_p50", v.warm_p50)
                .with("cold_ops_p50", v.cold_p50)
                .with("ratio", v.ratio())
                .with("floor", ABLATION_FLOOR)
                .with("pass", v.ratio() >= ABLATION_FLOOR),
        )
        .with("clean", pass);
    report::write("warm", Stamp::new(scale, Some(seed)), body);
    pass
}
