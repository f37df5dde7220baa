//! Model checks for the §3.2 coherence protocol
//! (`dcache-core/src/coherence.rs`) on a real `Dcache`, driven only
//! through it: shootdowns, a slow walk's publications, the fast reader's
//! validation, and the dying-entry rule (`Dcache::lookup_cached`).
//!
//! Every model builds the tree root → `a` → `f` and stands in for what
//! `dc-vfs` passes the protocol: a climb that checks each ancestor is a
//! positive directory (and, in the `chmod` model, reads a mode word),
//! and a mount that always serves.

use dc_fs::{FileSystem, PseudoFs};
use dcache_core::{
    Cached, Dcache, DcacheConfig, Dentry, DentryState, HashState, Inode, Pcc, Signature,
    FLAG_DIR_COMPLETE,
};
use dst::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// One model at a time in this process: the epoch collector and the
/// snapshot slab are process-global, and a sibling test's garbage
/// collected on our pins would make a schedule depend on more than its
/// seed.
static ONE_MODEL_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn alone() -> std::sync::MutexGuard<'static, ()> {
    ONE_MODEL_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The mount every block is signed through.
const M: u64 = 1;

/// A directory inode and a file inode, built once, outside any execution.
fn inodes() -> &'static (Arc<Inode>, Arc<Inode>) {
    static INODES: OnceLock<(Arc<Inode>, Arc<Inode>)> = OnceLock::new();
    INODES.get_or_init(|| {
        let fs = PseudoFs::new(0o755);
        let dir = fs.add_dir(fs.root_ino(), "a", 0o755).unwrap();
        let file = fs.add_file(dir, "f", 0o644, Vec::new).unwrap();
        let inode = |ino| Inode::new(1, fs.clone(), fs.getattr(ino).unwrap());
        (inode(dir), inode(file))
    })
}

/// root → `a` → `f` in a fresh cache, with the hash states of `/a` and
/// `/a/f`.
struct Tree {
    dc: Arc<Dcache>,
    root: Arc<Dentry>,
    a: Arc<Dentry>,
    f: Arc<Dentry>,
    h_a: HashState,
    h_af: HashState,
}

impl Tree {
    fn new() -> Tree {
        let (dir, file) = inodes();
        let dc = Dcache::new(DcacheConfig {
            dlht_buckets: 1 << 2,
            ..DcacheConfig::optimized().with_seed(7)
        });
        let root = dc.new_root(1, dir.clone());
        let a = dc.d_alloc(&root, "a", DentryState::Positive(dir.clone()));
        let f = dc.d_alloc(&a, "f", DentryState::Positive(file.clone()));
        let mut h_a = dc.key.root_state();
        dc.key.push_component(&mut h_a, b"a");
        let mut h_af = h_a;
        dc.key.push_component(&mut h_af, b"f");
        Tree {
            dc,
            root,
            a,
            f,
            h_a,
            h_af,
        }
    }

    /// The signature `/a/f` hashes to.
    fn sig(&self) -> Signature {
        self.dc.key.finish(&self.h_af)
    }

    /// A fast lookup of `sig`, answering the dentry it found.
    fn lookup(
        &self,
        pcc: &Pcc,
        sig: &Signature,
        allowed: &dyn Fn(&Dentry) -> bool,
    ) -> Option<Result<Arc<Dentry>, dc_fs::FsError>> {
        let guard = crossbeam_epoch::pin();
        let table = self.dc.dlht_for(0);
        let climb = |obj: &Arc<Dentry>, _: u64, memoized: &mut dyn FnMut(&Dentry, u64) -> bool| {
            let mut d = obj.clone();
            while let Some(parent) = d.parent() {
                let seq = parent.seq();
                let dir = parent.view(&guard).inode().is_some_and(|i| i.is_dir());
                if !dir || !allowed(&parent) {
                    return None;
                }
                if memoized(&parent, seq) {
                    return Some(());
                }
                d = parent;
            }
            Some(())
        };
        let hit = self.dc.validate(
            &table,
            pcc,
            sig,
            true,
            false,
            true,
            &guard,
            |_, _| Some(&()),
            climb,
        )?;
        Some(hit.map(|(_, d, _)| d))
    }
}

/// Model (a): a slow walk of `/a/f` publishing ∥ `rename /a /b` ∥ a fast
/// reader that looks `/a/f` up until the walk is over. A lookup that
/// starts after the rename returned must not answer `/a/f` with `f`.
fn publish_races_rename() {
    let t = Arc::new(Tree::new());
    let pcc = Arc::new(Pcc::new(1024));
    let (walked, renamed) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let walker = {
        let (t, pcc, walked) = (t.clone(), pcc.clone(), walked.clone());
        dst::thread::spawn(move || {
            let dc = &t.dc;
            let r = dc.rename_lock.read_begin();
            let mut q = dc.publications(Some(pcc), &t.root, true);
            if let Cached::Entry(a) = dc.lookup_cached(&t.root, "a") {
                q.add(&a, t.h_a, M);
                if let Cached::Entry(f) = dc.lookup_cached(&a, "f") {
                    q.add(&f, t.h_af, M);
                }
            }
            if !dc.rename_lock.read_retry(r) {
                let table = dc.dlht_for(0);
                q.apply(|| &table);
            }
            walked.store(true, Ordering::SeqCst);
        })
    };
    let renamer = {
        let (t, renamed) = (t.clone(), renamed.clone());
        dst::thread::spawn(move || {
            {
                let _w = t.dc.rename_lock.write();
                t.dc.shootdown([&t.a], true, &[]);
                t.dc.d_move(&t.a, &t.root, "b");
            }
            renamed.store(true, Ordering::SeqCst);
        })
    };
    loop {
        let (after_rename, last) = (
            renamed.load(Ordering::SeqCst),
            walked.load(Ordering::SeqCst),
        );
        let answer = t.lookup(&pcc, &t.sig(), &|_| true);
        assert!(
            !(after_rename && matches!(&answer, Some(Ok(d)) if Arc::ptr_eq(d, &t.f))),
            "a lookup begun after the rename returned found /a/f"
        );
        if last {
            break;
        }
        dst::hint::spin_loop();
    }
    walker.join().unwrap();
    renamer.join().unwrap();
}

/// A walk checks, then publishes, while shootdowns are excluded: once the
/// rename's shootdown has begun, the walk publishes nothing. The order
/// this rules out is publish, check, roll back: a lookup begun after the
/// rename returned finds `/a/f` in the DLHT, misses the PCC (the
/// shootdown moved `f`'s seq), revalidates over `f`'s current ancestors
/// and answers with `f`. Seed `0xC0` at expected length 500 finds that
/// order at iteration 14, its change points between the walk's inserts
/// and its check; the default length, whose change points land before
/// the walk has validated, covers the rest.
#[test]
fn a_walk_never_publishes_across_a_rename() {
    let _alone = alone();
    inodes();
    dst::check(
        "publish-vs-rename-long",
        dst::Config::default()
            .iterations(20_000)
            .seed(0xC0)
            .expected_len(500)
            .from_env(),
        publish_races_rename,
    );
    dst::check(
        "publish-vs-rename",
        dst::Config::default()
            .iterations(20_000)
            .seed(0xC0)
            .from_env(),
        publish_races_rename,
    );
}

/// Model (b): eviction of `f` (`unhash(f, true)`) ∥ a lookup of `f`
/// under its complete parent. The lookup is never told `f` is absent:
/// the file system still has it.
#[test]
fn eviction_never_fabricates_absence() {
    let _alone = alone();
    inodes();
    dst::check(
        "dying-entry-rule",
        dst::Config::default()
            .iterations(2000)
            .seed(0xC1)
            .expected_len(100)
            .from_env(),
        || {
            let t = Arc::new(Tree::new());
            t.a.set_flag(FLAG_DIR_COMPLETE);
            let evictor = {
                let t = t.clone();
                dst::thread::spawn(move || t.dc.unhash(&t.f, true))
            };
            for _ in 0..2 {
                assert!(
                    !matches!(t.dc.lookup_cached(&t.a, "f"), Cached::Absent),
                    "a lookup racing eviction was told a cached file is absent"
                );
            }
            evictor.join().unwrap();
        },
    );
}

/// Model (c): `umount`'s shootdown of a mount root `a` ∥ a slow walk of
/// `f` anchored at a cwd inside that mount (`a` itself, resuming from its
/// stored hash state) ∥ a reader that looks `/a/f` up until the walk is
/// over. Once the shootdown has returned, no lookup by the old signature
/// answers — not while the walk runs, and not after it.
fn umount_races_cwd_walk() {
    let t = Arc::new(Tree::new());
    let table = t.dc.dlht_for(0);
    let mut q = t.dc.publications(None, &t.root, true);
    q.add(&t.a, t.h_a, M);
    q.apply(|| &table);
    let pcc = Arc::new(Pcc::new(1024));
    pcc.insert(t.a.id(), t.a.seq());
    let (walked, umounted) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let walker = {
        let (t, pcc, walked) = (t.clone(), pcc.clone(), walked.clone());
        dst::thread::spawn(move || {
            let dc = &t.dc;
            let mut q = dc.publications(Some(pcc), &t.a, false);
            if let Some(mut h) = t.a.hash_state_via(M) {
                if let Cached::Entry(f) = dc.lookup_cached(&t.a, "f") {
                    dc.key.push_component(&mut h, b"f");
                    q.add(&f, h, M);
                }
            }
            let table = dc.dlht_for(0);
            q.apply(|| &table);
            walked.store(true, Ordering::SeqCst);
        })
    };
    let umounter = {
        let (t, umounted) = (t.clone(), umounted.clone());
        dst::thread::spawn(move || {
            t.dc.shootdown([&t.a], true, &[]);
            umounted.store(true, Ordering::SeqCst);
        })
    };
    let found_f =
        |answer: Option<Result<_, _>>| matches!(answer, Some(Ok(d)) if Arc::ptr_eq(&d, &t.f));
    loop {
        let (after_umount, last) = (
            umounted.load(Ordering::SeqCst),
            walked.load(Ordering::SeqCst),
        );
        let answer = t.lookup(&pcc, &t.sig(), &|_| true);
        assert!(
            !(after_umount && found_f(answer)),
            "a lookup begun after the umount returned found /a/f"
        );
        if last {
            break;
        }
        dst::hint::spin_loop();
    }
    walker.join().unwrap();
    umounter.join().unwrap();
    assert!(
        !found_f(t.lookup(&pcc, &t.sig(), &|_| true)),
        "the walk published /a/f after the umount"
    );
}

#[test]
fn a_walk_from_a_cwd_never_publishes_across_an_umount() {
    let _alone = alone();
    inodes();
    dst::check(
        "publish-vs-umount",
        dst::Config::default()
            .iterations(5_000)
            .seed(0xC3)
            .expected_len(300)
            .from_env(),
        umount_races_cwd_walk,
    );
}

/// Model (d): `chmod a-x` ∥ a revalidating lookup of `/a/f` ∥ a reader.
/// The climb reads `a`'s mode word; chmod sets it, then shoots `a`. Once
/// chmod has returned, no lookup answers `/a/f`, and no PCC entry at the
/// current seq — of `f`, or of `a` in the directory table — is left
/// from a climb that read the old mode.
#[test]
fn chmod_shootdown_kills_every_old_mode_memo() {
    let _alone = alone();
    inodes();
    dst::check(
        "chmod-vs-revalidate",
        dst::Config::default()
            .iterations(1000)
            .seed(0xC2)
            .expected_len(300)
            .from_env(),
        || {
            let t = Arc::new(Tree::new());
            let table = t.dc.dlht_for(0);
            let mut q = t.dc.publications(None, &t.root, true);
            q.add(&t.a, t.h_a, M);
            q.add(&t.f, t.h_af, M);
            q.apply(|| &table);
            let pcc = Arc::new(Pcc::new(1024));
            let mode = Arc::new(AtomicU32::new(0o755));
            let a_id = t.a.id();
            let searchable = {
                let mode = mode.clone();
                move |d: &Dentry| d.id() != a_id || mode.load(Ordering::Acquire) & 0o111 != 0
            };
            let chmodded = Arc::new(AtomicBool::new(false));
            let revalidator = {
                let (t, pcc, searchable) = (t.clone(), pcc.clone(), searchable.clone());
                dst::thread::spawn(move || {
                    let _ = t.lookup(&pcc, &t.sig(), &searchable);
                })
            };
            let chmod = {
                let (t, mode, chmodded) = (t.clone(), mode.clone(), chmodded.clone());
                dst::thread::spawn(move || {
                    mode.store(0o644, Ordering::Release);
                    t.dc.shootdown([&t.a], false, &[]);
                    chmodded.store(true, Ordering::SeqCst);
                })
            };
            let after_chmod = chmodded.load(Ordering::SeqCst);
            let answer = t.lookup(&pcc, &t.sig(), &searchable);
            if after_chmod {
                assert!(
                    !matches!(answer, Some(Ok(_))),
                    "a lookup begun after chmod returned was allowed through a"
                );
            }
            revalidator.join().unwrap();
            chmod.join().unwrap();
            assert!(
                !pcc.check(t.f.id(), t.f.seq()) && !pcc.check_dir(a_id, t.a.seq()),
                "a memo from a climb that read the old mode survived chmod"
            );
        },
    );
}
