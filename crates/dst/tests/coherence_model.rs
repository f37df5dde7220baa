//! Model checks for the §3.2 coherence protocol
//! (`dcache-core/src/coherence.rs`) on a real `Dcache`, driven only
//! through it: shootdowns, a slow walk's publications, the fast reader's
//! validation, and the dying-entry rule (`Dcache::lookup_cached`).
//!
//! Models (a)–(e) build the tree root → `a` → `f` and stand in for what
//! `dc-vfs` passes the protocol: one mount that always serves, rooted at
//! the root, and a search check that passes (in the `chmod` model, reads
//! a mode word). Model (f) adds a bind mount and a directory the reader
//! may not search; model (g) a directory `a/c` a walk starts from.

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

/// A directory inode, a file inode and a second directory inode (model
/// (f)'s unsearchable `s`), built once, outside any execution.
fn inodes() -> &'static (Arc<Inode>, Arc<Inode>, Arc<Inode>) {
    static INODES: OnceLock<(Arc<Inode>, Arc<Inode>, Arc<Inode>)> = OnceLock::new();
    INODES.get_or_init(|| {
        let fs = PseudoFs::new(0o755);
        let dir = fs.add_dir(fs.root_ino(), "a", 0o755).unwrap();
        let file = fs.add_file(dir, "f", 0o644, Vec::new).unwrap();
        let secret = fs.add_dir(fs.root_ino(), "s", 0o700).unwrap();
        let inode = |ino| Inode::new(1, fs.clone(), fs.getattr(ino).unwrap());
        (inode(dir), inode(file), inode(secret))
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
        let (dir, file, _) = inodes();
        let dc = Dcache::new(DcacheConfig {
            dlht_buckets: 1 << 2,
            ..DcacheConfig::optimized().with_seed(7)
        });
        let root = dc.new_root(1, dir.clone());
        dc.sign_mount_root(&root, M, true);
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
        allowed: &dyn Fn(&Inode) -> bool,
    ) -> Option<Result<Arc<Dentry>, dc_fs::FsError>> {
        let guard = crossbeam_epoch::pin();
        let table = self.dc.dlht_for(0);
        let hit = self.dc.validate(
            &table,
            pcc,
            sig,
            true,
            false,
            true,
            true,
            &guard,
            |_, _| Some(&self.root),
            |root| (root, None),
            allowed,
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
            let mut q = dc.publications(Some(pcc), |_| true);
            q.searched(&t.root, &dc.key.root_state());
            if let Cached::Entry(a) = dc.lookup_cached(&t.root, "a") {
                q.add(&a, t.h_a, M);
                q.searched(&a, &t.h_a);
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
/// shootdown moved `a`'s seq), revalidates over `f`'s current ancestors
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
    let mut q = t.dc.publications(None, |_| false);
    q.add(&t.a, t.h_a, M);
    q.apply(|| &table);
    let pcc = Arc::new(Pcc::new(1024));
    pcc.insert(t.root.id(), t.root.seq());
    let (walked, umounted) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let walker = {
        let (t, pcc, walked) = (t.clone(), pcc.clone(), walked.clone());
        dst::thread::spawn(move || {
            let dc = &t.dc;
            let guard = &crossbeam_epoch::pin();
            let anchored = |p: &Pcc| {
                dc.anchored(
                    p,
                    &t.a,
                    guard,
                    |_, _| Some(&t.root),
                    |r| (r, None),
                    |_| true,
                )
            };
            let mut q = dc.publications(Some(pcc), anchored);
            if let Some(mut h) = t.a.hash_state_via(M) {
                q.searched(&t.a, &h);
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
/// The climb reads the directories' mode word; chmod sets it, then shoots
/// `a`. Once chmod has returned, no lookup answers `/a/f`, and the one
/// table holds no memo of `a` at its current seq left from a climb that
/// read the old mode.
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
            let mut q = t.dc.publications(None, |_| false);
            q.add(&t.a, t.h_a, M);
            q.add(&t.f, t.h_af, M);
            q.apply(|| &table);
            let pcc = Arc::new(Pcc::new(1024));
            let mode = Arc::new(AtomicU32::new(0o755));
            let searchable = {
                let mode = mode.clone();
                move |_: &Inode| mode.load(Ordering::Acquire) & 0o111 != 0
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
                !pcc.check(t.a.id(), t.a.seq()),
                "a memo from a climb that read the old mode survived chmod"
            );
        },
    );
}

/// Model (e): `mount` on `a` ∥ a slow walk of `/a/f` through the
/// mountpoint ∥ a reader that looks `/a/f` up until the walk is over. The
/// walk crosses `a` if the mount table has the mount and publishes the
/// covered `f` otherwise; mounting shoots `a`, then adds the mount, both
/// under `rename_lock`'s write side, as a rename shoots, then moves. Once
/// the mount has returned, no lookup answers `/a/f` with the covered `f`:
/// a walk that read the table before the mount was added validates
/// against the rename lock and publishes nothing.
fn mount_races_walk() {
    let t = Arc::new(Tree::new());
    let pcc = Arc::new(Pcc::new(1024));
    let (walked, mounted, in_table) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let walker = {
        let (t, pcc, walked, in_table) = (t.clone(), pcc.clone(), walked.clone(), in_table.clone());
        dst::thread::spawn(move || {
            let dc = &t.dc;
            let r = dc.rename_lock.read_begin();
            let mut q = dc.publications(Some(pcc), |_| true);
            q.searched(&t.root, &dc.key.root_state());
            if let Cached::Entry(a) = dc.lookup_cached(&t.root, "a") {
                if !in_table.load(Ordering::SeqCst) {
                    q.add(&a, t.h_a, M);
                    q.searched(&a, &t.h_a);
                    if let Cached::Entry(f) = dc.lookup_cached(&a, "f") {
                        q.add(&f, t.h_af, M);
                    }
                }
            }
            if !dc.rename_lock.read_retry(r) {
                let table = dc.dlht_for(0);
                q.apply(|| &table);
            }
            walked.store(true, Ordering::SeqCst);
        })
    };
    let mounter = {
        let (t, mounted, in_table) = (t.clone(), mounted.clone(), in_table.clone());
        dst::thread::spawn(move || {
            {
                let _w = t.dc.rename_lock.write();
                t.dc.shootdown([&t.a], true, &[]);
                in_table.store(true, Ordering::SeqCst);
            }
            mounted.store(true, Ordering::SeqCst);
        })
    };
    loop {
        let (after_mount, last) = (
            mounted.load(Ordering::SeqCst),
            walked.load(Ordering::SeqCst),
        );
        let answer = t.lookup(&pcc, &t.sig(), &|_| true);
        assert!(
            !(after_mount && matches!(&answer, Some(Ok(d)) if Arc::ptr_eq(d, &t.f))),
            "a lookup begun after the mount returned found the covered /a/f"
        );
        if last {
            break;
        }
        dst::hint::spin_loop();
    }
    walker.join().unwrap();
    mounter.join().unwrap();
}

/// Without the rename lock, mounting leaves a window between its
/// shootdown and the mount table: a walk that starts inside it samples
/// the counter after the shootdown, reads the table before the mount and
/// publishes the covered `/a/f`, which then answers for the mounted path.
#[test]
fn a_walk_never_publishes_under_a_mountpoint_being_covered() {
    let _alone = alone();
    inodes();
    dst::check(
        "publish-vs-mount",
        dst::Config::default()
            .iterations(5_000)
            .seed(0xC4)
            .expected_len(300)
            .from_env(),
        mount_races_walk,
    );
}

/// A mount in model (f): its root and, for the bind mount, its parent
/// mount and mountpoint.
struct Mnt {
    root: Arc<Dentry>,
    parent: Option<(Arc<Mnt>, Arc<Dentry>)>,
}

/// Model (f)'s tree: root → `s` → `a` → `f` and root → `b`, with `/s/a`
/// bind-mounted on `/b`; the reader may not search `s`.
struct Bound {
    dc: Arc<Dcache>,
    f: Arc<Dentry>,
    mounts: [Arc<Mnt>; 2],
    pcc: Pcc,
    h_saf: HashState,
    h_bf: HashState,
}

/// The bind mount's id.
const BIND: u64 = 2;

impl Bound {
    /// `f` signed `/s/a/f` through the root mount; `a` signed `/b` through
    /// the bind mount and, by a second walk, memoized there — the reader's
    /// own walks under `/b`.
    fn new() -> Bound {
        let (dir, file, secret) = inodes();
        let dc = Dcache::new(DcacheConfig {
            dlht_buckets: 1 << 2,
            ..DcacheConfig::optimized().with_seed(7)
        });
        let root = dc.new_root(1, dir.clone());
        dc.sign_mount_root(&root, M, true);
        let s = dc.d_alloc(&root, "s", DentryState::Positive(secret.clone()));
        let a = dc.d_alloc(&s, "a", DentryState::Positive(dir.clone()));
        let f = dc.d_alloc(&a, "f", DentryState::Positive(file.clone()));
        let b = dc.d_alloc(&root, "b", DentryState::Positive(dir.clone()));
        let path = |names: &[&str]| {
            let mut h = dc.key.root_state();
            for n in names {
                dc.key.push_component(&mut h, n.as_bytes());
            }
            h
        };
        let (h_s, h_sa, h_saf) = (path(&["s"]), path(&["s", "a"]), path(&["s", "a", "f"]));
        let (h_b, h_bf) = (path(&["b"]), path(&["b", "f"]));
        let table = dc.dlht_for(0);
        let pcc = Pcc::new(1024);
        {
            let mut q = dc.publications(None, |_| false);
            q.add(&s, h_s, M);
            q.add(&a, h_sa, M);
            q.add(&f, h_saf, M);
            q.apply(|| &table);
            let mut q = dc.publications(None, |_| false);
            q.add(&a, h_b, BIND);
            q.apply(|| &table);
        }
        let pcc = Arc::new(pcc);
        let mut q = dc.publications(Some(pcc.clone()), |_| true);
        q.searched(&a, &h_b);
        q.apply(|| &table);
        let pcc = Arc::try_unwrap(pcc).ok().expect("the walk is over");
        assert!(pcc.check(a.id(), a.seq()), "a is memoized under /b");
        let top = Arc::new(Mnt { root, parent: None });
        let bind = Arc::new(Mnt {
            root: a.clone(),
            parent: Some((top.clone(), b)),
        });
        Bound {
            dc,
            f,
            mounts: [top, bind],
            pcc,
            h_saf,
            h_bf,
        }
    }

    /// A fast lookup of the path hashed in `h` by the reader, who may
    /// search every directory but `s`.
    fn lookup(&self, h: &HashState) -> Option<Result<Arc<Dentry>, dc_fs::FsError>> {
        let guard = crossbeam_epoch::pin();
        let table = self.dc.dlht_for(0);
        let secret = &inodes().2;
        let hit = self.dc.validate(
            &table,
            &self.pcc,
            &self.dc.key.finish(h),
            true,
            false,
            true,
            true,
            &guard,
            |_, id| self.mounts.get(id as usize - 1),
            |m| (&m.root, m.parent.as_ref()),
            |dir| !std::ptr::eq(dir, &**secret),
        )?;
        Some(hit.map(|(_, d, _)| d))
    }
}

/// Model (f): a walk of `/b/f` re-signing `f` through the bind mount ∥ the
/// reader's lookups of `f` by its old path `/s/a/f`. While the old DLHT
/// entry stands, `f`'s block may already hold `/b/f`, whose climb stops at
/// `a`'s memo; a lookup by `/s/a/f` must still climb `/s/a` and be refused
/// at `s` — never answer `f`.
fn resign_races_old_path_lookup() {
    let t = Arc::new(Bound::new());
    let walked = Arc::new(AtomicBool::new(false));
    let walker = {
        let (t, walked) = (t.clone(), walked.clone());
        dst::thread::spawn(move || {
            let mut q = t.dc.publications(None, |_| false);
            q.add(&t.f, t.h_bf, BIND);
            let table = t.dc.dlht_for(0);
            q.apply(|| &table);
            walked.store(true, Ordering::SeqCst);
        })
    };
    let found_f =
        |answer: Option<Result<_, _>>| matches!(answer, Some(Ok(d)) if Arc::ptr_eq(&d, &t.f));
    loop {
        let last = walked.load(Ordering::SeqCst);
        assert!(
            !found_f(t.lookup(&t.h_saf)),
            "a lookup by /s/a/f passed s on /b's memo of a"
        );
        if last {
            break;
        }
        dst::hint::spin_loop();
    }
    walker.join().unwrap();
    assert!(
        found_f(t.lookup(&t.h_bf)),
        "/b/f is answered from a's memo once re-signed"
    );
}

#[test]
fn a_re_signed_dentry_is_never_checked_along_its_new_path_for_its_old() {
    let _alone = alone();
    inodes();
    dst::check(
        "resign-vs-old-path",
        dst::Config::default()
            .iterations(5_000)
            .seed(0xC5)
            .expected_len(300)
            .from_env(),
        resign_races_old_path_lookup,
    );
}

/// Model (g): `rename /a /b` ∥ a slow walk from a cwd `/a/c` whose state
/// the rename's shootdown cleared. The walk rebuilds the state from `c`'s
/// ancestors (the nearest one holding a state, then the names below it),
/// as `dc-vfs`'s `rebuild_hash_state` does, and queues it as `c`'s; it
/// publishes only if no rename overlapped. Once both are over, `c`'s
/// stored state, if it has one, hashes `c`'s current path: a state read
/// between the shootdown and the move names the path `c` left.
fn rebuild_races_rename() {
    let t = Arc::new(Tree::new());
    let c =
        t.dc.d_alloc(&t.a, "c", DentryState::Positive(inodes().0.clone()));
    let path_of_c = |dc: &Dcache, parent: &str| {
        let mut h = dc.key.root_state();
        dc.key.push_component(&mut h, parent.as_bytes());
        dc.key.push_component(&mut h, b"c");
        h
    };
    let mut q = t.dc.publications(None, |_| false);
    q.add(&t.a, t.h_a, M);
    q.add(&c, path_of_c(&t.dc, "a"), M);
    let table = t.dc.dlht_for(0);
    q.apply(|| &table);
    let walker = {
        let (t, c) = (t.clone(), c.clone());
        dst::thread::spawn(move || {
            let dc = &t.dc;
            let r = dc.rename_lock.read_begin();
            let mut q = dc.publications(None, |_| false);
            if c.hash_state_via(M).is_none() {
                let (mut d, mut names) = (c.clone(), Vec::new());
                let base = loop {
                    if let Some(h) = d.hash_state_via(M) {
                        break Some(h);
                    }
                    names.push(d.name());
                    let Some(up) = d.parent() else { break None };
                    d = up;
                };
                if let Some(mut h) = base {
                    for n in names.iter().rev() {
                        dc.key.push_component(&mut h, n.as_bytes());
                    }
                    q.add(&c, h, M);
                }
            }
            if !dc.rename_lock.read_retry(r) {
                let table = dc.dlht_for(0);
                q.apply(|| &table);
            }
        })
    };
    let renamer = {
        let t = t.clone();
        dst::thread::spawn(move || {
            let _w = t.dc.rename_lock.write();
            t.dc.shootdown([&t.a], true, &[]);
            t.dc.d_move(&t.a, &t.root, "b");
        })
    };
    walker.join().unwrap();
    renamer.join().unwrap();
    let now = path_of_c(&t.dc, &t.a.name());
    assert!(
        c.hash_state_via(M).is_none_or(|h| h == now),
        "c holds the hash state of a path it left"
    );
}

#[test]
fn a_rebuilt_state_is_published_only_if_no_rename_overlapped() {
    let _alone = alone();
    inodes();
    dst::check(
        "rebuild-vs-rename",
        dst::Config::default()
            .iterations(2_000)
            .seed(0xC6)
            .expected_len(300)
            .from_env(),
        rebuild_races_rename,
    );
}
