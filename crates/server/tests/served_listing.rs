//! A served `Readdir` is `list_dir`'s answer: the same entries and the
//! same errors, under the optimized and the baseline cache. A complete
//! directory's listing is handed out as its one published block, which
//! a later change to the directory replaces rather than edits. And a
//! frame or a response that races an idle thread is never left waiting.

use dc_server::proto::{ReqBody, Request, RespBody, Status};
use dc_server::{Client, Server, ServerConfig};
use dc_vfs::{Cred, DirEntry, FsError, Kernel, KernelBuilder, OpenFlags, Process};
use dcache_core::DcacheConfig;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn touch(k: &Kernel, p: &Process, path: &str) {
    let fd = k.open(p, path, OpenFlags::create(), 0o644).unwrap();
    k.close(p, fd).unwrap();
}

/// `(ino, ftype, name)` of each entry, order ignored.
type Names = BTreeSet<(u64, u8, String)>;

fn names(entries: &[DirEntry]) -> Names {
    entries
        .iter()
        .map(|e| (e.ino, e.ftype.as_u8(), e.name.clone()))
        .collect()
}

/// What `list_dir` says of `path`, as a served record would carry it.
fn listed(k: &Kernel, p: &Process, path: &str) -> Result<Names, Status> {
    k.list_dir(p, path).map(|e| names(&e)).map_err(Status::Fs)
}

/// `/partial` (evicted, so incomplete), `/full` (complete under the
/// optimized cache), `/link` → `/full`, and `/locked` at `0o311`.
fn tree(config: DcacheConfig) -> Arc<Kernel> {
    let k = KernelBuilder::new(config.with_seed(7)).build().unwrap();
    let p = k.init_process();
    k.mkdir(&p, "/partial", 0o755).unwrap();
    for f in 0..5 {
        touch(&k, &p, &format!("/partial/p{f}"));
    }
    k.drop_caches();
    k.mkdir(&p, "/full", 0o755).unwrap();
    for f in 0..6 {
        touch(&k, &p, &format!("/full/f{f}"));
    }
    k.mkdir(&p, "/full/sub", 0o755).unwrap();
    k.symlink(&p, "/full", "/link").unwrap();
    k.mkdir(&p, "/locked", 0o311).unwrap();
    touch(&k, &p, "/locked/secret");
    k
}

fn served_equals_list_dir(config: DcacheConfig) {
    let completeness = config.dir_completeness;
    let k = tree(config);
    let root = k.init_process();
    let alice = k.spawn_with_cred(&root, Cred::user(1000, 1000));
    let server = Server::start(k.clone(), ServerConfig::default());
    server.register_cred(1, root.clone());
    server.register_cred(2, alice.clone());
    let client = Client::new(server.connect());

    let cases: [(u16, &Arc<Process>, &str); 8] = [
        (1, &root, "/partial"),
        (1, &root, "/full"),
        (1, &root, "/link"),
        (1, &root, "/full/f0"),
        (1, &root, "/missing"),
        (2, &alice, "/locked"),
        (1, &root, "/locked"),
        (2, &alice, "/full"),
    ];
    let stats = &k.dcache.stats;
    let fs_before = stats.readdir_fs.load(Ordering::Relaxed);
    // Served first, so `/partial` is still incomplete when it is asked.
    let reqs: Vec<Request<'_>> = cases
        .iter()
        .enumerate()
        .map(|(i, &(cred, _, path))| Request {
            id: i as u64,
            cred,
            body: ReqBody::Readdir { path },
        })
        .collect();
    let resps = client.call(&reqs);
    if completeness {
        assert_eq!(
            stats.readdir_fs.load(Ordering::Relaxed) - fs_before,
            1,
            "only the incomplete directory reaches the file system"
        );
    }
    for ((_, proc, path), resp) in cases.iter().zip(&resps) {
        let served = match (&resp.status, &resp.body) {
            (Status::Ok, RespBody::Readdir { entries }) => Ok(entries.iter().cloned().collect()),
            (Status::Ok, body) => panic!("{path}: readdir body expected, got {body:?}"),
            (status, _) => Err(*status),
        };
        assert_eq!(
            served,
            listed(&k, proc, path),
            "{path} as uid {}",
            proc.cred().uid
        );
    }
    assert!(matches!(resps[3].status, Status::Fs(FsError::NotDir)));
    assert!(matches!(resps[4].status, Status::Fs(FsError::NoEnt)));
    assert!(matches!(resps[5].status, Status::Fs(FsError::Access)));
    assert_eq!(resps[2].body, resps[1].body, "the link lists its target");

    if completeness {
        // The fallback's full pass completed `/partial`: the cache serves
        // it from now on.
        let cached = stats.readdir_cached.load(Ordering::Relaxed);
        let fs = stats.readdir_fs.load(Ordering::Relaxed);
        let again = k.readdir_path(&root, "/partial").unwrap();
        assert_eq!(names(&again), listed(&k, &root, "/partial").unwrap());
        assert_eq!(stats.readdir_fs.load(Ordering::Relaxed), fs);
        assert!(stats.readdir_cached.load(Ordering::Relaxed) > cached);
    }
}

#[test]
fn served_readdir_equals_list_dir_optimized() {
    served_equals_list_dir(DcacheConfig::optimized());
}

#[test]
fn served_readdir_equals_list_dir_baseline() {
    served_equals_list_dir(DcacheConfig::baseline());
}

#[test]
fn a_served_listing_is_the_published_block_until_the_directory_changes() {
    let k = tree(DcacheConfig::optimized());
    let p = k.init_process();
    k.mkdir(&p, "/other", 0o755).unwrap();
    touch(&k, &p, "/other/x");

    let first = k.readdir_path(&p, "/full").unwrap();
    assert!(
        Arc::ptr_eq(&first, &k.readdir_path(&p, "/full").unwrap()),
        "an unchanged directory hands out one block"
    );
    let kept = first.as_ref().clone();

    let changes: [(&str, &dyn Fn()); 5] = [
        ("create", &|| touch(&k, &p, "/full/new")),
        ("unlink", &|| k.unlink(&p, "/full/f0").unwrap()),
        ("rename within", &|| {
            k.rename(&p, "/full/f1", "/full/g1").unwrap()
        }),
        ("rename out", &|| {
            k.rename(&p, "/full/g1", "/other/g1").unwrap()
        }),
        ("rename in", &|| {
            k.rename(&p, "/other/x", "/full/x").unwrap()
        }),
    ];
    let mut previous = first.clone();
    for (what, change) in changes {
        change();
        let next = k.readdir_path(&p, "/full").unwrap();
        assert!(!Arc::ptr_eq(&previous, &next), "{what}: a new block");
        assert_eq!(names(&next), listed(&k, &p, "/full").unwrap(), "{what}");
        previous = next;
    }
    let now: BTreeSet<&str> = previous.iter().map(|e| e.name.as_str()).collect();
    let expect = ["f2", "f3", "f4", "f5", "new", "sub", "x"];
    assert_eq!(now, expect.into_iter().collect::<BTreeSet<_>>());
    assert_eq!(*first, kept, "a block handed out never changes");
}

/// Runs `body` on its own thread; a hang fails the test instead of
/// stalling the suite.
fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(limit) {
        panic!("still waiting after {limit:?}: a wakeup was lost");
    }
    worker.join().unwrap();
}

#[test]
fn frames_racing_idle_threads_are_always_served() {
    let k = tree(DcacheConfig::optimized());
    for workers in [1, 2] {
        let server = Server::start(
            k.clone(),
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
        );
        server.register_cred(1, k.init_process());
        let clients: Vec<Client> = (0..2).map(|_| Client::new(server.connect())).collect();
        // One frame in flight per client: every submit meets workers that
        // are idle or about to be, and every response a client that is
        // asleep or about to be.
        within(Duration::from_secs(60), move || {
            std::thread::scope(|s| {
                for client in &clients {
                    s.spawn(move || {
                        for id in 0..2_000 {
                            let resps = client.call(&[Request {
                                id,
                                cred: 1,
                                body: ReqBody::Stat { path: "/full/f1" },
                            }]);
                            assert_eq!(resps[0].status, Status::Ok);
                        }
                    });
                }
            });
        });
    }
}
