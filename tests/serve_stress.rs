//! Server-side analogue of `tests/lockfree_stress.rs`: eight clients
//! issue batched lookups (by path and by signature) through the
//! metadata server while kernel-side writers rename a directory back
//! and forth and flip permission bits. Every response must be a
//! coherent snapshot:
//!
//! - stable paths always resolve, with the inode the tree actually
//!   holds;
//! - signature-keyed lookups on stable paths either hit with the right
//!   inode or return a typed `SigMiss` (cache churn) — never a stale
//!   positive, never a negative;
//! - observed modes are always values some writer actually published;
//! - in a quiescent window (no rename completed around the call),
//!   exactly one of the flip/gone names resolves;
//! - afterwards the batch/pin/retry accounting reconciles with the
//!   trace events, batch pins included.

use dc_server::proto::{ReqBody, Request, RespBody, Status};
use dc_server::{Client, Server, ServerConfig};
use dc_vfs::{EventKind, ObsConfig};
use dcache_repro::fs::FsError;
use dcache_repro::{DcacheConfig, Kernel, KernelBuilder, OpenFlags, Process};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const MODES: [u16; 2] = [0o644, 0o600];

fn touch(k: &Kernel, p: &Arc<Process>, path: &str) {
    let fd = k.open(p, path, OpenFlags::create(), 0o644).unwrap();
    k.close(p, fd).unwrap();
}

fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

#[test]
fn served_batches_race_structural_writers() {
    let k = KernelBuilder::new(DcacheConfig::optimized().with_seed(77))
        .observability(ObsConfig {
            ring_capacity: 1024,
        })
        .build()
        .unwrap();
    let p = k.init_process();

    k.mkdir(&p, "/s", 0o755).unwrap();
    k.mkdir(&p, "/s/stable", 0o755).unwrap();
    k.mkdir(&p, "/s/flip", 0o755).unwrap();
    k.mkdir(&p, "/s/perm", 0o755).unwrap();
    for i in 0..8 {
        touch(&k, &p, &format!("/s/stable/f{i}"));
        touch(&k, &p, &format!("/s/flip/f{i}"));
        touch(&k, &p, &format!("/s/perm/f{i}"));
    }

    let server = Server::start(k.clone(), ServerConfig::default());
    server.register_cred(1, p.clone());

    // Warm signatures and expected inodes for the stable files.
    let warm = Client::new(server.connect());
    let stable_paths: Vec<String> = (0..8).map(|i| format!("/s/stable/f{i}")).collect();
    let reqs: Vec<Request<'_>> = stable_paths
        .iter()
        .enumerate()
        .map(|(i, path)| Request {
            id: i as u64,
            cred: 1,
            body: ReqBody::Lookup {
                path,
                want_sig: true,
            },
        })
        .collect();
    let mut stable_sig = Vec::new();
    let mut stable_ino = Vec::new();
    for r in warm.call(&reqs) {
        let RespBody::Lookup {
            ino,
            sig: Some(sig),
            ..
        } = r.body
        else {
            panic!("warmup failed: {r:?}");
        };
        stable_sig.push(sig);
        stable_ino.push(ino);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let stale = Arc::new(AtomicU64::new(0));
    let flips = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // Writer 1: renames /s/flip <-> /s/gone via the syscall surface.
        {
            let k = k.clone();
            let p = k.spawn(&p);
            let stop = stop.clone();
            let flips = flips.clone();
            s.spawn(move || {
                let mut to_gone = true;
                while !stop.load(Ordering::Relaxed) {
                    let (from, to) = if to_gone {
                        ("/s/flip", "/s/gone")
                    } else {
                        ("/s/gone", "/s/flip")
                    };
                    k.rename(&p, from, to).unwrap();
                    flips.fetch_add(1, Ordering::SeqCst);
                    to_gone = !to_gone;
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                if !to_gone {
                    k.rename(&p, "/s/gone", "/s/flip").unwrap();
                    flips.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        // Writer 2: flips modes on the /s/perm files.
        {
            let k = k.clone();
            let p = k.spawn(&p);
            let stop = stop.clone();
            s.spawn(move || {
                let mut r = 0xfeed_beefu64;
                let mut round = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let i = next(&mut r) % 8;
                    k.chmod(&p, &format!("/s/perm/f{i}"), MODES[round % 2])
                        .unwrap();
                    round += 1;
                }
                for i in 0..8 {
                    k.chmod(&p, &format!("/s/perm/f{i}"), MODES[0]).unwrap();
                }
            });
        }
        // 8 server clients, each on its own connection, issuing batches.
        for t in 0..8u64 {
            let client = Client::new(server.connect());
            let stop = stop.clone();
            let stale = stale.clone();
            let flips = flips.clone();
            let stable_paths = &stable_paths;
            let stable_sig = &stable_sig;
            let stable_ino = &stable_ino;
            s.spawn(move || {
                let mut r = 0x9e37_79b9 ^ (t + 1);
                while !stop.load(Ordering::Relaxed) {
                    // A mixed batch over the stable/perm subtrees.
                    let i = (next(&mut r) % 8) as usize;
                    let j = (next(&mut r) % 8) as usize;
                    let perm = format!("/s/perm/f{}", next(&mut r) % 8);
                    let batch = [
                        Request {
                            id: 0,
                            cred: 1,
                            body: ReqBody::Lookup {
                                path: &stable_paths[i],
                                want_sig: false,
                            },
                        },
                        Request {
                            id: 1,
                            cred: 1,
                            body: ReqBody::LookupSig { sig: stable_sig[j] },
                        },
                        Request {
                            id: 2,
                            cred: 1,
                            body: ReqBody::Stat { path: &perm },
                        },
                        Request {
                            id: 3,
                            cred: 1,
                            body: ReqBody::Readdir { path: "/s/stable" },
                        },
                        Request {
                            id: 4,
                            cred: 1,
                            body: ReqBody::Lookup {
                                path: "/s/never/f0",
                                want_sig: false,
                            },
                        },
                    ];
                    let resps = client.call(&batch);

                    // Stable path: must resolve to the known inode.
                    match (&resps[0].status, &resps[0].body) {
                        (Status::Ok, RespBody::Lookup { ino, .. }) if *ino == stable_ino[i] => {}
                        _ => {
                            stale.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Stable signature: hit with the right inode, or a
                    // typed miss under churn — never negative or stale.
                    match (&resps[1].status, &resps[1].body) {
                        (Status::Ok, RespBody::Lookup { ino, .. }) if *ino == stable_ino[j] => {}
                        (Status::SigMiss, _) => {}
                        _ => {
                            stale.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Modes are always published values.
                    match (&resps[2].status, &resps[2].body) {
                        (Status::Ok, RespBody::Stat { attr }) if MODES.contains(&attr.mode) => {}
                        _ => {
                            stale.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Readdir of the stable dir is complete.
                    match (&resps[3].status, &resps[3].body) {
                        (Status::Ok, RespBody::Readdir { entries })
                            if entries
                                .iter()
                                .filter(|(_, _, n)| n.starts_with('f'))
                                .count()
                                == 8 => {}
                        _ => {
                            stale.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // A path that never existed never resolves.
                    if resps[4].status != Status::Fs(FsError::NoEnt) {
                        stale.fetch_add(1, Ordering::Relaxed);
                    }

                    // Quiescent-window judging of the renamed pair.
                    let before = flips.load(Ordering::SeqCst);
                    let pair = client.call(&[
                        Request {
                            id: 10,
                            cred: 1,
                            body: ReqBody::Lookup {
                                path: "/s/flip/f0",
                                want_sig: false,
                            },
                        },
                        Request {
                            id: 11,
                            cred: 1,
                            body: ReqBody::Lookup {
                                path: "/s/gone/f0",
                                want_sig: false,
                            },
                        },
                    ]);
                    let after = flips.load(Ordering::SeqCst);
                    let at_flip = pair[0].status == Status::Ok;
                    let at_gone = pair[1].status == Status::Ok;
                    if before == after && at_flip == at_gone {
                        stale.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(400));
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(
        stale.load(Ordering::Relaxed),
        0,
        "stale or incoherent served snapshots observed under race"
    );
    assert!(
        flips.load(Ordering::SeqCst) > 0,
        "renamer never completed a flip; the race is vacuous"
    );

    // Final state is fully visible through the server.
    let client = Client::new(server.connect());
    for i in 0..8 {
        let resps = client.call(&[Request {
            id: i,
            cred: 1,
            body: ReqBody::Stat {
                path: &format!("/s/perm/f{i}"),
            },
        }]);
        let RespBody::Stat { attr } = &resps[0].body else {
            panic!("final stat failed: {resps:?}");
        };
        assert_eq!(attr.mode, MODES[0], "final chmod lost on /s/perm/f{i}");
    }

    // Accounting reconciles under served concurrency: the batch pin
    // collapses nested per-lookup pins, and both the stat and the
    // event are bumped only at the outermost pin.
    let obs = k.obs().obs().expect("recorder is enabled");
    let st = |c: &dcache_core::Counter| c.load(Ordering::Relaxed);
    let stats = &k.dcache.stats;
    assert_eq!(obs.event_count(EventKind::EpochPin), st(&stats.epoch_pins));
    assert_eq!(
        obs.event_count(EventKind::ReadRetry),
        st(&stats.read_retries)
    );
    assert_eq!(
        obs.event_count(EventKind::SeqRetry),
        st(&stats.slow_retries)
    );
    assert_eq!(obs.event_count(EventKind::LookupStart), st(&stats.lookups));
    assert_eq!(
        obs.event_count(EventKind::ServeBatch),
        server.stats().batches.load(Ordering::Relaxed)
    );
    assert_eq!(
        obs.event_count(EventKind::ServeConn),
        server.stats().conns.load(Ordering::Relaxed)
    );
    assert_eq!(obs.event_count(EventKind::ServeReject), 0);
}
