//! End-to-end server tests: protocol round-trips against a live
//! kernel, typed admission rejections with recovery, stream transport,
//! and the events↔stats↔exporter reconciliation for served traffic.

use dc_server::proto::{encode_request_frame, Op, ReqBody, Request, RespBody, Status};
use dc_server::{duplex_pair, Client, Server, ServerConfig, StreamClient};
use dc_vfs::{EventKind, Kernel, KernelBuilder, ObsConfig, OpenFlags};
use dcache_core::DcacheConfig;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn obs_kernel() -> Arc<Kernel> {
    KernelBuilder::new(DcacheConfig::optimized())
        .observability(ObsConfig::default())
        .build()
        .unwrap()
}

/// `/d{0..dirs}/f{0..files}` with one byte per file.
fn populate(k: &Arc<Kernel>, dirs: usize, files: usize) {
    let p = k.init_process();
    for d in 0..dirs {
        k.mkdir(&p, &format!("/d{d}"), 0o755).unwrap();
        for f in 0..files {
            let path = format!("/d{d}/f{f}");
            let fd = k.open(&p, &path, OpenFlags::create(), 0o644).unwrap();
            k.write_fd(&p, fd, b"x").unwrap();
            k.close(&p, fd).unwrap();
        }
    }
}

#[test]
fn batched_ops_round_trip_against_the_kernel() {
    let k = obs_kernel();
    populate(&k, 2, 4);
    let server = Server::start(k.clone(), ServerConfig::default());
    server.register_cred(1, k.init_process());
    let client = Client::new(server.connect());

    // One batch mixing every op, plus typed errors.
    let resps = client.call(&[
        Request {
            id: 10,
            cred: 1,
            body: ReqBody::Lookup {
                path: "/d0/f0",
                want_sig: true,
            },
        },
        Request {
            id: 11,
            cred: 1,
            body: ReqBody::Stat { path: "/d1/f3" },
        },
        Request {
            id: 12,
            cred: 1,
            body: ReqBody::Readdir { path: "/d0" },
        },
        Request {
            id: 13,
            cred: 1,
            body: ReqBody::Lookup {
                path: "/d0/missing",
                want_sig: false,
            },
        },
        Request {
            id: 14,
            cred: 9, // never registered
            body: ReqBody::Stat { path: "/d0/f0" },
        },
    ]);
    assert_eq!(resps.len(), 5);

    assert_eq!(resps[0].id, 10);
    assert_eq!(resps[0].status, Status::Ok);
    let RespBody::Lookup { ino, ftype, sig } = &resps[0].body else {
        panic!("lookup body expected, got {:?}", resps[0].body);
    };
    let expect = k.stat(&k.init_process(), "/d0/f0").unwrap();
    assert_eq!(*ino, expect.ino);
    assert_eq!(*ftype, expect.ftype.as_u8());
    let sig = sig.expect("want_sig was set and the fastpath is on");

    assert_eq!(resps[1].status, Status::Ok);
    let RespBody::Stat { attr } = &resps[1].body else {
        panic!("stat body expected");
    };
    let expect = k.stat(&k.init_process(), "/d1/f3").unwrap();
    assert_eq!(attr.ino, expect.ino);
    assert_eq!(attr.size, 1);
    assert_eq!(attr.mode, 0o644);

    assert_eq!(resps[2].status, Status::Ok);
    let RespBody::Readdir { entries } = &resps[2].body else {
        panic!("readdir body expected");
    };
    let mut names: Vec<&str> = entries.iter().map(|(_, _, n)| n.as_str()).collect();
    names.sort_unstable(); // readdir order is unspecified
    assert_eq!(names, ["f0", "f1", "f2", "f3"]);

    assert_eq!(resps[3].status, Status::Fs(dc_vfs::FsError::NoEnt));
    assert_eq!(resps[4].status, Status::BadCred);

    // The signature from the lookup serves a cache-only lookup.
    let resps = client.call(&[Request {
        id: 20,
        cred: 1,
        body: ReqBody::LookupSig { sig },
    }]);
    assert_eq!(resps[0].status, Status::Ok, "warm signature must hit");
    let RespBody::Lookup { ino, .. } = &resps[0].body else {
        panic!("lookup_sig body expected");
    };
    assert_eq!(*ino, k.stat(&k.init_process(), "/d0/f0").unwrap().ino);

    // After a cache drop the signature is not answerable: typed miss,
    // not an error and not a fallback walk.
    k.drop_caches();
    let resps = client.call(&[Request {
        id: 21,
        cred: 1,
        body: ReqBody::LookupSig { sig },
    }]);
    assert_eq!(resps[0].status, Status::SigMiss);
    assert_eq!(server.stats().sig_miss.load(Ordering::Relaxed), 1);
}

#[test]
fn unknown_ops_bad_versions_and_malformed_frames_are_typed() {
    let k = obs_kernel();
    populate(&k, 1, 1);
    let server = Server::start(k.clone(), ServerConfig::default());
    server.register_cred(1, k.init_process());
    let conn = server.connect();

    // Unknown op byte inside a well-formed frame: per-record BadOp.
    let mut frame = encode_request_frame(&[Request {
        id: 1,
        cred: 1,
        body: ReqBody::Stat { path: "/d0/f0" },
    }]);
    frame[4 + 8] = 9; // the op byte of the first record
    conn.send_frame(frame);
    let rf = dc_server::proto::decode_response_frame(&conn.recv_frame()).unwrap();
    assert_eq!(rf.frame_status, 0);
    assert_eq!(rf.records[0].status, Status::BadOp);

    // Unsupported version: empty frame with frame_status 34.
    let mut frame = encode_request_frame(&[Request {
        id: 2,
        cred: 1,
        body: ReqBody::Stat { path: "/d0/f0" },
    }]);
    frame[1] = 77;
    conn.send_frame(frame);
    let rf = dc_server::proto::decode_response_frame(&conn.recv_frame()).unwrap();
    assert_eq!(rf.frame_status, Status::BadVersion.code());
    assert!(rf.records.is_empty());

    // Garbage: frame_status 33.
    conn.send_frame(vec![0xFF, 0x00, 0x01]);
    let rf = dc_server::proto::decode_response_frame(&conn.recv_frame()).unwrap();
    assert_eq!(rf.frame_status, Status::BadRequest.code());
    assert_eq!(server.stats().bad_frames.load(Ordering::Relaxed), 2);
}

#[test]
fn memory_pressure_sheds_typed_reclaims_and_recovers() {
    let k = obs_kernel();
    populate(&k, 8, 64);
    let footprint = k.dcache.reclaimable_bytes();
    assert!(
        footprint > 0,
        "populated kernel must have reclaimable bytes"
    );

    // Budget well below the current footprint: the first admission
    // probe trips the gate.
    let server = Server::start(
        k.clone(),
        ServerConfig {
            workers: 1,
            mem_budget_bytes: Some(footprint / 2),
            ..ServerConfig::default()
        },
    );
    server.register_cred(1, k.init_process());
    let client = Client::new(server.connect());

    let reqs: Vec<Request<'_>> = (0..4)
        .map(|i| Request {
            id: i,
            cred: 1,
            body: ReqBody::Lookup {
                path: "/d0/f0",
                want_sig: false,
            },
        })
        .collect();

    // First frame: shed with a typed per-request Overloaded, and the
    // trip edge runs the shrinker inline.
    let resps = client.call(&reqs);
    assert!(resps.iter().all(|r| r.status == Status::Overloaded));
    assert_eq!(server.stats().rejected_frames.load(Ordering::Relaxed), 1);
    assert_eq!(server.stats().rejected_requests.load(Ordering::Relaxed), 4);
    let gate = server.gate().unwrap();
    assert_eq!(gate.trip_count(), 1);
    assert!(
        k.dcache.reclaimable_bytes() <= gate.low_water(),
        "trip edge must have reclaimed down to the low-water mark"
    );

    // The gate re-opens on the next probe: service recovers without
    // intervention, and the retried frame executes.
    let resps = client.call(&reqs);
    assert!(
        resps.iter().all(|r| r.status == Status::Ok),
        "post-reclaim retry must be admitted and served: {resps:?}"
    );
    assert!(!gate.is_tripped());
    assert_eq!(server.stats().batches.load(Ordering::Relaxed), 1);

    // Reconciliation: reject/batch/conn events match the counters.
    let obs = k.obs().obs().expect("observability is on");
    let stats = server.stats();
    assert_eq!(
        obs.event_count(EventKind::ServeReject),
        stats.rejected_frames.load(Ordering::Relaxed)
    );
    assert_eq!(
        obs.event_count(EventKind::ServeBatch),
        stats.batches.load(Ordering::Relaxed)
    );
    assert_eq!(
        obs.event_count(EventKind::ServeConn),
        stats.conns.load(Ordering::Relaxed)
    );
}

#[test]
fn queue_bound_sheds_when_no_workers_drain() {
    let k = obs_kernel();
    populate(&k, 1, 1);
    // One worker, depth 2: stall the worker with a first frame is racy,
    // so instead shut the server down — the drain path and subsequent
    // submits must reject, never hang or drop silently.
    let server = Server::start(
        k.clone(),
        ServerConfig {
            workers: 1,
            queue_depth: 2,
            ..ServerConfig::default()
        },
    );
    server.register_cred(1, k.init_process());
    let client = Client::new(server.connect());
    server.shutdown();
    let resps = client.call(&[Request {
        id: 1,
        cred: 1,
        body: ReqBody::Stat { path: "/d0/f0" },
    }]);
    assert_eq!(resps[0].status, Status::Overloaded);
}

#[test]
fn stream_transport_serves_frames_over_the_wire() {
    let k = obs_kernel();
    populate(&k, 1, 2);
    let server = Server::start(k.clone(), ServerConfig::default());
    server.register_cred(1, k.init_process());

    let (client_end, server_end) = duplex_pair();
    let pump = server.serve_stream(server_end);
    let mut client = StreamClient::new(client_end);

    for round in 0..3u64 {
        let resps = client
            .call(&[
                Request {
                    id: round * 2,
                    cred: 1,
                    body: ReqBody::Lookup {
                        path: "/d0/f1",
                        want_sig: false,
                    },
                },
                Request {
                    id: round * 2 + 1,
                    cred: 1,
                    body: ReqBody::Readdir { path: "/d0" },
                },
            ])
            .unwrap();
        assert_eq!(resps.len(), 2);
        assert!(resps.iter().all(|r| r.status == Status::Ok));
    }
    drop(client); // closes the stream; the pump sees EOF and exits
    pump.join().unwrap();
    assert_eq!(server.stats().requests.load(Ordering::Relaxed), 6);
}

#[test]
fn huge_readdir_is_rejected_typed_not_truncated() {
    let k = obs_kernel();
    let p = k.init_process();
    // Encoded readdir body is 2 + Σ(10 + name_len); 3500 entries with
    // 9-byte names is ~66.5 KB — past the u16 body_len, though both the
    // entry count and every name length are individually in bounds.
    k.mkdir(&p, "/big", 0o755).unwrap();
    for f in 0..3500 {
        let fd = k
            .open(&p, &format!("/big/file{f:05}"), OpenFlags::create(), 0o644)
            .unwrap();
        k.close(&p, fd).unwrap();
    }
    let server = Server::start(k.clone(), ServerConfig::default());
    server.register_cred(1, k.init_process());
    let client = Client::new(server.connect());
    let resps = client.call(&[
        Request {
            id: 1,
            cred: 1,
            body: ReqBody::Readdir { path: "/big" },
        },
        Request {
            id: 2,
            cred: 1,
            body: ReqBody::Stat { path: "/big" },
        },
    ]);
    // The oversized listing fails typed; its batch-mates still succeed
    // and the response frame stays decodable (no silent u16 wraparound).
    assert_eq!(resps[0].status, Status::TooBig);
    assert_eq!(resps[1].status, Status::Ok);
}

#[test]
fn oversized_response_frame_fails_typed_at_the_frame_level() {
    let k = obs_kernel();
    populate(&k, 1, 400);
    // A 4 KiB frame cap: each readdir of /d0 encodes to ~5.5 KB, well
    // under the u16 per-record bound but past the whole-frame cap.
    let server = Server::start(
        k.clone(),
        ServerConfig {
            max_frame_bytes: 4096,
            ..ServerConfig::default()
        },
    );
    server.register_cred(1, k.init_process());
    let client = Client::new(server.connect());
    let resps = client.call(&[Request {
        id: 1,
        cred: 1,
        body: ReqBody::Readdir { path: "/d0" },
    }]);
    assert_eq!(
        resps[0].status,
        Status::TooBig,
        "response past the frame cap must fail typed, not poison the stream"
    );
    assert_eq!(server.stats().resp_too_big.load(Ordering::Relaxed), 1);
    assert_eq!(
        k.metrics_snapshot().counter("serve", "resp_too_big"),
        Some(1)
    );

    // A small request on the same connection still succeeds: the
    // connection survives the rejection.
    let resps = client.call(&[Request {
        id: 2,
        cred: 1,
        body: ReqBody::Stat { path: "/d0/f0" },
    }]);
    assert_eq!(resps[0].status, Status::Ok);
}

#[test]
fn shutdown_racing_submits_never_strands_a_client() {
    let k = obs_kernel();
    populate(&k, 1, 1);
    for _ in 0..8 {
        let server = Arc::new(Server::start(
            k.clone(),
            ServerConfig {
                workers: 2,
                queue_depth: 4,
                ..ServerConfig::default()
            },
        ));
        server.register_cred(1, k.init_process());
        let clients: Vec<_> = (0..4)
            .map(|t| {
                let server = server.clone();
                std::thread::spawn(move || {
                    let client = Client::new(server.connect());
                    for i in 0..50 {
                        // Every call must come back — Ok before the
                        // shutdown, Overloaded after — never hang on a
                        // frame enqueued behind the drain.
                        let resps = client.call(&[Request {
                            id: t * 1000 + i,
                            cred: 1,
                            body: ReqBody::Stat { path: "/d0/f0" },
                        }]);
                        assert!(matches!(resps[0].status, Status::Ok | Status::Overloaded));
                    }
                })
            })
            .collect();
        server.shutdown();
        for c in clients {
            c.join().unwrap();
        }
    }
}

#[test]
fn serve_metrics_export_in_both_formats_and_reset_clears() {
    let k = obs_kernel();
    populate(&k, 1, 4);
    let server = Server::start(k.clone(), ServerConfig::default());
    server.register_cred(1, k.init_process());
    let client = Client::new(server.connect());
    for i in 0..8 {
        let resps = client.call(&[Request {
            id: i,
            cred: 1,
            body: ReqBody::Lookup {
                path: "/d0/f2",
                want_sig: false,
            },
        }]);
        assert_eq!(resps[0].status, Status::Ok);
    }

    // The registered source is exported: its section, under the names
    // that are its interface, and its per-worker histograms.
    let snap = k.metrics_snapshot();
    let serve = snap.sections.iter().find(|s| s.name == "serve").unwrap();
    let keys: Vec<&str> = serve.counters.iter().map(|(k, _)| k.as_str()).collect();
    #[rustfmt::skip]
    assert_eq!(keys, [
        "requests", "batches", "rejected_requests", "rejected_frames", "bad_frames",
        "resp_too_big", "errors", "conns", "op_lookup", "op_stat", "op_readdir",
        "op_lookup_sig", "sig_miss",
    ]);
    assert_eq!(snap.counter("serve", "requests"), Some(8));
    assert_eq!(snap.counter("serve", "op_lookup"), Some(8));
    assert_eq!(snap.hist("serve_lookup").unwrap().count, 8);
    for stage in ["decode_frame", "encode_frame", "batch_exec", "queue_wait"] {
        assert_eq!(snap.hist(&format!("serve_{stage}")).unwrap().count, 8);
    }
    assert!(
        snap.hist("serve_stat").is_none(),
        "no samples, no histogram"
    );
    assert!(snap.to_json().contains("\"serve_lookup\""));
    let text = snap.to_text();
    assert!(text.contains("[serve]"), "text export: {text}");
    assert!(text.contains("serve_lookup"), "text export: {text}");

    // Executed-request accounting: every op was a lookup.
    assert_eq!(server.stats().per_op[Op::Lookup].load(Ordering::Relaxed), 8);

    // reset_stats reaches the registered serve source.
    k.reset_stats();
    assert_eq!(server.stats().requests.load(Ordering::Relaxed), 0);
    assert_eq!(server.stats().batches.load(Ordering::Relaxed), 0);
    assert!(server.worker_hists().iter().all(|w| w.decode.count() == 0));
    let snap = k.metrics_snapshot();
    let serve = snap.sections.iter().find(|s| s.name == "serve").unwrap();
    assert!(serve.counters.iter().all(|(_, v)| *v == 0), "{serve:?}");
    assert!(snap.hist("serve_lookup").is_none());
}
