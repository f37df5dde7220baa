//! Model-based property test: memfs against an in-memory reference model.
//!
//! Random sequences of file-system operations run against both the real
//! ext2-flavored implementation (serialized through the block device) and
//! a trivial HashMap model; observable outcomes must agree. A final
//! sync + remount replays the reads to check on-disk durability. Cases
//! come from `dc_fault::check`, which shrinks a failing op list.

use dc_blockdev::{CachedDisk, DiskConfig};
use dc_fault::{check, SplitMix64};
use dc_fs::{FileSystem, FileType, FsError, MemFs, MemFsConfig};
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Mkdir(u8, String),
    Create(u8, String),
    Symlink(u8, String, String),
    Unlink(u8, String),
    Rmdir(u8, String),
    Rename(u8, String, u8, String),
    Lookup(u8, String),
    Readdir(u8),
    Write(u8, String, usize),
    ReadBack(u8, String),
}

const NAMES: [&str; 5] = ["a", "bb", "ccc", "d-file", "e.txt"];

/// One op; the `u8` selects a directory slot out of a small pool the
/// runner keeps.
fn op(rng: &mut SplitMix64) -> Op {
    let mut slot = || rng.below(4) as u8;
    let (a, b) = (slot(), slot());
    let mut name = || NAMES[rng.below(NAMES.len() as u64) as usize].to_string();
    let (n, m) = (name(), name());
    match rng.below(10) {
        0 => Op::Mkdir(a, n),
        1 => Op::Create(a, n),
        2 => Op::Symlink(a, n, m),
        3 => Op::Unlink(a, n),
        4 => Op::Rmdir(a, n),
        5 => Op::Rename(a, n, b, m),
        6 => Op::Lookup(a, n),
        7 => Op::Readdir(a),
        8 => Op::Write(a, n, rng.below(9000) as usize),
        _ => Op::ReadBack(a, n),
    }
}

fn ops(rng: &mut SplitMix64) -> ((), Vec<Op>) {
    ((), (0..1 + rng.below(79)).map(|_| op(rng)).collect())
}

/// The reference model: directories as name → node maps.
#[derive(Debug, Clone, Default)]
struct ModelDir {
    entries: HashMap<String, ModelNode>,
}

#[derive(Debug, Clone)]
enum ModelNode {
    File(Vec<u8>),
    Dir(usize), // index into the dirs arena
    Link(String),
}

struct Model {
    dirs: Vec<ModelDir>,
}

impl Model {
    fn new() -> Model {
        Model {
            dirs: vec![ModelDir::default()],
        }
    }
}

fn errname<T>(r: &Result<T, FsError>) -> String {
    match r {
        Ok(_) => "ok".into(),
        Err(e) => e.errno_name().into(),
    }
}

fn run_model(ops: &[Op]) {
    let disk = Arc::new(CachedDisk::new(DiskConfig {
        capacity_blocks: 1 << 14,
        cache_pages: 256, // small: force writeback traffic
        ..Default::default()
    }));
    let fs = MemFs::mkfs(
        disk.clone(),
        MemFsConfig {
            max_inodes: 4096,
            ..Default::default()
        },
    )
    .unwrap();
    let mut model = Model::new();
    // Directory slots: model index ↔ real ino. Slot 0 is the root;
    // mkdirs append (up to the pool size the op generator addresses).
    let mut slots: Vec<(usize, u64)> = vec![(0, fs.root_ino())];

    for op in ops {
        match op {
            Op::Mkdir(d, n) => {
                let (mi, ri) = slots[*d as usize % slots.len()];
                let real = fs.mkdir(ri, n, 0o755, 0, 0);
                let model_has = model.dirs[mi].entries.contains_key(n);
                if model_has {
                    assert_eq!(errname(&real), "EEXIST", "mkdir over existing {n}");
                } else {
                    let attr = real.expect("model says mkdir should succeed");
                    assert_eq!(attr.ftype, FileType::Directory);
                    let new_idx = model.dirs.len();
                    model.dirs.push(ModelDir::default());
                    model.dirs[mi]
                        .entries
                        .insert(n.clone(), ModelNode::Dir(new_idx));
                    if slots.len() < 4 {
                        slots.push((new_idx, attr.ino));
                    }
                }
            }
            Op::Create(d, n) => {
                let (mi, ri) = slots[*d as usize % slots.len()];
                let real = fs.create(ri, n, 0o644, 0, 0);
                if model.dirs[mi].entries.contains_key(n) {
                    assert_eq!(errname(&real), "EEXIST");
                } else {
                    real.expect("create should succeed");
                    model.dirs[mi]
                        .entries
                        .insert(n.clone(), ModelNode::File(Vec::new()));
                }
            }
            Op::Symlink(d, n, t) => {
                let (mi, ri) = slots[*d as usize % slots.len()];
                let real = fs.symlink(ri, n, t, 0, 0);
                if model.dirs[mi].entries.contains_key(n) {
                    assert_eq!(errname(&real), "EEXIST");
                } else {
                    real.expect("symlink should succeed");
                    model.dirs[mi]
                        .entries
                        .insert(n.clone(), ModelNode::Link(t.clone()));
                }
            }
            Op::Unlink(d, n) => {
                let (mi, ri) = slots[*d as usize % slots.len()];
                let real = fs.unlink(ri, n);
                match model.dirs[mi].entries.get(n) {
                    None => assert_eq!(errname(&real), "ENOENT"),
                    Some(ModelNode::Dir(_)) => assert_eq!(errname(&real), "EISDIR"),
                    Some(_) => {
                        real.expect("unlink should succeed");
                        model.dirs[mi].entries.remove(n);
                    }
                }
            }
            Op::Rmdir(d, n) => {
                let (mi, ri) = slots[*d as usize % slots.len()];
                let real = fs.rmdir(ri, n);
                match model.dirs[mi].entries.get(n) {
                    None => assert_eq!(errname(&real), "ENOENT"),
                    Some(ModelNode::Dir(idx)) => {
                        let idx = *idx;
                        if model.dirs[idx].entries.is_empty() {
                            // Keep slot-addressed directories alive so the
                            // slot table never dangles.
                            if slots.iter().any(|(m, _)| *m == idx) {
                                assert_eq!(errname(&real), "ok");
                                model.dirs[mi].entries.remove(n);
                                // Drop the slot too: replace with root.
                                for s in slots.iter_mut() {
                                    if s.0 == idx {
                                        *s = (0, fs.root_ino());
                                    }
                                }
                            } else {
                                assert_eq!(errname(&real), "ok");
                                model.dirs[mi].entries.remove(n);
                            }
                        } else {
                            assert_eq!(errname(&real), "ENOTEMPTY");
                        }
                    }
                    Some(_) => assert_eq!(errname(&real), "ENOTDIR"),
                }
            }
            Op::Rename(da, n, db, m) => {
                let (mia, ria) = slots[*da as usize % slots.len()];
                let (mib, rib) = slots[*db as usize % slots.len()];
                let real = fs.rename(ria, n, rib, m);
                // Mirror POSIX rename in the model, conservatively: only
                // reproduce the cases the model can decide, and otherwise
                // just require agreement on success/failure by replaying
                // the precondition logic.
                let src = model.dirs[mia].entries.get(n).cloned();
                match src {
                    None => assert_eq!(errname(&real), "ENOENT"),
                    Some(src_node) => {
                        if mia == mib && n == m {
                            assert_eq!(errname(&real), "ok");
                            continue;
                        }
                        // Renaming a slot-addressed directory would leave
                        // dangling slots; the generator's 5-name alphabet
                        // makes this rare — skip model verification but
                        // require the fs not to corrupt itself.
                        let dst = model.dirs[mib].entries.get(m).cloned();
                        let ok = match (&src_node, &dst) {
                            (_, None) => true,
                            (ModelNode::Dir(_), Some(ModelNode::Dir(di))) => {
                                model.dirs[*di].entries.is_empty()
                            }
                            (ModelNode::Dir(_), Some(_)) => false,
                            (_, Some(ModelNode::Dir(_))) => false,
                            (_, Some(_)) => true,
                        };
                        // Directory cycle corner (rename dir into itself)
                        // can't occur: slots only go downward from root
                        // and the generator uses distinct slots. Apply.
                        if ok {
                            assert_eq!(errname(&real), "ok", "rename {n}->{m}");
                            if let Some(ModelNode::Dir(di)) = dst {
                                // Replaced empty dir: fix any slots.
                                for s in slots.iter_mut() {
                                    if s.0 == di {
                                        *s = (0, fs.root_ino());
                                    }
                                }
                            }
                            model.dirs[mia].entries.remove(n);
                            model.dirs[mib].entries.insert(m.clone(), src_node);
                        } else {
                            assert!(real.is_err(), "model expected rename failure");
                        }
                    }
                }
            }
            Op::Lookup(d, n) => {
                let (mi, ri) = slots[*d as usize % slots.len()];
                let real = fs.lookup(ri, n);
                match model.dirs[mi].entries.get(n) {
                    None => assert_eq!(errname(&real), "ENOENT"),
                    Some(node) => {
                        let attr = real.expect("lookup should find");
                        let want = match node {
                            ModelNode::File(_) => FileType::Regular,
                            ModelNode::Dir(_) => FileType::Directory,
                            ModelNode::Link(target) => {
                                assert_eq!(&fs.readlink(attr.ino).unwrap(), target);
                                FileType::Symlink
                            }
                        };
                        assert_eq!(attr.ftype, want);
                    }
                }
            }
            Op::Readdir(d) => {
                let (mi, ri) = slots[*d as usize % slots.len()];
                let mut out = Vec::new();
                let mut cursor = 0u64;
                while let Some(c) = fs.readdir(ri, cursor, 7, &mut out).unwrap() {
                    cursor = c;
                }
                let mut got: Vec<String> = out.into_iter().map(|e| e.name).collect();
                got.sort();
                let mut want: Vec<String> = model.dirs[mi].entries.keys().cloned().collect();
                want.sort();
                assert_eq!(got, want, "readdir mismatch in slot {d}");
            }
            Op::Write(d, n, len) => {
                let (mi, ri) = slots[*d as usize % slots.len()];
                if let Some(ModelNode::File(content)) = model.dirs[mi].entries.get_mut(n) {
                    let attr = fs.lookup(ri, n).expect("model has the file");
                    let data: Vec<u8> = (0..*len).map(|i| (i % 251) as u8).collect();
                    fs.write(attr.ino, 0, &data).expect("write");
                    if content.len() < data.len() {
                        content.resize(data.len(), 0);
                    }
                    content[..data.len()].copy_from_slice(&data);
                }
            }
            Op::ReadBack(d, n) => {
                let (mi, ri) = slots[*d as usize % slots.len()];
                if let Some(ModelNode::File(content)) = model.dirs[mi].entries.get(n) {
                    let attr = fs.lookup(ri, n).expect("model has the file");
                    assert_eq!(attr.size as usize, content.len());
                    let data = fs.read(attr.ino, 0, content.len().max(1)).unwrap();
                    assert_eq!(&data[..], &content[..]);
                }
            }
        }
    }

    // Durability: remount and re-verify the root listing.
    fs.sync().unwrap();
    let mut want: Vec<String> = model.dirs[0].entries.keys().cloned().collect();
    want.sort();
    drop(fs);
    disk.drop_caches();
    let fs2 = MemFs::mount(disk).unwrap();
    let mut out = Vec::new();
    let mut cursor = 0u64;
    while let Some(c) = fs2.readdir(fs2.root_ino(), cursor, 16, &mut out).unwrap() {
        cursor = c;
    }
    let mut got: Vec<String> = out.into_iter().map(|e| e.name).collect();
    got.sort();
    assert_eq!(got, want, "root listing diverged after remount");
}

#[test]
fn memfs_matches_reference_model() {
    check(0..600, ops, |_, ops| run_model(ops));
}

#[test]
#[ignore = "soak: 100x the Tier-1 cases, for the nightly lane"]
fn memfs_matches_reference_model_soak() {
    check(600..60_000, ops, |_, ops| run_model(ops));
}

#[test]
fn memfs_model_regression_rename_cases() {
    run_model(&[
        Op::Mkdir(0, "a".into()),
        Op::Create(0, "bb".into()),
        Op::Rename(0, "bb".into(), 1, "bb".into()),
        Op::Readdir(0),
        Op::Readdir(1),
        Op::Rename(1, "bb".into(), 0, "a".into()),
        Op::Lookup(0, "a".into()),
    ]);
}
