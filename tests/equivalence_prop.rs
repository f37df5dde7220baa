//! Property test: the optimized directory cache is observationally
//! equivalent to the baseline.
//!
//! Random syscall sequences run against two kernels — one with the
//! unmodified component-at-a-time walker, one with every optimization
//! enabled — and every operation must return the same outcome (same
//! errno, same visible metadata, same directory listings). This is the
//! paper's central compatibility claim (§4.4): the fastpath, negative
//! caching, and completeness machinery are pure performance features.

use dcache_repro::{DcacheConfig, Kernel, KernelBuilder, OpenFlags, Process};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Mkdir(String),
    Create(String),
    Write(String, usize),
    Unlink(String),
    Rmdir(String),
    Rename(String, String),
    Stat(String),
    Lstat(String),
    Access(String, u32),
    Chmod(String, u16),
    Symlink(String, String),
    Readlink(String),
    List(String),
    Chdir(String),
    Mkstemp(String),
}

fn component() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("alpha"),
        Just("beta"),
        Just("gamma"),
        Just("delta"),
        Just("x"),
        Just("."),
        Just(".."),
    ]
}

fn path() -> impl Strategy<Value = String> {
    (prop::bool::ANY, prop::collection::vec(component(), 1..4)).prop_map(|(abs, comps)| {
        let mut s = if abs { "/".to_string() } else { String::new() };
        s.push_str(&comps.join("/"));
        s
    })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        path().prop_map(Op::Mkdir),
        path().prop_map(Op::Create),
        (path(), 0usize..5000).prop_map(|(p, n)| Op::Write(p, n)),
        path().prop_map(Op::Unlink),
        path().prop_map(Op::Rmdir),
        (path(), path()).prop_map(|(a, b)| Op::Rename(a, b)),
        path().prop_map(Op::Stat),
        path().prop_map(Op::Lstat),
        (path(), 0u32..8).prop_map(|(p, m)| Op::Access(p, m)),
        (
            path(),
            prop_oneof![Just(0o700u16), Just(0o755), Just(0o000), Just(0o644)]
        )
            .prop_map(|(p, m)| Op::Chmod(p, m)),
        (path(), path()).prop_map(|(t, l)| Op::Symlink(t, l)),
        path().prop_map(Op::Readlink),
        path().prop_map(Op::List),
        path().prop_map(Op::Chdir),
        path().prop_map(Op::Mkstemp),
    ]
}

/// A comparable outcome of one operation.
fn apply(k: &Kernel, p: &Arc<Process>, op: &Op, tag: u64) -> String {
    match op {
        Op::Mkdir(path) => fmt_unit(k.mkdir(p, path, 0o755)),
        Op::Create(path) => match k.open(p, path, OpenFlags::create(), 0o644) {
            Ok(fd) => {
                k.close(p, fd).unwrap();
                "ok".into()
            }
            Err(e) => e.errno_name().into(),
        },
        Op::Write(path, n) => match k.open(p, path, OpenFlags::read_write(), 0) {
            Ok(fd) => {
                let data = vec![0xAB; *n];
                let r = k.write_fd(p, fd, &data);
                k.close(p, fd).unwrap();
                fmt_val(r)
            }
            Err(e) => e.errno_name().into(),
        },
        Op::Unlink(path) => fmt_unit(k.unlink(p, path)),
        Op::Rmdir(path) => fmt_unit(k.rmdir(p, path)),
        Op::Rename(a, b) => fmt_unit(k.rename(p, a, b)),
        Op::Stat(path) => match k.stat(p, path) {
            Ok(a) => format!("ok:{:?}:{:o}:{}:{}", a.ftype, a.mode, a.size, a.nlink),
            Err(e) => e.errno_name().into(),
        },
        Op::Lstat(path) => match k.lstat(p, path) {
            Ok(a) => format!("ok:{:?}:{:o}:{}", a.ftype, a.mode, a.size),
            Err(e) => e.errno_name().into(),
        },
        Op::Access(path, mask) => fmt_unit(k.access(p, path, *mask & 0x7)),
        Op::Chmod(path, mode) => fmt_unit(k.chmod(p, path, *mode)),
        Op::Symlink(t, l) => fmt_unit(k.symlink(p, t, l)),
        Op::Readlink(path) => fmt_val(k.readlink_path(p, path)),
        Op::List(path) => match k.list_dir(p, path) {
            Ok(mut entries) => {
                entries.sort_by(|a, b| a.name.cmp(&b.name));
                let names: Vec<String> = entries
                    .iter()
                    .map(|e| format!("{}:{:?}", e.name, e.ftype))
                    .collect();
                format!("ok:[{}]", names.join(","))
            }
            Err(e) => e.errno_name().into(),
        },
        Op::Chdir(path) => {
            let r = fmt_unit(k.chdir(p, path));
            format!("{r}:{}", k.getcwd(p))
        }
        Op::Mkstemp(path) => match k.mkstemp(p, path, &format!("t{tag}-")) {
            // Names are random per kernel; only success/failure compares.
            Ok((fd, _)) => {
                k.close(p, fd).unwrap();
                "ok".into()
            }
            Err(e) => e.errno_name().into(),
        },
    }
}

fn fmt_unit(r: Result<(), dcache_repro::fs::FsError>) -> String {
    match r {
        Ok(()) => "ok".into(),
        Err(e) => e.errno_name().into(),
    }
}

fn fmt_val<T: std::fmt::Debug>(r: Result<T, dcache_repro::fs::FsError>) -> String {
    match r {
        Ok(v) => format!("ok:{v:?}"),
        Err(e) => e.errno_name().into(),
    }
}

fn run_equivalence(ops: Vec<Op>) {
    let kb = KernelBuilder::new(DcacheConfig::baseline().with_seed(0xAAAA))
        .build()
        .unwrap();
    let ko = KernelBuilder::new(DcacheConfig::optimized().with_seed(0xBBBB))
        .build()
        .unwrap();
    let pb = kb.init_process();
    let po = ko.init_process();
    for (i, op) in ops.iter().enumerate() {
        let a = apply(&kb, &pb, op, i as u64);
        let b = apply(&ko, &po, op, i as u64);
        assert_eq!(
            a,
            b,
            "divergence at op {i} {op:?} (baseline vs optimized)\nhistory: {:?}",
            &ops[..=i]
        );
    }
    // Final full-tree comparison.
    let la = apply(&kb, &pb, &Op::List("/".into()), 0);
    let lb = apply(&ko, &po, &Op::List("/".into()), 0);
    assert_eq!(la, lb, "final root listings diverged");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 2000,
        ..ProptestConfig::default()
    })]

    #[test]
    fn optimized_cache_is_observationally_equivalent(
        ops in prop::collection::vec(op(), 1..60)
    ) {
        run_equivalence(ops);
    }
}

#[test]
fn equivalence_regression_rename_over_cached_subtree() {
    run_equivalence(vec![
        Op::Mkdir("/alpha".into()),
        Op::Mkdir("/alpha/beta".into()),
        Op::Create("/alpha/beta/x".into()),
        Op::Stat("/alpha/beta/x".into()),
        Op::Rename("/alpha".into(), "/gamma".into()),
        Op::Stat("/alpha/beta/x".into()),
        Op::Stat("/gamma/beta/x".into()),
        Op::List("/gamma/beta".into()),
    ]);
}

#[test]
fn equivalence_regression_unlink_recreate_symlink() {
    run_equivalence(vec![
        Op::Mkdir("/delta".into()),
        Op::Create("/delta/x".into()),
        Op::Symlink("/delta/x".into(), "/x".into()),
        Op::Stat("/x".into()),
        Op::Unlink("/delta/x".into()),
        Op::Stat("/x".into()),
        Op::Lstat("/x".into()),
        Op::Mkdir("/delta/x".into()),
        Op::Stat("/x".into()),
    ]);
}

#[test]
fn equivalence_regression_dotdot_and_chdir() {
    run_equivalence(vec![
        Op::Mkdir("/alpha".into()),
        Op::Mkdir("/alpha/beta".into()),
        Op::Chdir("/alpha/beta".into()),
        Op::Create("../x".into()),
        Op::Stat("../x".into()),
        Op::Stat("../../alpha/x".into()),
        Op::Chmod("/alpha".into(), 0o000),
        Op::Stat("x".into()),
        Op::Stat("/alpha/x".into()),
        Op::Chmod("/alpha".into(), 0o755),
        Op::Stat("/alpha/x".into()),
    ]);
}

#[test]
fn equivalence_regression_deep_negative_then_create() {
    run_equivalence(vec![
        Op::Stat("/alpha/beta/gamma".into()),
        Op::Stat("/alpha/beta/gamma".into()),
        Op::Mkdir("/alpha".into()),
        Op::Stat("/alpha/beta/gamma".into()),
        Op::Mkdir("/alpha/beta".into()),
        Op::Create("/alpha/beta/gamma".into()),
        Op::Stat("/alpha/beta/gamma".into()),
        Op::Stat("/alpha/beta/gamma/x".into()),
        Op::Unlink("/alpha/beta/gamma".into()),
        Op::Stat("/alpha/beta/gamma/x".into()),
    ]);
}

/// The ablation configurations must also be observationally equivalent
/// to the baseline — each paper feature is a pure optimization.
fn run_equivalence_against(config: DcacheConfig, ops: Vec<Op>) {
    let kb = KernelBuilder::new(DcacheConfig::baseline().with_seed(0xCCCC))
        .build()
        .unwrap();
    let ko = KernelBuilder::new(config.with_seed(0xDDDD))
        .build()
        .unwrap();
    let pb = kb.init_process();
    let po = ko.init_process();
    for (i, op) in ops.iter().enumerate() {
        let a = apply(&kb, &pb, op, i as u64);
        let b = apply(&ko, &po, op, i as u64);
        assert_eq!(a, b, "divergence at op {i} {op:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 1000,
        ..ProptestConfig::default()
    })]

    #[test]
    fn ablations_are_observationally_equivalent(
        ops in prop::collection::vec(op(), 1..40),
        which in 0usize..4
    ) {
        let config = match which {
            0 => DcacheConfig {
                dir_completeness: false,
                ..DcacheConfig::optimized()
            },
            1 => DcacheConfig {
                deep_negative: false,
                ..DcacheConfig::optimized()
            },
            2 => DcacheConfig {
                neg_on_unlink: false,
                ..DcacheConfig::optimized()
            },
            _ => DcacheConfig {
                fastpath: false,
                ..DcacheConfig::optimized()
            },
        };
        run_equivalence_against(config, ops);
    }

    /// Tiny caches (constant eviction pressure) stay equivalent too.
    #[test]
    fn capacity_pressure_is_observationally_equivalent(
        ops in prop::collection::vec(op(), 1..40)
    ) {
        run_equivalence_against(
            DcacheConfig::optimized().with_capacity(24),
            ops,
        );
    }

    /// A soft byte budget (auto-shrink on allocation pressure) must be
    /// invisible to every operation outcome.
    #[test]
    fn mem_budget_pressure_is_observationally_equivalent(
        ops in prop::collection::vec(op(), 1..40)
    ) {
        run_equivalence_against(
            DcacheConfig::optimized().with_mem_budget(64 * 1024),
            ops,
        );
    }

    /// Interleaving full memory-pressure shrinks (budget 0: evict every
    /// unpinned dentry, flush every PCC) between operations must be
    /// invisible too — the shrinker may cost performance, never answers.
    #[test]
    fn shrink_interleaving_is_observationally_equivalent(
        ops in prop::collection::vec(op(), 1..40),
        every in 1usize..4
    ) {
        let kb = KernelBuilder::new(DcacheConfig::baseline().with_seed(0xEEEE))
            .build()
            .unwrap();
        let ko = KernelBuilder::new(DcacheConfig::optimized().with_seed(0xFFFF))
            .build()
            .unwrap();
        let pb = kb.init_process();
        let po = ko.init_process();
        for (i, op) in ops.iter().enumerate() {
            let a = apply(&kb, &pb, op, i as u64);
            let b = apply(&ko, &po, op, i as u64);
            assert_eq!(a, b, "divergence at op {i} {op:?} with shrinks every {every}");
            if (i + 1) % every == 0 {
                ko.memory_pressure(0);
            }
        }
    }
}
