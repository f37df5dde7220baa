//! File-tree builders and manifests.

use dc_fault::SplitMix64;
use dc_fs::FsResult;
use dc_vfs::{Kernel, OpenFlags, Process};

/// What got built: directories and files by full path.
#[derive(Debug, Default, Clone)]
pub struct Manifest {
    /// Directory paths, parents before children.
    pub dirs: Vec<String>,
    /// Regular-file paths.
    pub files: Vec<String>,
}

impl Manifest {
    /// Total object count.
    pub fn len(&self) -> usize {
        self.dirs.len() + self.files.len()
    }

    /// True when nothing was built.
    pub fn is_empty(&self) -> bool {
        self.dirs.is_empty() && self.files.is_empty()
    }
}

/// Parameters for a source-tree-like hierarchy (the Linux-source shape
/// the paper's command-line workloads operate on: ~8-character names,
/// 3–4 components, mixed fanout).
#[derive(Debug, Clone, Copy)]
pub struct TreeSpec {
    /// Top-level directories.
    pub top_dirs: usize,
    /// Subdirectories per directory at each level.
    pub fanout: usize,
    /// Directory nesting depth below the top level.
    pub depth: usize,
    /// Files per leaf directory.
    pub files_per_dir: usize,
    /// RNG seed (names and extensions).
    pub seed: u64,
}

impl TreeSpec {
    /// Roughly `scale` files spread like a source tree.
    pub fn source_like(scale: usize) -> TreeSpec {
        // top · fanout^depth leaf dirs, files_per_dir files each.
        let files_per_dir = 12;
        let leaves_needed = scale.div_ceil(files_per_dir).max(1);
        let fanout = 4;
        let mut depth = 0;
        let mut top = leaves_needed;
        while top > 16 {
            top = top.div_ceil(fanout);
            depth += 1;
        }
        TreeSpec {
            top_dirs: top.max(1),
            fanout,
            depth,
            files_per_dir,
            seed: 0x7ee5,
        }
    }
}

const NAME_PARTS: &[&str] = &[
    "drivers", "kernel", "sched", "core", "net", "ipv4", "proto", "block", "crypto", "hash",
    "main", "utils", "string", "alloc", "table", "inode", "super", "async", "timer", "event",
];
const EXTS: &[&str] = &["c", "h", "rs", "o", "txt", "mk"];

fn gen_name(rng: &mut SplitMix64, i: usize) -> String {
    let a = NAME_PARTS[rng.below(NAME_PARTS.len() as u64) as usize];
    format!("{a}{i:03}")
}

/// Builds the hierarchy under `root` through the syscall API, so the
/// dcache observes realistic creation traffic. Returns the manifest.
pub fn build_tree(k: &Kernel, p: &Process, root: &str, spec: &TreeSpec) -> FsResult<Manifest> {
    let mut rng = SplitMix64::new(spec.seed);
    let mut m = Manifest::default();
    k.mkdir(p, root, 0o755)?;
    m.dirs.push(root.to_string());
    // Breadth-first directory creation.
    let mut level: Vec<String> = Vec::new();
    for i in 0..spec.top_dirs {
        let d = format!("{root}/{}", gen_name(&mut rng, i));
        k.mkdir(p, &d, 0o755)?;
        m.dirs.push(d.clone());
        level.push(d);
    }
    for _ in 0..spec.depth {
        let mut next = Vec::new();
        for dir in &level {
            for i in 0..spec.fanout {
                let d = format!("{dir}/{}", gen_name(&mut rng, i));
                k.mkdir(p, &d, 0o755)?;
                m.dirs.push(d.clone());
                next.push(d);
            }
        }
        level = next;
    }
    // Files in the leaf directories (and a few in interior ones).
    for dir in &level {
        for i in 0..spec.files_per_dir {
            let ext = EXTS[rng.below(EXTS.len() as u64) as usize];
            let f = format!("{dir}/{}.{ext}", gen_name(&mut rng, i));
            let fd = k.open(p, &f, OpenFlags::create(), 0o644)?;
            k.write_fd(p, fd, format!("content of {f}\n").as_bytes())?;
            k.close(p, fd)?;
            m.files.push(f);
        }
    }
    Ok(m)
}

/// Builds one flat directory with `n` files named `f000000…`; used by the
/// readdir/mkstemp/Apache experiments (Figures 9–10, Table 3).
pub fn build_flat_dir(k: &Kernel, p: &Process, dir: &str, n: usize) -> FsResult<Vec<String>> {
    k.mkdir(p, dir, 0o755)?;
    let mut files = Vec::with_capacity(n);
    for i in 0..n {
        let f = format!("{dir}/f{i:06}");
        let fd = k.open(p, &f, OpenFlags::create(), 0o644)?;
        k.close(p, fd)?;
        files.push(f);
    }
    Ok(files)
}

/// Builds a directory subtree of exactly `depth` levels with `total`
/// files spread evenly (the Figure 7 chmod/rename target shapes).
pub fn build_subtree(
    k: &Kernel,
    p: &Process,
    root: &str,
    depth: usize,
    total_files: usize,
) -> FsResult<Manifest> {
    let mut m = Manifest::default();
    k.mkdir(p, root, 0o755)?;
    m.dirs.push(root.to_string());
    // `width` dirs per level so capacity ≥ total_files at the leaves.
    let width = if depth == 0 {
        1
    } else {
        let mut w = 1usize;
        while w.pow(depth as u32) * 10 < total_files {
            w += 1;
        }
        w
    };
    let mut level = vec![root.to_string()];
    for d in 0..depth {
        let mut next = Vec::new();
        for dir in &level {
            for i in 0..width {
                let nd = format!("{dir}/d{d}{i:02}");
                k.mkdir(p, &nd, 0o755)?;
                m.dirs.push(nd.clone());
                next.push(nd);
            }
        }
        level = next;
    }
    let per_leaf = total_files.div_ceil(level.len());
    let mut created = 0;
    'outer: for dir in &level {
        for i in 0..per_leaf {
            if created >= total_files {
                break 'outer;
            }
            let f = format!("{dir}/file{i:04}");
            let fd = k.open(p, &f, OpenFlags::create(), 0o644)?;
            k.close(p, fd)?;
            m.files.push(f);
            created += 1;
        }
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_vfs::KernelBuilder;
    use dcache_core::DcacheConfig;

    fn kp() -> (std::sync::Arc<Kernel>, std::sync::Arc<Process>) {
        let k = KernelBuilder::new(DcacheConfig::optimized().with_seed(1))
            .build()
            .unwrap();
        let p = k.init_process();
        (k, p)
    }

    #[test]
    fn source_like_spec_scales() {
        let s = TreeSpec::source_like(1000);
        let leaves = s.top_dirs * s.fanout.pow(s.depth as u32);
        assert!(leaves * s.files_per_dir >= 1000);
    }

    #[test]
    fn build_tree_creates_everything() {
        let (k, p) = kp();
        let m = build_tree(&k, &p, "/src", &TreeSpec::source_like(200)).unwrap();
        assert!(m.files.len() >= 200);
        for f in m.files.iter().step_by(17) {
            assert!(k.stat(&p, f).is_ok(), "missing {f}");
        }
        for d in m.dirs.iter().step_by(7) {
            assert!(k.stat(&p, d).unwrap().ftype.is_dir());
        }
    }

    /// The generator swap of PR 17 (`rand`'s `gen_range(0..n)` to
    /// `SplitMix64::below(n)`) moved no name: this digest was taken with
    /// the old generator.
    #[test]
    fn the_tree_of_the_default_seed_is_pinned() {
        let (k, p) = kp();
        let m = build_tree(&k, &p, "/src", &TreeSpec::source_like(200)).unwrap();
        assert_eq!(
            crate::path_digest(m.dirs.iter().chain(&m.files)),
            14_113_989_021_181_278_266
        );
    }

    #[test]
    fn flat_dir_has_n_entries() {
        let (k, p) = kp();
        let files = build_flat_dir(&k, &p, "/flat", 150).unwrap();
        assert_eq!(files.len(), 150);
        assert_eq!(k.list_dir(&p, "/flat").unwrap().len(), 150);
    }

    #[test]
    fn subtree_shape_matches() {
        let (k, p) = kp();
        let m = build_subtree(&k, &p, "/sub", 2, 100).unwrap();
        assert_eq!(m.files.len(), 100);
        // All files are exactly `depth` levels below the root.
        for f in &m.files {
            assert_eq!(f.matches('/').count(), 4, "path {f}");
        }
        let _ = k;
    }
}
