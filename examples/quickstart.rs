//! Quickstart: boot a kernel, do file-system work, inspect the cache.
//!
//! Run with `cargo run --example quickstart`.

use dcache_repro::{DcacheConfig, KernelBuilder, OpenFlags};

fn main() {
    // A kernel with every optimization from the paper enabled; swap in
    // `DcacheConfig::baseline()` for the unmodified-Linux behavior.
    let kernel = KernelBuilder::new(DcacheConfig::optimized())
        .build()
        .expect("kernel");
    let shell = kernel.init_process();

    // Build a little world through the syscall API.
    kernel.mkdir(&shell, "/home", 0o755).unwrap();
    kernel.mkdir(&shell, "/home/alice", 0o755).unwrap();
    let fd = kernel
        .open(&shell, "/home/alice/notes.txt", OpenFlags::create(), 0o644)
        .unwrap();
    kernel
        .write_fd(&shell, fd, b"remember to benchmark the dcache\n")
        .unwrap();
    kernel.close(&shell, fd).unwrap();
    kernel
        .symlink(&shell, "/home/alice/notes.txt", "/home/alice/todo")
        .unwrap();

    // Path-based syscalls: the first lookup walks component-at-a-time
    // and populates the direct-lookup structures; repeats take the
    // single-hash fastpath.
    for round in 1..=3 {
        let attr = kernel.stat(&shell, "/home/alice/notes.txt").unwrap();
        println!(
            "round {round}: notes.txt is {} bytes, mode {:o}",
            attr.size, attr.mode
        );
    }
    let via_link = kernel.stat(&shell, "/home/alice/todo").unwrap();
    println!("via symlink: {} bytes", via_link.size);

    // Negative caching: a repeated miss never reaches the file system.
    for _ in 0..3 {
        assert!(kernel.stat(&shell, "/home/alice/draft.txt").is_err());
    }

    // Relative paths resume hashing from the cwd dentry's stored state.
    kernel.chdir(&shell, "/home/alice").unwrap();
    println!("cwd = {}", kernel.getcwd(&shell));
    assert!(kernel.stat(&shell, "notes.txt").is_ok());

    // What did the cache do?
    println!("\n-- dcache counters --");
    for (name, value) in kernel.dcache.stats.counters() {
        if value > 0 {
            println!("{name:>22}: {value}");
        }
    }
    println!("\n-- space --\n{}", kernel.dcache.space_report());
}
