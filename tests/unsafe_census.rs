//! The `unsafe` census of the lock-free read path's own crates,
//! `crates/core` and `crates/rcu`: every site states the invariant that
//! makes it sound, where a reader of the site sees it.
//!
//! - An `unsafe` block or `unsafe impl` carries a `// SAFETY:` line in
//!   the comments directly above it, or at the end of its own line.
//! - An `unsafe fn` carries a `# Safety` section in its docs: the
//!   contract its callers keep.
//!
//! Miri cannot run the workspace here, so this grep is the check.

use std::path::{Path, PathBuf};

const CRATES: [&str; 2] = ["crates/core/src", "crates/rcu/src"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// A line's code: what precedes its comment, if any.
fn code(line: &str) -> &str {
    line.split("//").next().unwrap_or("")
}

fn is_site(line: &str) -> bool {
    code(line)
        .split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|word| word == "unsafe")
}

/// True if the site on `lines[i]` states its invariant.
fn justified(lines: &[&str], i: usize) -> bool {
    if lines[i].contains("// SAFETY:") {
        return true;
    }
    let unsafe_fn = code(lines[i]).contains("unsafe fn");
    for above in lines[..i].iter().rev().map(|l| l.trim()) {
        if !above.starts_with("//") && !above.starts_with("#[") {
            return false;
        }
        if above.starts_with("// SAFETY:") || (unsafe_fn && above == "/// # Safety") {
            return true;
        }
    }
    false
}

#[test]
fn every_unsafe_site_states_its_invariant() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    for krate in CRATES {
        let mut files = Vec::new();
        rust_files(&root.join(krate), &mut files);
        files.sort();
        let mut sites = 0;
        for file in files {
            let text = std::fs::read_to_string(&file).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                if is_site(line) {
                    sites += 1;
                    if !justified(&lines, i) {
                        let at = file.strip_prefix(root).unwrap().display();
                        missing.push(format!("{at}:{}: {}", i + 1, line.trim()));
                    }
                }
            }
        }
        println!("{krate}: {sites} unsafe sites");
        assert!(
            sites > 0,
            "{krate}: no unsafe site found, is the path right?"
        );
    }
    assert!(
        missing.is_empty(),
        "unsafe sites without a `// SAFETY:` line (or, on an `unsafe fn`, \
         a `# Safety` doc section):\n{}",
        missing.join("\n")
    );
}
