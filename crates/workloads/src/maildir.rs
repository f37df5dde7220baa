//! The Dovecot IMAP maildir workload (Figure 10).
//!
//! Maildir stores each mailbox as a directory and each message as a file
//! whose name encodes flags; marking a message renames its file and the
//! server re-reads the directory to sync its message list (§5.1). The
//! simulator issues exactly that syscall sequence: pick a random message,
//! `rename` it to toggle the Seen/Flagged flags, then `readdir` the
//! mailbox.

use dc_fault::SplitMix64;
use dc_vfs::{FsResult, Kernel, OpenFlags, Process};
use std::time::Instant;

/// A provisioned maildir store.
pub struct MaildirSim {
    root: String,
    boxes: Vec<String>,
    /// Message base names (flags excluded) per mailbox.
    messages: Vec<Vec<String>>,
    /// Current flag suffix per message.
    flags: Vec<Vec<&'static str>>,
    rng: SplitMix64,
}

const FLAG_STATES: [&str; 4] = ["", "S", "F", "FS"];

impl MaildirSim {
    /// Creates `nboxes` mailboxes of `msgs_per_box` messages each.
    pub fn provision(
        k: &Kernel,
        p: &Process,
        root: &str,
        nboxes: usize,
        msgs_per_box: usize,
        seed: u64,
    ) -> FsResult<MaildirSim> {
        k.mkdir(p, root, 0o755)?;
        let mut boxes = Vec::new();
        let mut messages = Vec::new();
        let mut flags = Vec::new();
        for b in 0..nboxes {
            let boxdir = format!("{root}/box{b:02}");
            k.mkdir(p, &boxdir, 0o755)?;
            for sub in ["cur", "new", "tmp"] {
                k.mkdir(p, &format!("{boxdir}/{sub}"), 0o755)?;
            }
            let mut msgs = Vec::with_capacity(msgs_per_box);
            let mut fl = Vec::with_capacity(msgs_per_box);
            for m in 0..msgs_per_box {
                let base = format!("{m:08}.m{b:02}.host");
                let path = format!("{boxdir}/cur/{base}:2,");
                let fd = k.open(p, &path, OpenFlags::create(), 0o600)?;
                k.write_fd(p, fd, b"Subject: hi\r\n\r\nbody")?;
                k.close(p, fd)?;
                msgs.push(base);
                fl.push(FLAG_STATES[0]);
            }
            boxes.push(boxdir);
            messages.push(msgs);
            flags.push(fl);
        }
        Ok(MaildirSim {
            root: root.to_string(),
            boxes,
            messages,
            flags,
            rng: SplitMix64::new(seed),
        })
    }

    /// The store's root path.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// One IMAP mark/unmark operation: rename the message file to its
    /// next flag state, then re-read the mailbox directory.
    pub fn mark_one(&mut self, k: &Kernel, p: &Process) -> FsResult<()> {
        let b = self.rng.below(self.boxes.len() as u64) as usize;
        let m = self.rng.below(self.messages[b].len() as u64) as usize;
        let cur_flags = self.flags[b][m];
        let next_idx =
            (FLAG_STATES.iter().position(|f| *f == cur_flags).unwrap() + 1) % FLAG_STATES.len();
        let next_flags = FLAG_STATES[next_idx];
        let base = &self.messages[b][m];
        let old = format!("{}/cur/{base}:2,{cur_flags}", self.boxes[b]);
        let new = format!("{}/cur/{base}:2,{next_flags}", self.boxes[b]);
        k.rename(p, &old, &new)?;
        self.flags[b][m] = next_flags;
        // The server syncs its view of the mailbox.
        let _ = k.list_dir(p, &format!("{}/cur", self.boxes[b]))?;
        Ok(())
    }

    /// Runs mark operations for roughly `duration_ms`; returns ops/sec.
    pub fn run(&mut self, k: &Kernel, p: &Process, duration_ms: u64) -> FsResult<f64> {
        let t0 = Instant::now();
        let budget = std::time::Duration::from_millis(duration_ms);
        let mut ops = 0u64;
        while t0.elapsed() < budget {
            for _ in 0..8 {
                self.mark_one(k, p)?;
            }
            ops += 8;
        }
        Ok(ops as f64 / t0.elapsed().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_vfs::KernelBuilder;
    use dcache_core::DcacheConfig;

    #[test]
    fn marking_preserves_message_count() {
        for config in [DcacheConfig::baseline(), DcacheConfig::optimized()] {
            let k = KernelBuilder::new(config.with_seed(12)).build().unwrap();
            let p = k.init_process();
            let mut sim = MaildirSim::provision(&k, &p, "/mail", 3, 25, 99).unwrap();
            for _ in 0..100 {
                sim.mark_one(&k, &p).unwrap();
            }
            for b in 0..3 {
                let entries = k.list_dir(&p, &format!("/mail/box{b:02}/cur")).unwrap();
                assert_eq!(entries.len(), 25, "box{b} lost messages");
            }
        }
    }

    /// Which message each mark picks is the seeded stream's choice; the
    /// digest was taken before `rand` gave way to `SplitMix64` (PR 17).
    #[test]
    fn the_marks_of_seed_99_are_pinned() {
        let k = KernelBuilder::new(DcacheConfig::optimized().with_seed(12))
            .build()
            .unwrap();
        let p = k.init_process();
        let mut sim = MaildirSim::provision(&k, &p, "/mail", 3, 25, 99).unwrap();
        for _ in 0..100 {
            sim.mark_one(&k, &p).unwrap();
        }
        let mut names = Vec::new();
        for b in 0..3 {
            let dir = format!("/mail/box{b:02}/cur");
            names.extend(k.list_dir(&p, &dir).unwrap().into_iter().map(|e| e.name));
        }
        names.sort();
        assert_eq!(crate::path_digest(&names), 587_813_720_436_405_635);
    }

    #[test]
    fn throughput_runner_reports_rate() {
        let k = KernelBuilder::new(DcacheConfig::optimized().with_seed(13))
            .build()
            .unwrap();
        let p = k.init_process();
        let mut sim = MaildirSim::provision(&k, &p, "/mail", 2, 10, 7).unwrap();
        let rate = sim.run(&k, &p, 50).unwrap();
        assert!(rate > 0.0);
    }
}
