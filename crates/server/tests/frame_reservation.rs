//! A decoder reserves only what a frame can hold.
//!
//! A frame's record count is a `u16` the peer chose. A decoder that
//! reserves `count` records up front lets four hostile bytes cost
//! megabytes: at the parent of the change that introduced this test,
//! the request frame `D5 01 FF FF` made the server allocate 2 097 120 B
//! before it answered `Malformed`, and the 6-byte response frame
//! `D6 01 00 00 FF FF` made the client allocate 4 718 520 B. Each
//! decoder now caps its reservation at the bytes left over the smallest
//! record (14 B a request, 12 B a response, 10 B a readdir entry), so
//! each frame below allocates under 1 KiB.
//!
//! No libtest harness (`harness = false`): the byte counter is
//! process-global, and libtest's threads allocate while a test runs.

use dc_server::proto::{decode_request_frame, decode_response_frame};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the bytes every allocation asks for (a `realloc` counts its
/// new size).
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes allocated while `f` runs.
fn allocated<T>(f: impl FnOnce() -> T) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    std::hint::black_box(f());
    BYTES.load(Ordering::Relaxed) - before
}

fn main() {
    // A readdir record (`Ok`, op 3) whose 2-byte body claims 65 535
    // entries.
    let mut readdir = vec![0xD6, 1, 0, 0, 1, 0];
    readdir.extend(7u64.to_le_bytes());
    readdir.extend([0, 3, 2, 0, 0xFF, 0xFF]);
    let frames: [(&str, &[u8], bool); 3] = [
        ("request frame", &[0xD5, 1, 0xFF, 0xFF], true),
        ("response frame", &[0xD6, 1, 0, 0, 0xFF, 0xFF], false),
        ("readdir body", &readdir, false),
    ];
    let mut over = Vec::new();
    for (what, frame, request) in frames {
        let bytes = if request {
            allocated(|| decode_request_frame(frame))
        } else {
            allocated(|| decode_response_frame(frame))
        };
        println!(
            "frame_reservation: {what} of {} B allocated {bytes} B",
            frame.len()
        );
        if bytes >= 1024 {
            over.push(format!("{what}: {bytes} B"));
        }
    }
    assert!(over.is_empty(), "hostile frames over 1 KiB: {over:?}");
    println!("frame_reservation: ok");
}
