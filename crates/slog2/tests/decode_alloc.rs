//! A hostile SLOG2 image must not make the decoder reserve far more
//! memory than the image itself: every element count in the header and
//! in a node is bounded by the bytes left to hold it before any `Vec`
//! is reserved for it.
//!
//! A counting global allocator records the largest single allocation
//! while each crafted image decodes. One `#[test]` runs every case in
//! sequence so no other test allocates alongside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mpelog::wire::Writer;
use slog2::Slog2File;

/// Forwards to the system allocator, recording the largest request.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the only
// addition is a relaxed atomic max, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller upholds `realloc`'s contract; `ptr` came
        // from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes of filler after the hostile count. `0xFF` decodes as a huge
/// string length or an unknown drawable kind, so the first element
/// fails and only the reservation before it can allocate much.
const FILLER: usize = 64 << 10;

/// The header up to (not including) the field the case makes hostile:
/// `empty_lists` zero-length lists after the range, then, for node
/// cases, a one-node directory and a node head.
fn prefix(empty_lists: usize, node_head: bool) -> Writer {
    let mut w = Writer::new();
    w.put_bytes(b"PSLOG2\x00\x01");
    w.put_u32(64);
    w.put_u32(16);
    w.put_f64(0.0);
    w.put_f64(1.0);
    for _ in 0..empty_lists {
        w.put_u32(0);
    }
    if node_head {
        w.put_u32(1); // one node
        w.put_u64(0); // its directory entry (unused by `from_bytes`)
        w.put_f64(0.0);
        w.put_f64(1.0);
        w.put_u32(0); // depth
        w.put_u8(0); // no children
    }
    w
}

/// `w` followed by a count equal to the bytes that follow it.
fn hostile(mut w: Writer) -> Vec<u8> {
    w.put_u32(FILLER as u32);
    let mut bytes = w.into_bytes();
    bytes.resize(bytes.len() + FILLER, 0xFF);
    bytes
}

#[test]
fn hostile_counts_are_rejected_without_large_reservations() {
    let cases = [
        ("timelines", hostile(prefix(0, false))),
        ("categories", hostile(prefix(1, false))),
        ("warnings", hostile(prefix(2, false))),
        ("node drawables", hostile(prefix(3, true))),
        ("node preview", {
            let mut w = prefix(3, true);
            w.put_u32(0); // no drawables
            hostile(w)
        }),
    ];
    for (field, image) in &cases {
        LARGEST.store(0, Ordering::Relaxed);
        let result = Slog2File::from_bytes(image);
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(result.is_err(), "{field}: hostile image decoded");
        assert!(
            largest <= 4 * image.len(),
            "{field}: largest allocation {largest} B for a {} B image",
            image.len()
        );
    }
}
