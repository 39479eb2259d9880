//! A hostile CLOG2 image must not make any reader reserve far more
//! memory than the image itself: every reservation for a counted item
//! is bounded by the bytes left to hold it, whatever count the header
//! or a block claims.
//!
//! A counting global allocator records the largest single allocation
//! while each crafted image goes through every reader. One `#[test]`
//! runs every case in sequence so no other test allocates alongside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mpelog::wire::Writer;
use mpelog::{Clog2Blocks, Clog2File};

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
/// string length, an unknown record kind or an oversized record count,
/// so the first item fails and only the reservation before it can
/// allocate much.
const FILLER: usize = 64 << 10;

/// The header up to (not including) the field the case makes hostile:
/// `empty_lists` zero-length lists after the world size, then, for the
/// record case, one block head for rank 0.
fn prefix(empty_lists: usize, block_head: bool) -> Writer {
    let mut w = Writer::new();
    w.put_bytes(b"PCLOG2\x00\x01");
    w.put_u32(1); // nranks
    for _ in 0..empty_lists {
        w.put_u32(0);
    }
    if block_head {
        w.put_u32(1); // one block
        w.put_u32(0); // for rank 0
    }
    w
}

/// `w` followed by a count equal to the bytes that follow it (within
/// the image length, so no reader rejects it as impossible up front).
fn hostile(mut w: Writer) -> Vec<u8> {
    w.put_u32(FILLER as u32);
    let mut bytes = w.into_bytes();
    bytes.resize(bytes.len() + FILLER, 0xFF);
    bytes
}

/// Every reader over `image`; each must reject it.
fn read_all(image: &[u8]) -> [bool; 5] {
    let streamed = Clog2Blocks::open(image).and_then(|mut blocks| {
        for item in &mut blocks {
            item?;
        }
        blocks.finish()
    });
    [
        Clog2File::from_bytes(image).is_err(),
        Clog2File::parse_image(image, 1).is_err(),
        Clog2File::salvage_bytes(image).truncated,
        Clog2File::salvage_image(image, 1).truncated,
        streamed.is_err(),
    ]
}

#[test]
fn hostile_counts_are_rejected_without_large_reservations() {
    let cases = [
        ("state defs", hostile(prefix(0, false))),
        ("event defs", hostile(prefix(1, false))),
        ("blocks", hostile(prefix(2, false))),
        ("records", hostile(prefix(2, true))),
    ];
    for (field, image) in &cases {
        LARGEST.store(0, Ordering::Relaxed);
        let rejected = read_all(image);
        let largest = LARGEST.load(Ordering::Relaxed);
        assert_eq!(rejected, [true; 5], "{field}: some reader accepted");
        assert!(
            largest <= 4 * image.len(),
            "{field}: largest allocation {largest} B for a {} B image",
            image.len()
        );
    }
}
