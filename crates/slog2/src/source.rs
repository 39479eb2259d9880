//! Where conversion input comes from: the [`TraceSource`] seam.
//!
//! [`TraceSource`] names the input shapes, so one converter front end
//! drives them all — for the in-memory `Converter::convert` and the
//! out-of-core `Converter::convert_to_path` alike:
//!
//! * [`TraceSource::InMemory`] — an already-decoded log.
//! * [`TraceSource::Bytes`] — a CLOG2 byte image; records are scanned
//!   in place (borrowed text, no per-record allocation).
//! * [`TraceSource::Mmap`] — a memory-mapped file, same zero-copy scan
//!   as `Bytes` without reading the file into the heap first.
//! * [`TraceSource::Reader`] — a byte stream decoded one block at a
//!   time (bounded memory for the scan phase).

use std::io::Read;
use std::path::Path;

use mpelog::Clog2File;

/// A source of CLOG2 trace data for [`Converter::convert`].
///
/// [`Converter::convert`]: crate::convert::Converter::convert
pub enum TraceSource<'a> {
    /// An already-decoded log.
    InMemory(&'a Clog2File),
    /// A raw CLOG2 byte image, scanned zero-copy.
    Bytes(&'a [u8]),
    /// A streaming byte source, decoded block by block.
    Reader(Box<dyn Read + 'a>),
    /// A memory-mapped CLOG2 file, scanned zero-copy.
    Mmap(Mmap),
}

impl<'a> TraceSource<'a> {
    /// Memory-map `path` as a trace source.
    pub fn mmap(path: &Path) -> std::io::Result<TraceSource<'static>> {
        Ok(TraceSource::Mmap(Mmap::open(path)?))
    }

    /// Wrap any reader as a streaming source.
    pub fn reader(r: impl Read + 'a) -> TraceSource<'a> {
        TraceSource::Reader(Box::new(r))
    }
}

impl std::fmt::Debug for TraceSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSource::InMemory(c) => write!(f, "TraceSource::InMemory({} ranks)", c.nranks),
            TraceSource::Bytes(b) => write!(f, "TraceSource::Bytes({} bytes)", b.len()),
            TraceSource::Reader(_) => write!(f, "TraceSource::Reader(..)"),
            TraceSource::Mmap(m) => write!(f, "TraceSource::Mmap({} bytes)", m.len()),
        }
    }
}

/// A read-only memory-mapped file.
///
/// On unix this binds `mmap(2)`/`munmap(2)` directly — one extern
/// declaration keeps the build dependency-free (the same approach
/// `pilotd` takes for `signal(2)`). Elsewhere it degrades to reading
/// the file into a heap buffer, so every platform still converts; only
/// the zero-copy property is unix-specific.
pub struct Mmap {
    #[cfg(unix)]
    ptr: *mut std::ffi::c_void,
    #[cfg(unix)]
    len: usize,
    #[cfg(not(unix))]
    buf: Vec<u8>,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never mutated or
// remapped after construction; sharing &Mmap across threads only ever
// reads the bytes.
#[cfg(unix)]
unsafe impl Send for Mmap {}
#[cfg(unix)]
unsafe impl Sync for Mmap {}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

impl Mmap {
    /// Map `path` read-only.
    #[cfg(unix)]
    pub fn open(path: &Path) -> std::io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        let f = std::fs::File::open(path)?;
        let len = f.metadata()?.len() as usize;
        if len == 0 {
            // mmap(2) rejects zero-length mappings; an empty file is an
            // empty slice.
            return Ok(Mmap {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        // SAFETY: fd is a freshly-opened readable file, len matches its
        // size, and we request a fresh private read-only mapping.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                f.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mmap { ptr, len })
    }

    /// Read `path` into a heap buffer (non-unix fallback).
    #[cfg(not(unix))]
    pub fn open(path: &Path) -> std::io::Result<Mmap> {
        Ok(Mmap {
            buf: std::fs::read(path)?,
        })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        #[cfg(unix)]
        {
            if self.ptr.is_null() {
                return &[];
            }
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self; the mapping outlives the returned borrow.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
        #[cfg(not(unix))]
        {
            &self.buf
        }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Is the mapping empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: ptr/len came from a successful mmap and are
            // unmapped exactly once.
            unsafe { sys::munmap(self.ptr, self.len) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("slog2-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, contents).unwrap();
        p
    }

    #[test]
    fn mmap_reads_file_bytes() {
        let p = tmp("data.bin", b"hello mapping");
        let m = Mmap::open(&p).unwrap();
        assert_eq!(&*m, b"hello mapping");
        assert_eq!(m.len(), 13);
        assert!(!m.is_empty());
    }

    #[test]
    fn mmap_empty_file_is_empty_slice() {
        let p = tmp("empty.bin", b"");
        let m = Mmap::open(&p).unwrap();
        assert!(m.is_empty());
        assert_eq!(&*m, b"");
    }

    #[test]
    fn mmap_missing_file_errors() {
        assert!(Mmap::open(Path::new("/nonexistent/nope.clog2")).is_err());
    }
}
