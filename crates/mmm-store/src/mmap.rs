//! Zero-copy blob views.
//!
//! [`BlobBytes`] is the unit of zero-copy recovery: a read-only view of a
//! blob's bytes that is either a plain owned `Vec<u8>` or a private
//! read-only memory mapping of the backing file. Decoders take `&[u8]`
//! either way (via `Deref`), so the copying and mapped paths are
//! *bit-identical by construction* — the only difference is whether the
//! parameter bytes flow through an intermediate heap buffer or straight
//! from the page cache.
//!
//! The mapping is hand-rolled against the platform's `mmap(2)`/`munmap(2)`
//! (std already links libc on unix; no new dependency). Anything that
//! prevents mapping — a non-unix platform, an empty file, or an `mmap`
//! failure — falls back to an owned read at the call site, so
//! [`BlobBytes`] is total: callers never need a second code path.

use std::fs::File;
use std::ops::Deref;

#[cfg(unix)]
mod sys {
    //! Minimal raw bindings for read-only private mappings.
    //!
    //! `PROT_READ`/`MAP_PRIVATE` have the values below on every unix this
    //! workspace targets (Linux, macOS, the BSDs). The `offset` parameter
    //! is declared `isize` to match the platform `off_t`/`long` width on
    //! LP64 targets; we only ever pass 0.
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: isize,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// A read-only memory mapping of a whole file.
///
/// Safety invariants: the pointer came from a successful `mmap` of
/// `len > 0` bytes with `PROT_READ | MAP_PRIVATE`, is never written
/// through, and is unmapped exactly once on drop. `MAP_PRIVATE` makes
/// later writes to the file invisible to the mapping (copy-on-write
/// semantics), and the store's own writes are atomic rename-overs which
/// never mutate the mapped inode in place — so the view is stable for
/// its lifetime.
#[cfg(unix)]
#[derive(Debug)]
struct Mapping {
    ptr: *mut std::os::raw::c_void,
    len: usize,
}

// Read-only private mapping: no interior mutability, safe to share and
// send across threads (the parallel decode path slices it from workers).
#[cfg(unix)]
unsafe impl Send for Mapping {}
#[cfg(unix)]
unsafe impl Sync for Mapping {}

#[cfg(unix)]
impl Mapping {
    /// Map `len` bytes of `file` read-only, or `None` if the kernel
    /// refuses (callers fall back to an owned read).
    fn map(file: &File, len: usize) -> Option<Mapping> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return None; // zero-length mmap is EINVAL
        }
        let ptr = unsafe {
            sys::mmap(std::ptr::null_mut(), len, sys::PROT_READ, sys::MAP_PRIVATE, file.as_raw_fd(), 0)
        };
        if ptr == sys::MAP_FAILED || ptr.is_null() {
            return None;
        }
        Some(Mapping { ptr, len })
    }

    fn as_slice(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

#[cfg(unix)]
impl Drop for Mapping {
    fn drop(&mut self) {
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

#[derive(Debug)]
enum Repr {
    Owned(Vec<u8>),
    #[cfg(unix)]
    Mapped(Mapping),
}

/// A read-only view of a blob's bytes: either an owned buffer or a
/// memory-mapped file. Derefs to `&[u8]`, so decoders are agnostic.
#[derive(Debug)]
pub struct BlobBytes {
    repr: Repr,
}

impl BlobBytes {
    /// Wrap an owned buffer (the copying path, and the universal
    /// fallback for platforms or files that cannot be mapped).
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        BlobBytes { repr: Repr::Owned(bytes) }
    }

    /// Try to map `len` bytes of `file`; `None` means the caller should
    /// read the file into memory instead. Always `None` off unix and for
    /// empty files.
    pub fn map_file(file: &File, len: usize) -> Option<Self> {
        #[cfg(unix)]
        {
            Mapping::map(file, len).map(|m| BlobBytes { repr: Repr::Mapped(m) })
        }
        #[cfg(not(unix))]
        {
            let _ = (file, len);
            None
        }
    }

    /// The bytes as an owned buffer (free for an owned view).
    pub(crate) fn into_vec(self) -> Vec<u8> {
        match self.repr {
            Repr::Owned(v) => v,
            #[cfg(unix)]
            Repr::Mapped(m) => m.as_slice().to_vec(),
        }
    }

    /// Whether this view is a memory mapping (as opposed to an owned
    /// copy). Drives the store's bytes-copied accounting and lets tests
    /// pin that the zero-copy path actually engaged.
    pub fn is_mapped(&self) -> bool {
        match &self.repr {
            Repr::Owned(_) => false,
            #[cfg(unix)]
            Repr::Mapped(_) => true,
        }
    }

    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Owned(v) => v,
            #[cfg(unix)]
            Repr::Mapped(m) => m.as_slice(),
        }
    }
}

impl Deref for BlobBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for BlobBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn owned_view_derefs() {
        let v = BlobBytes::from_vec(vec![1, 2, 3]);
        assert!(!v.is_mapped());
        assert_eq!(&*v, &[1, 2, 3]);
        assert_eq!(v.as_ref(), &[1, 2, 3]);
    }

    #[cfg(unix)]
    #[test]
    fn mapped_view_matches_file_contents() {
        let dir = mmm_util::TempDir::new("mmm-mmap").unwrap();
        let path = dir.path().join("blob.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::File::create(&path).unwrap().write_all(&payload).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let view = BlobBytes::map_file(&file, payload.len()).expect("mmap of a real file");
        assert!(view.is_mapped());
        assert_eq!(&*view, &payload[..]);
    }

    #[cfg(unix)]
    #[test]
    fn empty_file_is_not_mappable() {
        let dir = mmm_util::TempDir::new("mmm-mmap").unwrap();
        let path = dir.path().join("empty.bin");
        std::fs::File::create(&path).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        assert!(BlobBytes::map_file(&file, 0).is_none());
    }

    #[cfg(unix)]
    #[test]
    fn mapped_view_is_shareable_across_threads() {
        let dir = mmm_util::TempDir::new("mmm-mmap").unwrap();
        let path = dir.path().join("blob.bin");
        let payload = vec![7u8; 4096];
        std::fs::write(&path, &payload).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let view = BlobBytes::map_file(&file, payload.len()).unwrap();
        std::thread::scope(|s| {
            for chunk in view.chunks(1024) {
                s.spawn(move || assert!(chunk.iter().all(|&b| b == 7)));
            }
        });
    }
}
