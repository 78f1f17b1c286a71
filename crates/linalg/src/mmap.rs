//! Minimal read-only memory mapping for zero-copy matrix storage.
//!
//! The checkpoint store maps `.blmy` files straight into the address space so
//! a recalled model's weights are *borrowed from the OS page cache* instead of
//! deserialized into fresh allocations: recall becomes a header parse plus
//! page faults, many processes mapping the same file share one physical copy,
//! and a hub holding thousands of models keeps bounded RSS (the kernel evicts
//! cold *pages*, not whole models). See
//! [`Matrix::from_mapped`](crate::Matrix::from_mapped) for the consumer side.
//!
//! The build container has no crates.io access, so this is a from-scratch
//! Unix wrapper over raw `extern "C"` `mmap`/`munmap` — no `libc` crate, no
//! `memmap2`. Only what the checkpoint store needs is implemented:
//!
//! - **read-only** (`PROT_READ`), **shared** (`MAP_SHARED`) file mappings —
//!   there is deliberately no way to obtain a `&mut` into the map,
//! - page-aligned by construction (the kernel guarantees `mmap` returns a
//!   page-aligned address), so any 64-byte-aligned *file offset* yields a
//!   64-byte-aligned *pointer*,
//! - `Send + Sync`: an immutable mapping of an immutable file is freely
//!   shared across threads; unmapping happens exactly once on the last drop
//!   (holders keep the map alive through `Arc<Mmap>`).
//!
//! Mutating the underlying file while mapped is undefined behaviour at the
//! application level (the bytes under live maps would change); the checkpoint
//! store never does — files are written once via atomic rename, and the
//! quarantine path *renames* corrupt files, which on Unix leaves existing
//! maps untouched (the inode lives on until the last map drops).
//!
//! On non-Unix targets the same API is provided by a private heap fallback
//! (read the file into owned, 64-byte-aligned storage) — semantics identical,
//! zero-copy property waived.

use std::fs::File;
use std::io;

/// Access-pattern hint for a mapping, forwarded to `madvise(2)` on Unix.
///
/// Hints are pure optimization: the recall path tells the kernel when it is
/// about to stream the whole file (checksum validation → aggressive
/// readahead) and when it switches to serving (pointer-chasing reads of hot
/// weight pages → readahead off, evict cold pages freely). Off-Unix, and on
/// kernels that reject the call, hints are silently no-ops — they can never
/// change the mapped bytes, only how eagerly the OS pages them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// Expect reads in file order (`MADV_SEQUENTIAL`): readahead ahead of
    /// the cursor, drop pages behind it. The checksum validation pass.
    Sequential,
    /// Expect accesses at unpredictable offsets (`MADV_RANDOM`): disable
    /// readahead so hot weight pages are not diluted by speculative I/O.
    /// The steady serving state.
    Random,
    /// Expect the whole range to be needed soon (`MADV_WILLNEED`): start
    /// asynchronous read-in now. Issued before validation so the pages the
    /// checksum pass is about to touch are already in flight.
    WillNeed,
}

/// A read-only memory mapping of a file (or, off-Unix, an aligned heap copy).
///
/// The mapped bytes are reachable only as `&[u8]`; alignment of the base
/// address is at least one page (4 KiB) on Unix and 64 bytes on the fallback,
/// so callers may rely on 64-byte alignment of offset-0 data either way.
#[derive(Debug)]
pub struct Mmap {
    imp: Imp,
}

// SAFETY: the raw pointer is the only non-`Send` field. It names a
// process-wide mapping, not thread-local state, so any thread may read it or
// `munmap` it on drop; the fallback owns its storage.
unsafe impl Send for Mmap {}
// SAFETY: the mapping is immutable for its whole lifetime (PROT_READ, no
// mutable accessor exists), so sharing its read-only bytes across threads is
// sound.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps `file` read-only in its entirety.
    ///
    /// An empty file yields an empty (allocation-free) map rather than an
    /// `EINVAL` from the kernel.
    pub fn map(file: &File) -> io::Result<Self> {
        Ok(Self {
            imp: Imp::map(file)?,
        })
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        self.imp.as_slice()
    }

    /// Length of the mapping in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the mapping is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hints the expected access pattern to the OS (see [`Advice`]).
    ///
    /// Best-effort by design: an unsupported platform or a kernel that
    /// rejects the hint leaves the mapping untouched, so this never
    /// returns an error and is safe to call at any point in the map's
    /// lifetime, from any thread.
    pub fn advise(&self, advice: Advice) {
        self.imp.advise(advice);
    }
}

#[cfg(unix)]
use unix::Imp;

#[cfg(unix)]
mod unix {
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    // The raw syscall surface. Constants are the POSIX-mandated values used
    // by every Unix this workspace targets (Linux, macOS, BSDs).
    const PROT_READ: i32 = 1;
    const MAP_SHARED: i32 = 1;
    // madvise advice values — identical on Linux, macOS, and the BSDs
    // (all inherit the original BSD numbering for these three).
    const MADV_RANDOM: i32 = 1;
    const MADV_SEQUENTIAL: i32 = 2;
    const MADV_WILLNEED: i32 = 3;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
        fn madvise(addr: *mut core::ffi::c_void, len: usize, advice: i32) -> i32;
    }

    #[derive(Debug)]
    pub(super) struct Imp {
        /// Null iff `len == 0` (empty files map to an empty slice, no
        /// syscall — `mmap` with length 0 is `EINVAL`).
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    impl Imp {
        pub(super) fn map(file: &File) -> io::Result<Self> {
            let len = file.metadata()?.len();
            let len = usize::try_from(len)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
            if len == 0 {
                return Ok(Self {
                    ptr: std::ptr::null_mut(),
                    len: 0,
                });
            }
            // SAFETY: plain read-only shared file mapping; the fd stays open
            // only for the duration of the call (the mapping survives the fd
            // per POSIX).
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            // MAP_FAILED is (void*)-1.
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { ptr, len })
        }

        #[inline]
        pub(super) fn as_slice(&self) -> &[u8] {
            if self.len == 0 {
                return &[];
            }
            // SAFETY: `ptr` is a live PROT_READ mapping of `len` bytes,
            // valid until `munmap` in Drop; no mutable aliases exist.
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }

        pub(super) fn advise(&self, advice: super::Advice) {
            if self.len == 0 {
                return;
            }
            let advice = match advice {
                super::Advice::Sequential => MADV_SEQUENTIAL,
                super::Advice::Random => MADV_RANDOM,
                super::Advice::WillNeed => MADV_WILLNEED,
            };
            // SAFETY: `ptr`/`len` describe a live mapping (page-aligned by
            // mmap); advisory-only call, cannot alter mapped contents. The
            // result is deliberately ignored — a kernel refusing a hint is
            // indistinguishable from one silently dropping it.
            unsafe {
                madvise(self.ptr, self.len, advice);
            }
        }
    }

    impl Drop for Imp {
        fn drop(&mut self) {
            if self.len > 0 {
                // SAFETY: exactly undoes the successful mmap in `map`.
                unsafe {
                    munmap(self.ptr, self.len);
                }
            }
        }
    }
}

#[cfg(not(unix))]
use fallback::Imp;

#[cfg(not(unix))]
mod fallback {
    use std::fs::File;
    use std::io::{self, Read};

    /// Heap stand-in: `u64` backing keeps the base 8-byte aligned (64-byte
    /// in practice on all mainstream allocators for blocks this size);
    /// `Matrix::from_mapped` re-checks pointer alignment, so a misaligned
    /// allocator surfaces loudly rather than as UB.
    #[derive(Debug)]
    pub(super) struct Imp {
        storage: Vec<u64>,
        len: usize,
    }

    impl Imp {
        pub(super) fn map(file: &File) -> io::Result<Self> {
            let mut bytes = Vec::new();
            let mut f = file.try_clone()?;
            f.read_to_end(&mut bytes)?;
            let len = bytes.len();
            let mut storage = vec![0u64; len.div_ceil(8)];
            // SAFETY: u64 storage reinterpreted as bytes, length bounded by
            // the allocation.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    bytes.as_ptr(),
                    storage.as_mut_ptr().cast::<u8>(),
                    len,
                );
            }
            Ok(Self { storage, len })
        }

        #[inline]
        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: the first `len` bytes of `storage` are initialized.
            unsafe { std::slice::from_raw_parts(self.storage.as_ptr().cast::<u8>(), self.len) }
        }

        /// Hints are meaningless for an owned heap copy: no-op.
        pub(super) fn advise(&self, _advice: super::Advice) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("bellamy-mmap-{}-{name}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        f.sync_all().unwrap();
        path
    }

    #[test]
    fn maps_file_contents_exactly() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = temp_file("contents", &data);
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert_eq!(map.len(), data.len());
        assert_eq!(map.as_slice(), &data[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn base_address_is_at_least_64_byte_aligned() {
        let path = temp_file("align", &[7u8; 4096]);
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert_eq!(map.as_slice().as_ptr() as usize % 64, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_empty() {
        let path = temp_file("empty", b"");
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.as_slice(), b"");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn advise_is_harmless_in_every_state() {
        // Hints are advisory: whatever the platform does with them, the
        // mapped bytes must be untouched, in any order, repeated, and on
        // empty maps (where no syscall is issued at all).
        let data: Vec<u8> = (0..200u8).collect();
        let path = temp_file("advise", &data);
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        for advice in [
            Advice::WillNeed,
            Advice::Sequential,
            Advice::Random,
            Advice::Sequential,
            Advice::Random,
        ] {
            map.advise(advice);
            assert_eq!(map.as_slice(), &data[..]);
        }
        let empty_path = temp_file("advise-empty", b"");
        let empty = Mmap::map(&File::open(&empty_path).unwrap()).unwrap();
        empty.advise(Advice::Sequential);
        empty.advise(Advice::Random);
        assert!(empty.is_empty());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&empty_path).ok();
    }

    #[test]
    fn map_survives_source_rename_and_is_shareable() {
        // The hub's quarantine path renames corrupt files while recalled
        // states may still hold maps; on Unix the inode (and the map) must
        // survive the rename. Threads share the map through Arc.
        let data = vec![42u8; 8192];
        let path = temp_file("rename", &data);
        let map = std::sync::Arc::new(Mmap::map(&File::open(&path).unwrap()).unwrap());
        let renamed = path.with_extension("corrupt");
        std::fs::rename(&path, &renamed).unwrap();

        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&map);
                std::thread::spawn(move || m.as_slice().iter().map(|&b| b as u64).sum::<u64>())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 42 * 8192);
        }
        std::fs::remove_file(&renamed).ok();
    }
}
