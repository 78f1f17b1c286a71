//! 32-byte-aligned `f64` storage for SIMD-friendly matrix backing.
//!
//! The [`kernels`](crate::kernels) module's AVX2 path moves four `f64` lanes
//! per instruction. Unaligned 256-bit loads are cheap on
//! modern cores but still split when they straddle a cache line, so every
//! buffer that can back a [`Matrix`](crate::Matrix) — and every store
//! recycled through [`BufferPool`](crate::BufferPool) — is allocated on a
//! 32-byte boundary. The guarantee is structural: [`AlignedBuf`] stores its
//! payload in 32-byte-aligned 4-lane chunks, so the start of the `f64` data
//! is 32-byte-aligned for *every* buffer, pooled or fresh, for its whole
//! lifetime (Rust allocations honour the type's alignment).
//!
//! `AlignedBuf` dereferences to `[f64]`, so all slice-level code is oblivious
//! to the container; only construction and pool round-trips name the type.

use serde::{Deserialize, Serialize, Value};
use std::ops::{Deref, DerefMut};

/// One 32-byte-aligned group of four lanes. The `align(32)` on this type is
/// what aligns the whole buffer: `Vec<Chunk>` allocations start on a 32-byte
/// boundary.
#[repr(C, align(32))]
#[derive(Clone, Copy, Debug)]
struct Chunk([f64; 4]);

const ZERO_CHUNK: Chunk = Chunk([0.0; 4]);

/// A growable `f64` buffer whose data pointer is always 32-byte aligned.
///
/// Lengths need not be multiples of four: the buffer rounds its backing
/// storage up to whole chunks and exposes exactly `len` elements. Capacity
/// is likewise reported in elements (always a multiple of four).
#[derive(Clone, Debug, Default)]
pub struct AlignedBuf {
    chunks: Vec<Chunk>,
    len: usize,
}

impl AlignedBuf {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// A zero-filled buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        Self {
            chunks: vec![ZERO_CHUNK; len.div_ceil(4)],
            len,
        }
    }

    /// An empty buffer with room for at least `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            chunks: Vec::with_capacity(capacity.div_ceil(4)),
            len: 0,
        }
    }

    /// Copies a slice into freshly aligned storage.
    pub fn from_slice(values: &[f64]) -> Self {
        let mut buf = Self::zeroed(values.len());
        buf.as_mut_slice().copy_from_slice(values);
        buf
    }

    /// Number of exposed elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are exposed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity in elements (a multiple of four).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.chunks.capacity() * 4
    }

    /// The elements as a slice. The pointer is 32-byte aligned.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: `chunks` holds at least `len.div_ceil(4)` fully initialized
        // chunks of plain `f64`s laid out contiguously (repr(C), size 32),
        // so the first `len` lanes are initialized `f64`s.
        unsafe { std::slice::from_raw_parts(self.chunks.as_ptr().cast::<f64>(), self.len) }
    }

    /// The elements as a mutable slice. The pointer is 32-byte aligned.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: as in `as_slice`, plus exclusive access via `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.chunks.as_mut_ptr().cast::<f64>(), self.len) }
    }

    /// Copies the elements into a plain `Vec<f64>`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.as_slice().to_vec()
    }

    /// Reshapes the buffer to `len` zero-filled elements, reusing the
    /// existing allocation whenever `capacity() >= len` (the pool-recycle
    /// path: no allocator traffic within capacity).
    pub fn reset_zeroed(&mut self, len: usize) {
        self.chunks.clear();
        self.chunks.resize(len.div_ceil(4), ZERO_CHUNK);
        self.len = len;
    }
}

impl Deref for AlignedBuf {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl DerefMut for AlignedBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

impl PartialEq for AlignedBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<&[f64]> for AlignedBuf {
    fn from(values: &[f64]) -> Self {
        Self::from_slice(values)
    }
}

impl From<Vec<f64>> for AlignedBuf {
    fn from(values: Vec<f64>) -> Self {
        Self::from_slice(&values)
    }
}

impl Serialize for AlignedBuf {
    fn to_json_value(&self) -> Value {
        self.as_slice().to_json_value()
    }
}

impl Deserialize for AlignedBuf {
    fn from_json_value(v: &Value) -> Result<Self, String> {
        Vec::<f64>::from_json_value(v).map(|values| Self::from_slice(&values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_pointer_is_32_byte_aligned() {
        for len in [0usize, 1, 3, 4, 5, 8, 17, 64, 1000] {
            let buf = AlignedBuf::zeroed(len);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.as_slice().as_ptr() as usize % 32, 0, "len {len}");
            assert!(buf.capacity() >= len);
        }
    }

    #[test]
    fn alignment_survives_pool_style_reshaping() {
        let mut buf = AlignedBuf::zeroed(64);
        let ptr = buf.as_slice().as_ptr();
        for len in [3usize, 64, 1, 17, 0, 33] {
            buf.reset_zeroed(len);
            assert_eq!(buf.len(), len);
            assert_eq!(buf.as_slice().as_ptr() as usize % 32, 0);
            assert_eq!(
                buf.as_slice().as_ptr(),
                ptr,
                "within capacity the allocation must be reused"
            );
            assert!(buf.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn reset_zeroed_clears_stale_values() {
        let mut buf = AlignedBuf::from_slice(&[7.0; 10]);
        buf.reset_zeroed(6);
        assert!(buf.as_slice().iter().all(|&v| v == 0.0));
        // Growing back within the original chunk count must also be zeroed.
        buf.reset_zeroed(10);
        assert!(buf.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn ragged_lengths_round_trip() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        let buf = AlignedBuf::from_slice(&values);
        assert_eq!(buf.as_slice(), &values);
        assert_eq!(buf.to_vec(), values.to_vec());
        assert_eq!(buf.clone(), buf);
    }

    #[test]
    fn serde_round_trip() {
        let buf = AlignedBuf::from_slice(&[1.5, -2.0, 0.0]);
        let back = AlignedBuf::from_json_value(&buf.to_json_value()).unwrap();
        assert_eq!(back, buf);
        assert_eq!(back.as_slice().as_ptr() as usize % 32, 0);
    }
}
