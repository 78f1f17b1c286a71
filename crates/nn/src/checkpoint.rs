//! Binary checkpoint format for model state (BLMY v3; v1 and v2 decode).
//!
//! Bellamy's workflow is *pre-train → persist → fine-tune elsewhere*
//! (§III-A), so checkpoints must round-trip exactly (bit-identical `f64`
//! weights) and carry model metadata — the scale-out normalization bounds,
//! target scale, and encoder configuration the model needs to be usable in a
//! new process.
//!
//! # On-disk layout
//!
//! **v3** (written by [`Checkpoint::to_bytes`], designed to be consumed
//! *in place* through a read-only memory map — see [`Checkpoint::map`]):
//!
//! ```text
//! offset  size  field
//! ──────  ────  ─────────────────────────────────────────────────────────
//!      0     4  magic "BLMY"
//!      4     4  version u32 LE            (3)
//!      8     8  file_len u64 LE           (total file size; truncation check)
//!     16     8  payload_checksum u64 LE   (XXH64 over [payload_start, file_len))
//!     24     8  header_checksum u64 LE    (XXH64 over [32, header_end))
//!     32     4  n_meta u32 LE
//!     36     4  n_params u32 LE
//!     40     …  metadata entries:   key_len u32 | key utf8 | val_len u32 | val utf8
//!      …     …  section table:      name_len u32 | name utf8 | trainable u8 |
//!                                   rows u64 | cols u64 | payload_offset u64
//!  header_end                       (zero padding to the next 64-byte boundary;
//!                                    a nonzero padding byte is rejected)
//!  payload_start = align64(header_end)
//!      …     …  payloads: rows*cols f64 LE per tensor, every payload_offset
//!               64-byte aligned, no two payloads overlapping (zero padding
//!               between payloads as needed)
//!  file_len                         (end of the last payload)
//! ```
//!
//! Every byte is covered: magic, version and `file_len` are checked
//! directly, the checksums cover the rest but the header padding, and
//! that must be zero. Any single flipped bit is rejected.
//!
//! The 64-byte payload alignment is what makes zero-copy serving legal: a
//! memory map's base address is page-aligned, so a 64-byte-aligned *file
//! offset* yields a 64-byte-aligned *pointer* — satisfying the SIMD kernels'
//! 32-byte alignment contract without copying a single element
//! ([`Matrix::from_mapped`]).
//!
//! # Checksum
//!
//! v3 uses XXH64 (seed 0), written out below: four independent 64-bit
//! lanes fold in little-endian `u64` words, one multiply–rotate round per
//! word; then the lanes merge, the length and tail fold in, and a final
//! avalanche mixes. The byte-serial FNV-1a of v2 made a megabyte-scale
//! recall almost all checksum.
//!
//! **v2** (legacy, read-only): the v3 layout with version 2 and both
//! checksums FNV-1a. It still decodes, maps zero-copy and verifies.
//!
//! **v1** (legacy, read-only): magic, version u32 (1), n_meta + entries,
//! n_params, then per tensor `name | trainable u8 | rows u64 | cols u64 |
//! rows*cols f64 LE` packed with no alignment and no checksums.
//!
//! [`Checkpoint::from_bytes`] and [`Checkpoint::from_map`] dispatch on the
//! version: v1 decodes owned; v2 and v3 share one parser, given the
//! version's checksum. Adversarial bytes yield a [`CheckpointError`],
//! never a panic, an allocation sized by an unverified field, or an
//! out-of-bounds mapped window.
//!
//! # Mmap lifetime contract
//!
//! [`Checkpoint::map`] / [`Checkpoint::map_file`] map the file **once** into
//! an `Arc<Mmap>` shared by every mapped tensor; the `Checkpoint` (and any
//! `Matrix` moved out of its [`ParamSet`]) holds the map alive, and the
//! mapping is released when the last such matrix drops. Checksums are
//! verified *at map time* against the mapped bytes, so a later page fault
//! can only surface data that already hashed correctly. Two properties of
//! the surrounding system make this safe:
//!
//! - checkpoints are **immutable once published** — the writer goes through
//!   an atomic `*.tmp` + fsync + rename ([`Checkpoint::save`]), so a path
//!   never refers to a half-written file and published bytes never change;
//! - the hub's quarantine path **renames** corrupt files rather than
//!   truncating or rewriting them; on Unix a rename leaves the inode (and
//!   therefore every live mapping of it) untouched until the last map
//!   drops.

use crate::params::ParamSet;
use bellamy_linalg::{Advice, Matrix, Mmap};
use bytes::Buf;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"BLMY";
const VERSION_V1: u32 = 1;
const VERSION_V2: u32 = 2;
const VERSION_V3: u32 = 3;

/// Fixed header size of the aligned layout (v2, v3): magic + version +
/// file_len + two checksums + n_meta + n_params.
const FIXED_HEADER: usize = 40;
/// Byte offset of the checksummed header region (everything after the
/// checksum fields themselves).
const CHECKSUMMED_FROM: usize = 32;
/// A section-table entry's size without its name bytes (the smallest
/// entry): the name's length prefix, the trainable flag, rows, cols and
/// offset.
const MIN_SECTION_ENTRY: usize = 4 + 1 + 24;

/// A checksum over one region of an aligned blob.
type Checksum = fn(&[u8]) -> u64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice: the v2 checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One lane step of [`xxh64`]: fold a word in, rotate, multiply.
#[inline(always)]
fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// XXH64 with seed 0 over a byte slice: the v3 checksum (see the module
/// docs).
fn xxh64(bytes: &[u8]) -> u64 {
    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut h = if stripes.is_empty() {
        P5
    } else {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *lane = xxh_round(*lane, u64::from_le_bytes(*word));
            }
        }
        let [a, b, c, d] = lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in lanes {
            h = (h ^ xxh_round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h
    };
    h = h.wrapping_add(bytes.len() as u64);
    let (words, tail) = tail.as_chunks::<8>();
    for word in words {
        h = (h ^ xxh_round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let (halves, tail) = tail.as_chunks::<4>();
    for half in halves {
        h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Rounds up to the next multiple of 64.
#[inline]
fn align64(n: usize) -> usize {
    (n + 63) & !63
}

/// A deserialized checkpoint: parameter values plus string metadata.
///
/// Depending on how it was obtained, the tensors are either owned
/// ([`Checkpoint::from_bytes`] / [`Checkpoint::load`]) or borrowed from a
/// shared read-only file mapping ([`Checkpoint::map`] on a v2 or v3 file)
/// — the distinction is invisible to readers and erased by `clone()`.
#[derive(Debug, Clone, Default)]
pub struct Checkpoint {
    /// Named tensors with their trainability flags.
    pub params: ParamSet,
    /// Free-form key/value metadata (normalization bounds, dims, ...).
    pub metadata: BTreeMap<String, String>,
}

/// Errors arising while decoding a checkpoint.
#[derive(Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Leading magic bytes are wrong — not a checkpoint file.
    BadMagic,
    /// Version not understood by this build.
    UnsupportedVersion(u32),
    /// The byte stream ended early, a length field overflowed it, or the
    /// structure is malformed (misaligned or overlapping payloads, nonzero
    /// header padding, a duplicate tensor name).
    Truncated,
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// A header or payload checksum did not match the stored value — the
    /// file's bytes were altered after writing.
    ChecksumMismatch,
    /// Underlying I/O failure (message retained).
    Io(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a Bellamy checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint data truncated"),
            CheckpointError::InvalidUtf8 => write!(f, "invalid UTF-8 in checkpoint"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl CheckpointError {
    /// True when the checkpoint's *content* is bad — wrong magic, an
    /// unknown version, truncation, invalid UTF-8, a checksum mismatch —
    /// as opposed to a transient I/O failure. Content errors are permanent
    /// for a given file: retrying the read cannot help, so callers (the
    /// hub's disk recall) quarantine the file instead of retrying, while
    /// `Io` errors are worth a bounded retry.
    pub fn is_corruption(&self) -> bool {
        match self {
            CheckpointError::BadMagic
            | CheckpointError::UnsupportedVersion(_)
            | CheckpointError::Truncated
            | CheckpointError::InvalidUtf8
            | CheckpointError::ChecksumMismatch => true,
            CheckpointError::Io(_) => false,
        }
    }
}

/// What a blob's version field says about the rest of it.
enum Format {
    /// v1: packed tensors, no alignment, no checksums; decodes owned.
    Packed,
    /// v2 and v3: the aligned layout, verified with this checksum.
    Aligned(Checksum),
}

/// One parsed section-table entry (tensor locator, no data).
struct Section {
    name: String,
    trainable: bool,
    rows: usize,
    cols: usize,
    offset: usize,
}

/// A fully validated aligned blob: metadata + tensor locators whose byte
/// ranges are in bounds, 64-byte aligned and disjoint. Both materializers
/// (owned and mapped) consume this.
struct AlignedParts {
    metadata: BTreeMap<String, String>,
    sections: Vec<Section>,
}

impl AlignedParts {
    /// Registers each section's tensor, as built by `tensor`, into a
    /// checkpoint.
    fn assemble(
        self,
        mut tensor: impl FnMut(&Section) -> Result<Matrix, CheckpointError>,
    ) -> Result<Checkpoint, CheckpointError> {
        let mut params = ParamSet::new();
        for s in self.sections {
            if params.find(&s.name).is_some() {
                return Err(CheckpointError::Truncated);
            }
            let value = tensor(&s)?;
            let id = params.register(s.name, value);
            params.get_mut(id).trainable = s.trainable;
        }
        Ok(Checkpoint {
            params,
            metadata: self.metadata,
        })
    }
}

impl Checkpoint {
    /// Creates a checkpoint from a parameter set and metadata.
    pub fn new(params: ParamSet, metadata: BTreeMap<String, String>) -> Self {
        Self { params, metadata }
    }

    /// Serializes to bytes in the current (v3, mmap-able) layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let meta_size: usize = self
            .metadata
            .iter()
            .map(|(k, v)| 8 + k.len() + v.len())
            .sum();
        let table_size: usize = self
            .params
            .iter()
            .map(|(_, p)| MIN_SECTION_ENTRY + p.name.len())
            .sum();
        let header_end = FIXED_HEADER + meta_size + table_size;
        let payload_start = align64(header_end);

        let mut offsets = Vec::with_capacity(self.params.len());
        let mut cursor = payload_start;
        for (_, p) in self.params.iter() {
            let off = align64(cursor);
            offsets.push(off);
            cursor = off + p.value.len() * 8;
        }
        let file_len = if offsets.is_empty() {
            payload_start
        } else {
            cursor
        };

        let mut buf = vec![0u8; file_len];
        buf[0..4].copy_from_slice(MAGIC);
        buf[4..8].copy_from_slice(&VERSION_V3.to_le_bytes());
        buf[8..16].copy_from_slice(&(file_len as u64).to_le_bytes());
        // [16..32): checksums, patched once the rest of the file is final.
        buf[32..36].copy_from_slice(&(self.metadata.len() as u32).to_le_bytes());
        buf[36..40].copy_from_slice(&(self.params.len() as u32).to_le_bytes());

        let mut w = FIXED_HEADER;
        for (k, v) in &self.metadata {
            write_str_at(&mut buf, &mut w, k);
            write_str_at(&mut buf, &mut w, v);
        }
        for ((_, p), &off) in self.params.iter().zip(&offsets) {
            write_str_at(&mut buf, &mut w, &p.name);
            buf[w] = p.trainable as u8;
            w += 1;
            buf[w..w + 8].copy_from_slice(&(p.value.rows() as u64).to_le_bytes());
            buf[w + 8..w + 16].copy_from_slice(&(p.value.cols() as u64).to_le_bytes());
            buf[w + 16..w + 24].copy_from_slice(&(off as u64).to_le_bytes());
            w += 24;
        }
        debug_assert_eq!(w, header_end);

        for ((_, p), &off) in self.params.iter().zip(&offsets) {
            let mut pos = off;
            for &v in p.value.as_slice() {
                buf[pos..pos + 8].copy_from_slice(&v.to_le_bytes());
                pos += 8;
            }
        }

        let payload_checksum = xxh64(&buf[payload_start..]);
        let header_checksum = xxh64(&buf[CHECKSUMMED_FROM..header_end]);
        buf[16..24].copy_from_slice(&payload_checksum.to_le_bytes());
        buf[24..32].copy_from_slice(&header_checksum.to_le_bytes());
        buf
    }

    /// Deserializes from bytes, dispatching on the version field. Every
    /// version decodes into fully owned tensors.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CheckpointError> {
        let Format::Aligned(checksum) = format_of(data)? else {
            return Self::decode_v1(&data[8..]);
        };
        parse_aligned(data, checksum)?.assemble(|s| {
            let end = s.offset + s.rows * s.cols * 8;
            let values = data[s.offset..end]
                .as_chunks::<8>()
                .0
                .iter()
                .map(|&word| f64::from_le_bytes(word))
                .collect();
            Ok(Matrix::from_vec(s.rows, s.cols, values))
        })
    }

    /// Memory-maps a checkpoint file and decodes it **zero-copy**: for a v2
    /// or v3 file, every tensor is a [`Matrix::from_mapped`] view into one
    /// shared `Arc<Mmap>` — no element data is copied, and reads come
    /// straight from the OS page cache. Header and payload checksums are
    /// verified against the mapped bytes before any tensor is handed out.
    ///
    /// A v1 file (which has neither alignment nor checksums) decodes
    /// through the owned path instead — same result, zero-copy property
    /// waived. See the module docs for the mapping lifetime contract.
    pub fn map(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let file = File::open(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Self::map_file(&file)
    }

    /// [`Checkpoint::map`] over an already-opened file handle.
    pub fn map_file(file: &File) -> Result<Self, CheckpointError> {
        let map = Mmap::map(file).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Self::from_map(Arc::new(map))
    }

    /// Decodes a checkpoint from an existing mapping (v2, v3 → mapped
    /// tensors, v1 → owned fallback).
    ///
    /// Access-pattern hints bracket the decode: the checksum validation
    /// inside the parser streams the whole file front to back, so the map
    /// is advised [`Advice::WillNeed`] + [`Advice::Sequential`] first
    /// (kick off read-in, keep readahead ahead of the checksum cursor);
    /// once validated, the map flips to [`Advice::Random`] — the serving
    /// state touches individual weight pages in no predictable order, and
    /// sequential readahead would only dilute the page cache. Hints are
    /// best-effort no-ops on platforms without `madvise`.
    pub fn from_map(map: Arc<Mmap>) -> Result<Self, CheckpointError> {
        let data = map.as_slice();
        let Format::Aligned(checksum) = format_of(data)? else {
            return Self::decode_v1(&data[8..]);
        };
        map.advise(Advice::WillNeed);
        map.advise(Advice::Sequential);
        let parts = parse_aligned(data, checksum)?;
        map.advise(Advice::Random);
        parts.assemble(|s| {
            Matrix::from_mapped(s.rows, s.cols, Arc::clone(&map), s.offset)
                .map_err(|_| CheckpointError::Truncated)
        })
    }

    /// The v1 body decoder (`data` starts *after* magic + version).
    fn decode_v1(mut data: &[u8]) -> Result<Self, CheckpointError> {
        let n_meta = read_u32(&mut data)? as usize;
        let mut metadata = BTreeMap::new();
        for _ in 0..n_meta {
            let k = read_string(&mut data)?;
            let v = read_string(&mut data)?;
            metadata.insert(k, v);
        }

        let n_params = read_u32(&mut data)? as usize;
        let mut params = ParamSet::new();
        for _ in 0..n_params {
            let name = read_string(&mut data)?;
            if data.remaining() < 1 + 16 {
                return Err(CheckpointError::Truncated);
            }
            let trainable = data.get_u8() != 0;
            let rows = data.get_u64_le() as usize;
            let cols = data.get_u64_le() as usize;
            let count = rows.checked_mul(cols).ok_or(CheckpointError::Truncated)?;
            let bytes = count.checked_mul(8).ok_or(CheckpointError::Truncated)?;
            if data.remaining() < bytes {
                return Err(CheckpointError::Truncated);
            }
            let mut values = Vec::with_capacity(count);
            for _ in 0..count {
                values.push(data.get_f64_le());
            }
            if params.find(&name).is_some() {
                return Err(CheckpointError::Truncated);
            }
            let id = params.register(name, Matrix::from_vec(rows, cols, values));
            params.get_mut(id).trainable = trainable;
        }
        Ok(Self { params, metadata })
    }

    /// Writes the checkpoint to a file **atomically**: the bytes go to
    /// `<path>.tmp` first, are fsynced, and the temp file is renamed over
    /// `path`. A crash at any point leaves either the previous checkpoint
    /// or a stray `.tmp` — never a torn file at the published path.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let result = (|| {
            let mut f = File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if let Err(e) = result {
            std::fs::remove_file(&tmp).ok();
            return Err(CheckpointError::Io(e.to_string()));
        }
        Ok(())
    }

    /// Reads a checkpoint from a file into owned tensors (any version).
    /// For zero-copy recall use [`Checkpoint::map`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let data = std::fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
        Self::from_bytes(&data)
    }
}

/// Checks the magic and maps the version field to its format.
fn format_of(data: &[u8]) -> Result<Format, CheckpointError> {
    if data.len() < 8 {
        return Err(CheckpointError::Truncated);
    }
    if &data[0..4] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    match u32::from_le_bytes(data[4..8].try_into().expect("four bytes")) {
        VERSION_V1 => Ok(Format::Packed),
        VERSION_V2 => Ok(Format::Aligned(fnv1a)),
        VERSION_V3 => Ok(Format::Aligned(xxh64)),
        v => Err(CheckpointError::UnsupportedVersion(v)),
    }
}

fn read_u64_at(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("eight bytes"))
}

/// Parses and fully validates an aligned (v2 or v3) blob: length, both
/// checksums under `checksum`, zero header padding, and the bounds,
/// 64-byte alignment and disjointness of every payload. On success the
/// returned locators are safe to index `data` with.
fn parse_aligned(data: &[u8], checksum: Checksum) -> Result<AlignedParts, CheckpointError> {
    if data.len() < FIXED_HEADER {
        return Err(CheckpointError::Truncated);
    }
    if read_u64_at(data, 8) != data.len() as u64 {
        return Err(CheckpointError::Truncated);
    }
    let payload_checksum = read_u64_at(data, 16);
    let header_checksum = read_u64_at(data, 24);
    let n_meta = u32::from_le_bytes(data[32..36].try_into().expect("four bytes")) as usize;
    let n_params = u32::from_le_bytes(data[36..40].try_into().expect("four bytes")) as usize;

    let mut rest = &data[FIXED_HEADER..];
    let mut metadata = BTreeMap::new();
    for _ in 0..n_meta {
        let k = read_string(&mut rest)?;
        let v = read_string(&mut rest)?;
        metadata.insert(k, v);
    }
    // The checksum cannot vouch for `n_params` yet (the header's end
    // depends on it), so the bytes left bound the reservation.
    let mut sections = Vec::with_capacity(n_params.min(rest.len() / MIN_SECTION_ENTRY));
    for _ in 0..n_params {
        let name = read_string(&mut rest)?;
        if rest.remaining() < 1 + 24 {
            return Err(CheckpointError::Truncated);
        }
        let trainable = rest.get_u8() != 0;
        let rows = rest.get_u64_le() as usize;
        let cols = rest.get_u64_le() as usize;
        let offset = rest.get_u64_le() as usize;
        sections.push(Section {
            name,
            trainable,
            rows,
            cols,
            offset,
        });
    }
    let header_end = data.len() - rest.remaining();
    if checksum(&data[CHECKSUMMED_FROM..header_end]) != header_checksum {
        return Err(CheckpointError::ChecksumMismatch);
    }
    let payload_start = align64(header_end);
    if payload_start > data.len() || data[header_end..payload_start].iter().any(|&b| b != 0) {
        return Err(CheckpointError::Truncated);
    }
    if checksum(&data[payload_start..]) != payload_checksum {
        return Err(CheckpointError::ChecksumMismatch);
    }
    let mut spans = Vec::with_capacity(sections.len());
    for s in &sections {
        let end = s
            .rows
            .checked_mul(s.cols)
            .and_then(|count| count.checked_mul(8))
            .and_then(|bytes| s.offset.checked_add(bytes))
            .ok_or(CheckpointError::Truncated)?;
        if s.offset % 64 != 0 || s.offset < payload_start || end > data.len() {
            return Err(CheckpointError::Truncated);
        }
        spans.push((s.offset, end));
    }
    spans.sort_unstable();
    if spans.windows(2).any(|w| w[1].0 < w[0].1) {
        return Err(CheckpointError::Truncated);
    }
    Ok(AlignedParts { metadata, sections })
}

/// Writes `len u32 LE | utf8 bytes` at `*w` into a pre-sized buffer.
fn write_str_at(buf: &mut [u8], w: &mut usize, s: &str) {
    buf[*w..*w + 4].copy_from_slice(&(s.len() as u32).to_le_bytes());
    *w += 4;
    buf[*w..*w + s.len()].copy_from_slice(s.as_bytes());
    *w += s.len();
}

fn read_u32(data: &mut &[u8]) -> Result<u32, CheckpointError> {
    if data.remaining() < 4 {
        return Err(CheckpointError::Truncated);
    }
    Ok(data.get_u32_le())
}

fn read_string(data: &mut &[u8]) -> Result<String, CheckpointError> {
    let len = read_u32(data)? as usize;
    if data.remaining() < len {
        return Err(CheckpointError::Truncated);
    }
    let bytes = data.copy_to_bytes(len);
    String::from_utf8(bytes.to_vec()).map_err(|_| CheckpointError::InvalidUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Init;
    use bytes::BufMut;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn sample_checkpoint() -> Checkpoint {
        let mut rng = StdRng::seed_from_u64(11);
        let mut ps = ParamSet::new();
        ps.register_init("f.l1.weight", 3, 16, Init::HeNormal, &mut rng);
        ps.register_init("f.l1.bias", 1, 16, Init::Zeros, &mut rng);
        ps.register_init("g.l1.weight", 40, 8, Init::HeNormal, &mut rng);
        ps.set_trainable_by_prefix("g.", false);
        let mut meta = BTreeMap::new();
        meta.insert("scale_out.min.0".to_string(), "0.0833333".to_string());
        meta.insert("target_scale".to_string(), "1432.7".to_string());
        Checkpoint::new(ps, meta)
    }

    /// Two small tensors: the first payload (48 bytes) leaves padding
    /// before the second, and the 110-byte header leaves padding before
    /// the first.
    fn tiny_params() -> ParamSet {
        let mut ps = ParamSet::new();
        ps.register(
            "w",
            Matrix::from_vec(2, 3, vec![1.5, -2.0, 0.25, 3.0, -0.5, 8.0]),
        );
        ps.register("b", Matrix::row_vector(&[0.1, 0.2, 0.3]));
        ps
    }

    fn tiny_checkpoint() -> Checkpoint {
        let meta = BTreeMap::from([("k".to_string(), "v".to_string())]);
        Checkpoint::new(tiny_params(), meta)
    }

    /// Encodes `ck` in the legacy v1 layout, as the retired v1 writer did.
    fn v1_bytes(ck: &Checkpoint) -> Vec<u8> {
        fn put_string(buf: &mut Vec<u8>, s: &str) {
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        let mut buf = Vec::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION_V1);
        buf.put_u32_le(ck.metadata.len() as u32);
        for (k, v) in &ck.metadata {
            put_string(&mut buf, k);
            put_string(&mut buf, v);
        }
        buf.put_u32_le(ck.params.len() as u32);
        for (_, p) in ck.params.iter() {
            put_string(&mut buf, &p.name);
            buf.put_u8(p.trainable as u8);
            buf.put_u64_le(p.value.rows() as u64);
            buf.put_u64_le(p.value.cols() as u64);
            for &v in p.value.as_slice() {
                buf.put_f64_le(v);
            }
        }
        buf
    }

    fn assert_checkpoints_equal(a: &Checkpoint, b: &Checkpoint) {
        assert_eq!(a.metadata, b.metadata);
        assert_eq!(a.params.len(), b.params.len());
        for (_, p) in a.params.iter() {
            let q = b.params.get(b.params.find(&p.name).unwrap());
            assert_eq!(q.value, p.value, "tensor {} must be bit-identical", p.name);
            assert_eq!(q.trainable, p.trainable);
        }
    }

    /// Walks an aligned blob's header as the parser does: the byte
    /// position of each section entry's `rows` field (`cols` and
    /// `payload_offset` follow it), and the header's end. `None` when the
    /// walk runs off the end or meets invalid UTF-8.
    fn walk_header(bytes: &[u8]) -> Option<(Vec<usize>, usize)> {
        let n_meta = u32::from_le_bytes(bytes[32..36].try_into().unwrap());
        let n_params = u32::from_le_bytes(bytes[36..40].try_into().unwrap());
        let mut rest = &bytes[FIXED_HEADER..];
        for _ in 0..2 * u64::from(n_meta) {
            read_string(&mut rest).ok()?;
        }
        let mut entries = Vec::new();
        for _ in 0..n_params {
            read_string(&mut rest).ok()?;
            entries.push(bytes.len() - rest.len() + 1);
            rest = rest.get(1 + 24..)?;
        }
        Some((entries, bytes.len() - rest.len()))
    }

    /// Stamps `version` (2 or 3) into an aligned blob and recomputes both
    /// checksums with that version's hash. Re-stamping a v3 buffer as v2
    /// gives exactly what the retired v2 writer produced; re-sealing an
    /// edited header makes a structural lie pass the checksums, so the
    /// structural checks behind them are what must catch it. A header
    /// that cannot be walked, or whose payloads would start past the end,
    /// fails the parser before the checksum it would need, so that one is
    /// left as it is.
    fn seal(mut bytes: Vec<u8>, version: u32) -> Vec<u8> {
        let hash: Checksum = if version == VERSION_V2 { fnv1a } else { xxh64 };
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        let Some((_, header_end)) = walk_header(&bytes) else {
            return bytes;
        };
        let header = hash(&bytes[CHECKSUMMED_FROM..header_end]);
        bytes[24..32].copy_from_slice(&header.to_le_bytes());
        if let Some(payload) = bytes.get(align64(header_end)..).map(hash) {
            bytes[16..24].copy_from_slice(&payload.to_le_bytes());
        }
        bytes
    }

    fn put_u64_at(bytes: &mut [u8], at: usize, v: u64) {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// `bytes` must be rejected as corruption by the owned decoder and by
    /// the mapped one.
    fn assert_rejected(bytes: &[u8], case: &str) {
        let err = Checkpoint::from_bytes(bytes).expect_err(case);
        assert!(err.is_corruption(), "{case}: from_bytes gave {err:?}");
        let dir = std::env::temp_dir().join(format!("bellamy-ckpt-total-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "{}.blmy",
            case.replace(|c: char| !c.is_ascii_alphanumeric(), "-")
        ));
        std::fs::write(&path, bytes).unwrap();
        let err = Checkpoint::map(&path).expect_err(case);
        assert!(err.is_corruption(), "{case}: map gave {err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one full stripe, then a word, a half word and 3 bytes.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn round_trip_is_exact() {
        let ck = sample_checkpoint();
        let back = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_checkpoints_equal(&ck, &back);
    }

    #[test]
    fn v1_blobs_still_decode() {
        let ck = sample_checkpoint();
        let back = Checkpoint::from_bytes(&v1_bytes(&ck)).unwrap();
        assert_checkpoints_equal(&ck, &back);
    }

    #[test]
    fn v2_blobs_still_decode() {
        let ck = sample_checkpoint();
        let v2 = seal(ck.to_bytes(), VERSION_V2);
        assert_eq!(&v2[4..8], &2u32.to_le_bytes());
        let back = Checkpoint::from_bytes(&v2).unwrap();
        assert_checkpoints_equal(&ck, &back);
        // The hashes differ, so a v2 file cannot pass as v3 or vice versa.
        let mut as_v3 = v2.clone();
        as_v3[4..8].copy_from_slice(&VERSION_V3.to_le_bytes());
        assert_eq!(
            Checkpoint::from_bytes(&as_v3).unwrap_err(),
            CheckpointError::ChecksumMismatch
        );
    }

    #[test]
    fn payloads_are_64_byte_aligned() {
        let bytes = sample_checkpoint().to_bytes();
        assert_eq!(&bytes[4..8], &3u32.to_le_bytes());
        let n_params = u32::from_le_bytes(bytes[36..40].try_into().unwrap());
        assert_eq!(n_params, 3);
        // Walk the section table and check every stored offset.
        let (entries, _) = walk_header(&bytes).unwrap();
        assert_eq!(entries.len(), 3);
        for at in entries {
            let offset = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap());
            assert_eq!(offset % 64, 0, "payload offset {offset} not 64-aligned");
        }
    }

    #[test]
    fn file_round_trip() {
        let ck = sample_checkpoint();
        let dir = std::env::temp_dir().join("bellamy-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.blmy");
        ck.save(&path).unwrap();
        assert!(
            !path.with_extension("blmy.tmp").exists(),
            "atomic save must not leave a temp file"
        );
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back.metadata, ck.metadata);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapped_decode_is_zero_copy_and_bit_identical() {
        let ck = sample_checkpoint();
        let dir = std::env::temp_dir().join("bellamy-ckpt-map-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.blmy");
        ck.save(&path).unwrap();

        let mapped = Checkpoint::map(&path).unwrap();
        assert_checkpoints_equal(&ck, &mapped);
        for (_, p) in mapped.params.iter() {
            assert!(p.value.is_mapped(), "tensor {} should be mapped", p.name);
        }

        // v1 files fall back to owned decode through the same entry point.
        std::fs::write(&path, v1_bytes(&ck)).unwrap();
        let v1_mapped = Checkpoint::map(&path).unwrap();
        assert_checkpoints_equal(&ck, &v1_mapped);
        for (_, p) in v1_mapped.params.iter() {
            assert!(!p.value.is_mapped(), "v1 decode must be owned");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_detected() {
        let err = Checkpoint::from_bytes(b"NOPE....rest").unwrap_err();
        assert_eq!(err, CheckpointError::BadMagic);
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample_checkpoint().to_bytes();
        for cut in [5, 9, 20, bytes.len() - 3] {
            let err = Checkpoint::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::InvalidUtf8
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
        // v1 truncation still detected through the dispatch path.
        let v1 = v1_bytes(&sample_checkpoint());
        for cut in [5, 9, 20, v1.len() - 3] {
            let err = Checkpoint::from_bytes(&v1[..cut]).unwrap_err();
            assert!(err.is_corruption(), "v1 cut at {cut}: {err:?}");
        }
    }

    #[test]
    fn payload_bit_flip_detected_by_checksum() {
        let mut bytes = sample_checkpoint().to_bytes();
        let n = bytes.len();
        bytes[n - 5] ^= 0x10; // flip one bit inside the last payload
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert_eq!(err, CheckpointError::ChecksumMismatch);
        assert!(err.is_corruption());
    }

    #[test]
    fn header_bit_flip_detected() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[44] ^= 0x01; // inside the first metadata key
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.is_corruption(), "unexpected error {err:?}");
    }

    #[test]
    fn v2_payload_bit_flip_detected_by_checksum() {
        let mut bytes = seal(sample_checkpoint().to_bytes(), VERSION_V2);
        let n = bytes.len();
        bytes[n - 5] ^= 0x10;
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert_eq!(err, CheckpointError::ChecksumMismatch);
    }

    #[test]
    fn v2_header_bit_flip_detected() {
        let mut bytes = seal(sample_checkpoint().to_bytes(), VERSION_V2);
        bytes[44] ^= 0x01;
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.is_corruption(), "unexpected error {err:?}");
    }

    #[test]
    fn every_single_bit_flip_of_a_v3_file_is_rejected() {
        let bytes = tiny_checkpoint().to_bytes();
        let (entries, header_end) = walk_header(&bytes).unwrap();
        // The file must hold both kinds of padding, or the sweep below
        // would not cover them.
        assert!(align64(header_end) > header_end, "no header padding");
        let first_end =
            u64::from_le_bytes(bytes[entries[0] + 16..entries[0] + 24].try_into().unwrap())
                as usize
                + 6 * 8;
        let second =
            u64::from_le_bytes(bytes[entries[1] + 16..entries[1] + 24].try_into().unwrap());
        assert!(second as usize > first_end, "no padding between payloads");
        Checkpoint::from_bytes(&bytes).expect("the unflipped file decodes");
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[byte] ^= 1 << bit;
                match Checkpoint::from_bytes(&flipped) {
                    Err(e) => assert!(e.is_corruption(), "byte {byte} bit {bit}: {e:?}"),
                    Ok(_) => panic!("flipping byte {byte} bit {bit} went undetected"),
                }
            }
        }
    }

    #[test]
    fn aligned_decoders_are_total_on_lying_structure() {
        for version in [VERSION_V2, VERSION_V3] {
            let good = seal(tiny_checkpoint().to_bytes(), version);
            let (entries, header_end) = walk_header(&good).unwrap();
            let (first, second) = (entries[0], entries[1]);
            let len = good.len() as u64;
            let edit = |reseal: bool, f: &dyn Fn(&mut Vec<u8>)| {
                let mut bytes = good.clone();
                f(&mut bytes);
                if reseal {
                    seal(bytes, version)
                } else {
                    bytes
                }
            };
            let cases: Vec<(&str, Vec<u8>)> = vec![
                (
                    "n_params u32 max",
                    edit(false, &|b| {
                        b[36..40].copy_from_slice(&u32::MAX.to_le_bytes())
                    }),
                ),
                (
                    "n_meta u32 max",
                    edit(false, &|b| {
                        b[32..36].copy_from_slice(&u32::MAX.to_le_bytes())
                    }),
                ),
                (
                    "file_len past the end",
                    edit(false, &|b| put_u64_at(b, 8, len + 64)),
                ),
                (
                    "file_len short",
                    edit(false, &|b| put_u64_at(b, 8, len - 1)),
                ),
                (
                    "file_len u64 max",
                    edit(false, &|b| put_u64_at(b, 8, u64::MAX)),
                ),
                (
                    "rows times cols overflows",
                    edit(true, &|b| {
                        put_u64_at(b, first, 1 << 32);
                        put_u64_at(b, first + 8, 1 << 32);
                    }),
                ),
                (
                    "byte count overflows",
                    edit(true, &|b| {
                        put_u64_at(b, first, 1 << 61);
                        put_u64_at(b, first + 8, 1);
                    }),
                ),
                (
                    "payload past the end",
                    edit(true, &|b| put_u64_at(b, first, 1 << 40)),
                ),
                (
                    "offset end overflows",
                    edit(true, &|b| put_u64_at(b, first + 16, u64::MAX - 63)),
                ),
                (
                    "misaligned offset",
                    edit(true, &|b| {
                        let off = u64::from_le_bytes(b[first + 16..first + 24].try_into().unwrap());
                        put_u64_at(b, first + 16, off + 8);
                    }),
                ),
                (
                    "offset inside the header",
                    edit(true, &|b| put_u64_at(b, first + 16, 0)),
                ),
                (
                    "overlapping payloads",
                    edit(true, &|b| {
                        let off = u64::from_le_bytes(b[first + 16..first + 24].try_into().unwrap());
                        put_u64_at(b, second + 16, off);
                    }),
                ),
                (
                    "nonzero header padding",
                    edit(true, &|b| b[header_end] = 0x5a),
                ),
            ];
            for (case, bytes) in cases {
                assert_rejected(&bytes, &format!("v{version} {case}"));
            }
        }
    }

    #[test]
    fn resealed_random_header_edits_are_rejected_or_decode_alike() {
        // Random header bytes and random rows, cols and offsets, re-sealed
        // so that only the structural checks stand between them and a
        // tensor. Whatever the combination, both decoders must reject it
        // as corruption or build the same tensors, and no two mapped
        // tensors may share a byte.
        let mut rng = StdRng::seed_from_u64(20);
        for version in [VERSION_V2, VERSION_V3] {
            let good = seal(tiny_checkpoint().to_bytes(), version);
            let (entries, header_end) = walk_header(&good).unwrap();
            let len = good.len() as u64;
            for case in 0..300 {
                let mut bytes = good.clone();
                for _ in 0..rng.random_range(1..=3) {
                    if rng.random_bool(0.5) {
                        bytes[rng.random_range(CHECKSUMMED_FROM..header_end)] = rng.random();
                        continue;
                    }
                    let at = entries[rng.random_range(0..entries.len())]
                        + 8 * rng.random_range(0..3usize);
                    let value = match rng.random_range(0..4) {
                        0 => rng.random_range(0..8),
                        1 => 64 * rng.random_range(0..=len / 64),
                        2 => 1 << rng.random_range(0..64u32),
                        _ => rng.random(),
                    };
                    put_u64_at(&mut bytes, at, value);
                }
                let bytes = seal(bytes, version);
                let path = std::env::temp_dir().join(format!(
                    "bellamy-ckpt-reseal-{}-v{version}-{case}.blmy",
                    std::process::id()
                ));
                let case = format!("v{version} case {case}");
                std::fs::write(&path, &bytes).unwrap();
                match (Checkpoint::from_bytes(&bytes), Checkpoint::map(&path)) {
                    (Ok(owned), Ok(mapped)) => {
                        assert_checkpoints_equal(&owned, &mapped);
                        let mut windows: Vec<(usize, usize)> = mapped
                            .params
                            .iter()
                            .map(|(_, p)| p.value.as_slice())
                            .filter(|v| !v.is_empty())
                            .map(|v| (v.as_ptr() as usize, v.as_ptr() as usize + v.len() * 8))
                            .collect();
                        windows.sort_unstable();
                        assert!(
                            windows.windows(2).all(|w| w[0].1 <= w[1].0),
                            "{case}: mapped tensors overlap"
                        );
                    }
                    (Err(a), Err(b)) => {
                        assert!(
                            a.is_corruption() && b.is_corruption(),
                            "{case}: {a:?}, {b:?}"
                        )
                    }
                    (a, b) => panic!("{case}: the decoders disagree: {a:?} vs {b:?}"),
                }
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn v1_decoder_is_total_on_lying_structure() {
        // No metadata: n_meta sits at 8, n_params at 12, the first
        // tensor's name at 16 and its rows field right after the name and
        // the trainable flag.
        let good = v1_bytes(&Checkpoint::new(tiny_params(), BTreeMap::new()));
        let rows = 16 + 4 + "w".len() + 1;
        let edit = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = good.clone();
            f(&mut bytes);
            bytes
        };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "n_meta u32 max",
                edit(&|b| b[8..12].copy_from_slice(&u32::MAX.to_le_bytes())),
            ),
            (
                "n_params u32 max",
                edit(&|b| b[12..16].copy_from_slice(&u32::MAX.to_le_bytes())),
            ),
            (
                "byte count overflows",
                edit(&|b| {
                    put_u64_at(b, rows, 1 << 61);
                    put_u64_at(b, rows + 8, 1);
                }),
            ),
            (
                "rows times cols overflows",
                edit(&|b| {
                    put_u64_at(b, rows, 1 << 32);
                    put_u64_at(b, rows + 8, 1 << 32);
                }),
            ),
            (
                "payload past the end",
                edit(&|b| put_u64_at(b, rows, 1 << 40)),
            ),
        ];
        for (case, bytes) in cases {
            assert_rejected(&bytes, &format!("v1 {case}"));
        }
    }

    #[test]
    fn corruption_classifier_separates_content_from_io() {
        assert!(CheckpointError::BadMagic.is_corruption());
        assert!(CheckpointError::UnsupportedVersion(9).is_corruption());
        assert!(CheckpointError::Truncated.is_corruption());
        assert!(CheckpointError::InvalidUtf8.is_corruption());
        assert!(CheckpointError::ChecksumMismatch.is_corruption());
        assert!(!CheckpointError::Io("disk on fire".into()).is_corruption());
    }

    #[test]
    fn unsupported_version_detected() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[4] = 99; // patch the version field
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert_eq!(err, CheckpointError::UnsupportedVersion(99));
    }

    #[test]
    fn special_floats_survive() {
        let mut ps = ParamSet::new();
        ps.register(
            "w",
            Matrix::row_vector(&[0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, 1e-300]),
        );
        let ck = Checkpoint::new(ps, BTreeMap::new());
        let back = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        let id = back.params.find("w").unwrap();
        let vals = back.params.get(id).value.as_slice().to_vec();
        assert_eq!(vals[2], f64::MIN_POSITIVE);
        assert_eq!(vals[3], f64::MAX);
        assert_eq!(vals[4], 1e-300);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let ck = Checkpoint::default();
        let back = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert!(back.params.is_empty());
        assert!(back.metadata.is_empty());
        let back_v1 = Checkpoint::from_bytes(&v1_bytes(&ck)).unwrap();
        assert!(back_v1.params.is_empty());
    }
}
