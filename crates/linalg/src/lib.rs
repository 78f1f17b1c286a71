//! Dense linear algebra for the Bellamy reproduction.
//!
//! This crate provides the numeric substrate that the rest of the workspace is
//! built on: a row-major dense [`Matrix`] of `f64` with the kernels needed by
//! the autodiff engine (`bellamy-autograd`), the neural-network toolkit
//! (`bellamy-nn`), and the baseline models (`bellamy-baselines`):
//!
//! - elementwise and broadcast arithmetic, in allocating *and*
//!   output-parameter (`*_into`) forms — the `*_into` kernels are
//!   bit-identical to their allocating counterparts and back the
//!   zero-allocation training hot path,
//! - cache-blocked matrix multiplication (plus the transposed variants used by
//!   back-propagation), also with `*_into` variants,
//! - a [`pool::BufferPool`] recycling 32-byte-aligned backing stores by
//!   capacity, so steady-state training never touches the global allocator
//!   (see the [`pool`] module docs for the take/use/put lifecycle),
//! - Householder QR decomposition and least-squares solving,
//! - a Lawson–Hanson non-negative least squares (NNLS) solver, the same
//!   algorithm scipy's `nnls` implements, which Ernest's parametric runtime
//!   model is fitted with.
//!
//! Everything is implemented from scratch on `std` (no BLAS), with `f64`
//! precision throughout — the matrices in this project are small (at most a few
//! hundred rows), so numerical robustness matters more than GEMM throughput.
//!
//! # Kernel dispatch
//!
//! The hot kernels run through the [`kernels`] dispatch table: a scalar set
//! that is always available, and an AVX2 `f64x4` set on `x86_64`, selected
//! **once per process** via runtime CPU feature detection and overridable
//! with `BELLAMY_KERNEL={auto,scalar}`. The two sets are bit-identical — no
//! FMA contraction, same per-element accumulation order — so the choice
//! never changes results, only throughput. See the [`kernels`] module docs
//! for the contract.
//!
//! # Alignment contract
//!
//! Every owned buffer that backs a [`Matrix`] — freshly allocated or
//! recycled through a [`BufferPool`] — is an [`aligned::AlignedBuf`], whose
//! data pointer is **always 32-byte aligned** (one AVX2 vector). The guarantee is structural (storage is composed of
//! `align(32)` chunks), so it holds for ragged lengths and across pool
//! round-trips.
//!
//! # Storage variants
//!
//! A [`Matrix`] may alternatively *borrow* its elements from a read-only
//! file mapping ([`mmap::Mmap`], wrapped by [`storage::Storage`]) — the
//! zero-copy checkpoint path used by the model hub. Mapped matrices keep
//! the same alignment guarantee (page-aligned map base + 64-byte-aligned
//! file offsets), serve reads bit-identically to owned matrices, panic on
//! mutation, and materialize into owned storage on `clone()`.

pub mod aligned;
pub mod kernels;
pub mod matrix;
pub mod mmap;
pub mod nnls;
pub mod pool;
pub mod qr;
pub mod stats;
pub mod storage;

pub use aligned::AlignedBuf;
pub use matrix::Matrix;
pub use mmap::{Advice, Mmap};
pub use nnls::{nnls, NnlsError, NnlsSolution};
pub use pool::BufferPool;
pub use qr::{lstsq, QrDecomposition};
pub use storage::Storage;
