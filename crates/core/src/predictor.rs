//! The batched, arena-backed inference subsystem.
//!
//! Bellamy's value proposition is cheap reuse: one pretrained model answers
//! *many* runtime queries per job submission — the §IV allocation search
//! evaluates every candidate scale-out, hyperparameter search scores whole
//! validation sets, and the evaluation harness multiplies both by hundreds
//! of splits. The seed implementation paid per query: a `ContextProperties`
//! clone, a fresh property encoding, a fresh batch assembly, a fresh
//! autograd graph — and it ran the auto-encoder's *decoder* although
//! predictions never use the reconstruction.
//!
//! A [`Predictor`] amortizes all of that:
//!
//! - **Graph arenas** — recycled [`GraphArena`]s (one for batches, one for
//!   sweeps): the tape replays into retained node storage, so the forward
//!   pass allocates nothing once warm.
//! - **Shared encoding cache** — property encodings are deterministic, so
//!   they are computed once per distinct [`PropertyValue`] *per model* and
//!   served from the lock-sharded cache inside [`ModelState`] — one thread's
//!   warm-up benefits every thread serving the same snapshot.
//! - **Batch assembly** — the scale-out features and stacked property rows
//!   are written straight into two reusable matrices recycled through a
//!   capacity-keyed [`BufferPool`].
//! - **Prediction-only forward** — the forward pass skips the decoder and
//!   reconstruction loss entirely (they exist for the training objective
//!   only) and runs each linear layer as one fused matmul+bias+activation
//!   tape op. It is two stages: the *context stage* (encoder `g` over the
//!   stacked property rows, then essential codes ⊕ mean of optional codes)
//!   and the *regression stage* (`f` on the scale-out features, the
//!   concatenation, then `z`).
//! - **Context encoded once per sweep** — a context's codes do not depend
//!   on the scale-out, so [`Predictor::predict_sweep`] runs the context
//!   stage once on the context's `m + n` property rows and copies the one
//!   code row to every candidate; only the regression stage runs per
//!   scale-out. The sweep keeps its own arena and buffers, apart from the
//!   pool that holds the tall matrices large batches leave behind.
//!
//! # Lifecycle and reuse rules
//!
//! A `Predictor` is a plain reusable workspace: it holds **no** model state,
//! so one instance can serve any number of models (methods take an
//! `&`[`ModelState`] explicitly). Reuse rules:
//!
//! - Keep one `Predictor` per thread and reuse it across calls — that is
//!   what makes the steady state allocation-free. [`ModelState::predict`]
//!   does this automatically through a thread-local instance.
//! - A `Predictor` is *not* `Sync`; give each worker thread its own (they
//!   are cheap when cold: all storage grows on demand). The `ModelState`
//!   *is* `Sync` — share one `Arc` across all workers.
//! - Batch sizes may vary freely between calls; each distinct shape is
//!   served from the buffer pool after it has been seen once.
//! - The shared encoding cache is capped
//!   ([`crate::state::ENCODE_CACHE_CAP`] distinct property values); on
//!   overflow a shard is cleared and re-warms — correctness is never
//!   affected, only the amortization.
//!
//! Batched, swept and one-at-a-time predictions agree **bit-for-bit**: every
//! op in the prediction path (fused linears, row slicing, concatenation,
//! code averaging) is row-independent, so a query's result does not depend
//! on its batch neighbors — nor on whether its context code was computed in
//! its own row or copied from a single one. The checkpoint/round-trip and
//! batching tests in `crates/core/tests/predictor.rs` pin this down, and
//! `crates/core/tests/concurrency.rs` extends the guarantee across threads
//! hammering one shared snapshot.

use crate::features::{scale_out_features, ContextProperties};
use crate::model::{ContextCode, EncodedSample};
use crate::state::ModelState;
use bellamy_encoding::PropertyValue;
use bellamy_linalg::{BufferPool, Matrix};
use bellamy_nn::{Graph, GraphArena};
use std::cell::RefCell;

/// One runtime query: a scale-out in a described context. `Copy`, and the
/// properties are *borrowed* — building a query never clones context state.
#[derive(Debug, Clone, Copy)]
pub struct PredictQuery<'a> {
    /// Horizontal scale-out (number of machines).
    pub scale_out: f64,
    /// Descriptive properties of the execution context.
    pub props: &'a ContextProperties,
}

/// Reusable, allocation-free-after-warm-up inference workspace. See the
/// module docs for the lifecycle.
pub struct Predictor {
    arena: GraphArena,
    pool: BufferPool,
    /// `batch x 3` normalized scale-out features.
    sx: Matrix,
    /// `(m + n)·batch x N` stacked property encodings.
    props: Matrix,
    /// Scratch row for `code_for`.
    code_input: Matrix,
    /// [`Predictor::predict_sweep`]'s own workspace.
    sweep: SweepWorkspace,
    /// Output buffer returned by the `predict_*` methods.
    preds: Vec<f64>,
}

/// The sweep's arena and buffers, kept apart from the batch path's, whose
/// pool holds the tall matrices a large [`Predictor::predict_batch`] (or
/// training-MAE scoring) leaves behind: a sweep drawing its small matrices
/// from that pool would change which buffers stay resident.
struct SweepWorkspace {
    arena: GraphArena,
    pool: BufferPool,
    /// `b x 3` normalized scale-out features, one row per candidate.
    sx: Matrix,
    /// `(m + n) x N` property encodings of the swept context.
    props: Matrix,
    /// `b x (m + 1)·M`: the context's code row, copied to every candidate.
    codes: Matrix,
}

impl Default for Predictor {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static THREAD_PREDICTOR: RefCell<Predictor> = RefCell::new(Predictor::new());
}

impl Predictor {
    /// A cold predictor; every buffer grows on first use.
    pub fn new() -> Self {
        Self {
            arena: GraphArena::default(),
            pool: BufferPool::new(),
            sx: Matrix::zeros(0, 0),
            props: Matrix::zeros(0, 0),
            code_input: Matrix::zeros(0, 0),
            sweep: SweepWorkspace {
                arena: GraphArena::default(),
                pool: BufferPool::new(),
                sx: Matrix::zeros(0, 0),
                props: Matrix::zeros(0, 0),
                codes: Matrix::zeros(0, 0),
            },
            preds: Vec::new(),
        }
    }

    /// Runs `f` with this thread's shared predictor — the zero-setup path
    /// [`ModelState::predict`] and friends use so that even ad hoc single
    /// queries reuse a warm arena.
    ///
    /// # Panics
    /// Panics if `f` re-enters (calls another `with_thread_local`-based
    /// API); compute inside `f` with the provided instance instead.
    pub fn with_thread_local<R>(f: impl FnOnce(&mut Predictor) -> R) -> R {
        THREAD_PREDICTOR.with(|p| f(&mut p.borrow_mut()))
    }

    /// Predicted runtimes (seconds) for a batch of queries, in query order.
    /// The returned slice borrows the predictor's output buffer and is valid
    /// until the next call.
    pub fn predict_batch(&mut self, state: &ModelState, queries: &[PredictQuery<'_>]) -> &[f64] {
        let b = queries.len();
        if b == 0 {
            self.preds.clear();
            return &self.preds;
        }
        self.ensure_shapes(state, b);
        let scaler = state.scaler();
        for (i, q) in queries.iter().enumerate() {
            scaler.transform_into(&scale_out_features(q.scale_out), self.sx.row_mut(i));
        }
        let m = state.config().essential_props;
        let n_props = m + state.config().optional_props;
        for (i, q) in queries.iter().enumerate() {
            for k in 0..n_props {
                Self::fill_prop_row(&mut self.props, k * b + i, state, q.props.slot(m, k));
            }
        }
        self.run_forward(state, b)
    }

    /// Predicted runtimes for one context swept over many scale-outs — the
    /// §IV allocation-search shape. The context stage runs once, on the
    /// context's `m + n` property rows (each encoded at most once per
    /// distinct property per model, via the shared cache); its one code row
    /// is copied to every candidate, and only the regression stage runs per
    /// scale-out. Bit-identical to [`Predictor::predict_batch`] over the
    /// same queries, because every prediction op is row-independent.
    pub fn predict_sweep(
        &mut self,
        state: &ModelState,
        props: &ContextProperties,
        scale_outs: &[f64],
    ) -> &[f64] {
        let b = scale_outs.len();
        if b == 0 {
            self.preds.clear();
            return &self.preds;
        }
        let config = state.config();
        let m = config.essential_props;
        let n_props = m + config.optional_props;
        let sweep = &mut self.sweep;
        fit_matrix(&mut sweep.pool, &mut sweep.sx, b, 3);
        fit_matrix(
            &mut sweep.pool,
            &mut sweep.props,
            n_props,
            config.property_dim,
        );
        let scaler = state.scaler();
        for (i, &x) in scale_outs.iter().enumerate() {
            scaler.transform_into(&scale_out_features(x), sweep.sx.row_mut(i));
        }
        for k in 0..n_props {
            Self::fill_prop_row(&mut sweep.props, k, state, props.slot(m, k));
        }
        record_forward(b);

        let mut graph = Graph::from_arena(std::mem::take(&mut sweep.arena), state.params());
        let layers = state.layers();
        let ctx = layers.context_stage(config, &mut graph, &sweep.props, 1);
        let width = ContextCode::width(config);
        fit_matrix(&mut sweep.pool, &mut sweep.codes, b, width);
        let (first, rest) = sweep.codes.as_mut_slice().split_at_mut(width);
        ctx.copy_row(&graph, 0, first);
        for row in rest.chunks_exact_mut(width) {
            row.copy_from_slice(first);
        }
        let codes = ContextCode::from_node(graph.input_ref(&sweep.codes));
        let pred = layers.regression_stage(&mut graph, &sweep.sx, codes);
        collect_preds(&mut self.preds, graph.value(pred), state.target_scale());
        sweep.arena = graph.into_arena();
        &self.preds
    }

    /// Single-query convenience over [`Predictor::predict_batch`].
    pub fn predict_one(
        &mut self,
        state: &ModelState,
        scale_out: f64,
        props: &ContextProperties,
    ) -> f64 {
        let q = PredictQuery { scale_out, props };
        self.predict_batch(state, std::slice::from_ref(&q))[0]
    }

    /// Predicted runtimes for pre-encoded samples (the training-internal
    /// path: validation scoring, training MAE).
    pub(crate) fn predict_encoded(
        &mut self,
        state: &ModelState,
        encoded: &[EncodedSample],
    ) -> &[f64] {
        let b = encoded.len();
        if b == 0 {
            self.preds.clear();
            return &self.preds;
        }
        self.ensure_shapes(state, b);
        for (i, e) in encoded.iter().enumerate() {
            self.sx.row_mut(i).copy_from_slice(&e.sx);
            for (k, p) in e.props.iter().enumerate() {
                self.props.row_mut(k * b + i).copy_from_slice(p);
            }
        }
        self.run_forward(state, b)
    }

    /// The latent code (length `M`) the auto-encoder assigns to one property
    /// (Fig. 4), computed through the shared arena and encoding cache.
    pub fn code_for(&mut self, state: &ModelState, property: &PropertyValue) -> Vec<f64> {
        fit_matrix(
            &mut self.pool,
            &mut self.code_input,
            1,
            state.config().property_dim,
        );
        let code_input = &mut self.code_input;
        state.with_encoding(property, |enc| {
            code_input.row_mut(0).copy_from_slice(enc);
        });
        let arena = std::mem::take(&mut self.arena);
        let mut graph = Graph::from_arena(arena, state.params());
        let code = state.layers().encode_code(&mut graph, &self.code_input);
        let out = graph.value(code).row(0).to_vec();
        self.arena = graph.into_arena();
        out
    }

    /// Resizes the batch matrices for `b` queries, recycling storage through
    /// the pool (allocation-free once each batch size has been seen).
    fn ensure_shapes(&mut self, state: &ModelState, b: usize) {
        let n_dim = state.config().property_dim;
        let n_props = state.config().essential_props + state.config().optional_props;
        if self.sx.shape() != (b, 3) || self.props.shape() != (n_props * b, n_dim) {
            let stale_sx = std::mem::replace(&mut self.sx, Matrix::zeros(0, 0));
            let stale_props = std::mem::replace(&mut self.props, Matrix::zeros(0, 0));
            self.pool.put_matrix(stale_sx);
            self.pool.put_matrix(stale_props);
            self.sx = self.pool.take_matrix(b, 3);
            self.props = self.pool.take_matrix(n_props * b, n_dim);
        }
    }

    /// Writes the encoding of `slot` (or a zero row for a missing property)
    /// into `props` row `row`, through the model's shared cache.
    fn fill_prop_row(
        props: &mut Matrix,
        row: usize,
        state: &ModelState,
        slot: Option<&PropertyValue>,
    ) {
        match slot {
            Some(p) => state.with_encoding(p, |enc| {
                props.row_mut(row).copy_from_slice(enc);
            }),
            None => props.row_mut(row).fill(0.0),
        }
    }

    /// Runs the prediction-only forward pass over the filled batch matrices
    /// and copies the rescaled outputs into the result buffer.
    fn run_forward(&mut self, state: &ModelState, b: usize) -> &[f64] {
        record_forward(b);
        let arena = std::mem::take(&mut self.arena);
        let mut graph = Graph::from_arena(arena, state.params());
        let pred =
            state
                .layers()
                .forward_predict(state.config(), &mut graph, &self.sx, &self.props, b);
        collect_preds(&mut self.preds, graph.value(pred), state.target_scale());
        self.arena = graph.into_arena();
        &self.preds
    }
}

/// Batch-size distribution: every prediction entry point records its rows
/// here, so two `fetch_add`s per *batch* capture the whole process (and
/// stay off the per-row cost).
fn record_forward(rows: usize) {
    let global = bellamy_telemetry::global();
    global.predict_batch_rows.record(rows as u64);
    global.predict_queries.add(rows as u64);
}

/// Refills `preds` with the `rows x 1` prediction column rescaled to
/// seconds.
fn collect_preds(preds: &mut Vec<f64>, values: &Matrix, scale: f64) {
    preds.clear();
    preds.extend(values.as_slice().iter().map(|v| v * scale));
}

/// Reshapes `m` to `rows x cols`, recycling its storage through `pool`
/// (allocation-free once the shape has been seen).
fn fit_matrix(pool: &mut BufferPool, m: &mut Matrix, rows: usize, cols: usize) {
    if m.shape() != (rows, cols) {
        let stale = std::mem::replace(m, Matrix::zeros(0, 0));
        pool.put_matrix(stale);
        *m = pool.take_matrix(rows, cols);
    }
}
