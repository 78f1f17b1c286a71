//! The Bellamy model: parameters, forward pass, prediction, persistence.
//!
//! Since the model-state split, `Bellamy` is the *trainer handle*: it owns
//! the mutable [`ParamSet`], normalization state, and layer handles, and the
//! training loops in sibling modules drive it. Serving never reads the
//! handle directly — [`Bellamy::snapshot`] publishes an immutable,
//! `Arc`-shared [`ModelState`] that any number of threads predict through
//! (see [`crate::state`] for the split's rationale and [`crate::hub`] for
//! the registry built on top of it).

use crate::config::BellamyConfig;
use crate::features::{scale_out_features, ContextProperties, TrainingSample};
use crate::state::ModelState;
use bellamy_autograd::{Activation, NodeId};
use bellamy_encoding::{MinMaxScaler, PropertyEncoder, PropertyValue};
use bellamy_linalg::{BufferPool, Matrix};
use bellamy_nn::{AlphaDropout, Checkpoint, CheckpointError, Graph, GraphArena, Linear, ParamSet};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Inference was requested from a model that cannot serve it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictError {
    /// The model has never been fitted (no pre-training, fine-tuning, or
    /// checkpoint load has established normalization bounds), so there is no
    /// state to predict with.
    NotFitted,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::NotFitted => write!(
                f,
                "model is not fitted: pre-train, fine-tune, or load a checkpoint first"
            ),
        }
    }
}

impl std::error::Error for PredictError {}

/// A sample with all encodings precomputed (encoding is deterministic, so it
/// is done once per sample, not once per epoch).
#[derive(Debug, Clone)]
pub(crate) struct EncodedSample {
    /// Normalized scale-out features (after the min-max scaler).
    pub sx: [f64; 3],
    /// One `N`-dim vector per property position (`m` essential then `n`
    /// optional).
    pub props: Vec<Vec<f64>>,
    /// Raw runtime in seconds.
    pub target_s: f64,
}

/// A batch of encoded samples as matrices ready for the graph.
///
/// Property encodings are stacked into **one** `(m + n)·batch x N` matrix
/// (rows `[k·batch, (k+1)·batch)` hold property `k` for the whole batch), so
/// the shared auto-encoder runs once over all properties instead of once per
/// property — fewer, taller matmuls and a fraction of the tape nodes.
/// The struct is reusable: [`Bellamy::make_batch_into`] refills it in place.
pub(crate) struct BatchTensors {
    /// `batch x 3` normalized scale-out features.
    pub sx: Matrix,
    /// `(m + n)·batch x N` property encodings, stacked by property.
    pub props: Matrix,
    /// `batch x 1` scaled targets.
    pub targets_scaled: Matrix,
    /// Rows per property block.
    pub batch: usize,
}

impl BatchTensors {
    /// An empty shell to be filled by [`Bellamy::make_batch_into`].
    pub fn empty() -> Self {
        Self {
            sx: Matrix::zeros(0, 0),
            props: Matrix::zeros(0, 0),
            targets_scaled: Matrix::zeros(0, 0),
            batch: 0,
        }
    }
}

/// Property positions (`m + n`) the allocation-free forward pass supports.
const MAX_PROPS: usize = 30;

/// A batch's context code on the tape: the `m` essential codes and the mean
/// optional code (Eq. 5/6) as separate nodes, which the head concatenates
/// after `e` in one pass — or a single node holding them side by side (a
/// constant input of a code computed earlier).
#[derive(Clone, Copy)]
pub(crate) struct ContextCode {
    parts: [NodeId; MAX_PROPS + 1],
    len: usize,
}

impl ContextCode {
    /// A code held in one `batch x (m + 1)·M` node.
    pub fn from_node(node: NodeId) -> Self {
        let mut parts = [0; MAX_PROPS + 1];
        parts[0] = node;
        Self { parts, len: 1 }
    }

    /// Columns of a context code: `(m + 1)·M`.
    pub fn width(config: &BellamyConfig) -> usize {
        (config.essential_props + 1) * config.code_dim
    }

    fn parts(&self) -> &[NodeId] {
        &self.parts[..self.len]
    }

    /// Writes row `row` of the code, its parts side by side, into `out`
    /// ([`ContextCode::width`] wide).
    pub fn copy_row(&self, g: &Graph<'_>, row: usize, out: &mut [f64]) {
        let mut offset = 0;
        for &part in self.parts() {
            let src = g.value(part).row(row);
            out[offset..offset + src.len()].copy_from_slice(src);
            offset += src.len();
        }
    }
}

/// Output node handles from one forward pass.
pub(crate) struct ForwardOut {
    /// `batch x 1` prediction in scaled-target units.
    pub pred: NodeId,
    /// Mean auto-encoder reconstruction MSE across all properties.
    pub recon: NodeId,
}

/// The four two-layer networks of the architecture (§IV-A), as parameter
/// handles into a [`ParamSet`]. The struct is pure *wiring*: it holds no
/// values, so the trainer handle and every published [`ModelState`] share
/// one `Layers` (handles stay valid because snapshots clone the parameter
/// set with an identical layout).
///
/// Prediction is two stages: the [context stage](Layers::context_stage)
/// turns a context's properties into codes that do not depend on the
/// scale-out, and the [regression stage](Layers::regression_stage) maps
/// scale-out features plus those codes to a runtime.
/// [`Layers::forward_predict`] composes them; callers that hold a context
/// fixed run the first stage once. The training [`Layers::forward`] adds
/// dropout and the decoder and shares the code combination and the head.
#[derive(Debug, Clone)]
pub(crate) struct Layers {
    pub f1: Linear,
    pub f2: Linear,
    pub g1: Linear,
    pub g2: Linear,
    pub h1: Linear,
    pub h2: Linear,
    pub z1: Linear,
    pub z2: Linear,
}

impl Layers {
    /// Registers all layer parameters (He/LeCun per `config.init`).
    fn new(params: &mut ParamSet, config: &BellamyConfig, rng: &mut StdRng) -> Self {
        let init = config.init;
        let n = config.property_dim;
        let m = config.code_dim;
        let hid = config.hidden_dim;
        let fh = config.scale_out_hidden_dim;
        let f_out = config.scale_out_dim;
        let r_dim = config.combined_dim();

        // §IV-A: every linear layer is followed by an activation — SELU
        // everywhere except the decoder output (tanh). The auto-encoder
        // waives additive biases.
        Self {
            f1: Linear::new(params, "f.l1", 3, fh, true, Activation::Selu, init, rng),
            f2: Linear::new(params, "f.l2", fh, f_out, true, Activation::Selu, init, rng),
            g1: Linear::new(params, "g.l1", n, hid, false, Activation::Selu, init, rng),
            g2: Linear::new(params, "g.l2", hid, m, false, Activation::Selu, init, rng),
            h1: Linear::new(params, "h.l1", m, hid, false, Activation::Selu, init, rng),
            h2: Linear::new(params, "h.l2", hid, n, false, Activation::Tanh, init, rng),
            z1: Linear::new(
                params,
                "z.l1",
                r_dim,
                hid,
                true,
                Activation::Selu,
                init,
                rng,
            ),
            z2: Linear::new(params, "z.l2", hid, 1, true, Activation::Selu, init, rng),
        }
    }

    /// Rebuilds the wiring over an **existing** parameter set (a decoded
    /// checkpoint) without touching any values — the zero-copy recall path:
    /// where [`Bellamy::from_checkpoint`] constructs a fresh model and
    /// copies weights into it, this validates that the named tensors match
    /// the architecture `config` describes and wires handles straight to
    /// them (mapped or owned alike). Returns `None` when a layer is
    /// missing, has the wrong shape, or has the wrong bias arity.
    pub(crate) fn from_existing(params: &ParamSet, config: &BellamyConfig) -> Option<Self> {
        let n = config.property_dim;
        let m = config.code_dim;
        let hid = config.hidden_dim;
        let fh = config.scale_out_hidden_dim;
        let f_out = config.scale_out_dim;
        let r_dim = config.combined_dim();

        let layer = |name: &str,
                     in_dim: usize,
                     out_dim: usize,
                     bias: bool,
                     act: Activation|
         -> Option<Linear> {
            let l = Linear::from_existing(params, name, act)?;
            (l.in_dim() == in_dim && l.out_dim() == out_dim && l.bias().is_some() == bias)
                .then_some(l)
        };

        Some(Self {
            f1: layer("f.l1", 3, fh, true, Activation::Selu)?,
            f2: layer("f.l2", fh, f_out, true, Activation::Selu)?,
            g1: layer("g.l1", n, hid, false, Activation::Selu)?,
            g2: layer("g.l2", hid, m, false, Activation::Selu)?,
            h1: layer("h.l1", m, hid, false, Activation::Selu)?,
            h2: layer("h.l2", hid, n, false, Activation::Tanh)?,
            z1: layer("z.l1", r_dim, hid, true, Activation::Selu)?,
            z2: layer("z.l2", hid, 1, true, Activation::Selu)?,
        })
    }

    /// Runs the training forward pass for a batch. `dropout` applies
    /// alpha-dropout between the auto-encoder layers (pre-training only),
    /// drawing the encoder mask and then the decoder mask row-major from
    /// the given source.
    ///
    /// The shared auto-encoder runs **once** over the property-stacked
    /// matrix (`(m+n)·batch x N`); per-property codes are recovered with row
    /// slices, and the stacked reconstruction MSE equals the mean of the
    /// per-property MSEs because all blocks have identical size. The codes
    /// are combined and regressed by the same helpers the two prediction
    /// stages use. The pass allocates nothing once the graph's arena is
    /// warm.
    pub fn forward<R: Rng>(
        &self,
        config: &BellamyConfig,
        g: &mut Graph<'_>,
        batch: &BatchTensors,
        dropout: Option<(f64, &mut R)>,
    ) -> ForwardOut {
        let (drop_p, rng) = match dropout {
            Some((p, rng)) => (p, Some(rng)),
            None => (0.0, None),
        };
        let alpha_dropout = AlphaDropout::new(drop_p);

        let e = self.scale_out_branch(g, &batch.sx);

        // Property branch: the shared auto-encoder over all properties at
        // once.
        let mut rng = rng;
        let p_node = g.input_ref(&batch.props);
        let mut enc_hidden = self.g1.forward(g, p_node);
        if let Some(r) = rng.as_deref_mut() {
            enc_hidden = alpha_dropout.forward(g, enc_hidden, true, r);
        }
        let codes = self.g2.forward(g, enc_hidden);
        let mut dec_hidden = self.h1.forward(g, codes);
        if let Some(r) = rng {
            dec_hidden = alpha_dropout.forward(g, dec_hidden, true, r);
        }
        let recon_out = self.h2.forward(g, dec_hidden);
        let recon = g.tape.mse_loss(recon_out, &batch.props);

        let ctx = Self::combine_stacked_codes(config, g, codes, batch.batch);
        let pred = self.head(g, e, ctx);
        ForwardOut { pred, recon }
    }

    /// The **context stage** of prediction: the encoder `g` over a
    /// `(m + n)·batch x N` stacked property matrix, then
    /// `essential codes ⊕ mean(optional codes)` (Eq. 5/6) — a
    /// `batch x (m + 1)·M` code. Nothing here depends on the scale-out, and
    /// fine-tuning never updates `g`, so callers that hold one context
    /// fixed run this once and reuse the code row: the scale-out sweep for
    /// all its candidates, fine-tuning for all its epochs.
    pub fn context_stage(
        &self,
        config: &BellamyConfig,
        g: &mut Graph<'_>,
        props: &Matrix,
        batch: usize,
    ) -> ContextCode {
        let codes = self.encode_code(g, props);
        Self::combine_stacked_codes(config, g, codes, batch)
    }

    /// The **regression stage** of prediction: the scale-out branch `f` on
    /// the `batch x 3` normalized features, concatenated with the context
    /// code (from [`Layers::context_stage`], or a constant input holding
    /// its value), then the regression head `z`.
    pub fn regression_stage(&self, g: &mut Graph<'_>, sx: &Matrix, ctx: ContextCode) -> NodeId {
        let e = self.scale_out_branch(g, sx);
        self.head(g, e, ctx)
    }

    /// The prediction-only forward pass: the context stage composed with
    /// the regression stage — **no decoder and no reconstruction loss**,
    /// which exist only for the training objective. `sx` is `batch x 3`
    /// (normalized scale-out features) and `props` is the
    /// `(m + n)·batch x N` stacked property-encoding matrix. Every op here
    /// is row-independent, so batched and single-query results agree
    /// bit-for-bit. Allocation-free once the graph's arena is warm.
    pub fn forward_predict(
        &self,
        config: &BellamyConfig,
        g: &mut Graph<'_>,
        sx: &Matrix,
        props: &Matrix,
        batch: usize,
    ) -> NodeId {
        let ctx = self.context_stage(config, g, props, batch);
        self.regression_stage(g, sx, ctx)
    }

    /// Encoder-only pass over a `rows x N` property matrix, returning the
    /// `rows x M` code node (Fig. 4 / [`crate::Predictor::code_for`]).
    pub fn encode_code(&self, g: &mut Graph<'_>, props: &Matrix) -> NodeId {
        let p = g.input_ref(props);
        let hidden = self.g1.forward(g, p);
        self.g2.forward(g, hidden)
    }

    /// `e = f(sx)`: the scale-out branch.
    fn scale_out_branch(&self, g: &mut Graph<'_>, sx: &Matrix) -> NodeId {
        let sx = g.input_ref(sx);
        let hidden = self.f1.forward(g, sx);
        self.f2.forward(g, hidden)
    }

    /// Splits the stacked `(m + n)·b`-row code node back into per-property
    /// row blocks and combines them ([`Layers::combine_codes`]); fixed stack
    /// buffers keep the hot path allocation-free.
    fn combine_stacked_codes(
        config: &BellamyConfig,
        g: &mut Graph<'_>,
        codes: NodeId,
        b: usize,
    ) -> ContextCode {
        let n_props = config.essential_props + config.optional_props;
        assert!(
            n_props <= MAX_PROPS,
            "more properties than the forward pass supports"
        );
        let mut blocks = [0 as NodeId; MAX_PROPS];
        for (k, block) in blocks[..n_props].iter_mut().enumerate() {
            *block = g.tape.slice_rows(codes, k * b, (k + 1) * b);
        }
        Self::combine_codes(g, &blocks[..n_props], config.essential_props)
    }

    /// `essential codes ⊕ mean(optional codes)` (Eq. 5/6) from one code
    /// node per property position (`essential` essential ones first) — the
    /// one place the code combination is defined.
    fn combine_codes(g: &mut Graph<'_>, codes: &[NodeId], essential: usize) -> ContextCode {
        let mut parts = [0 as NodeId; MAX_PROPS + 1];
        parts[..essential].copy_from_slice(&codes[..essential]);
        parts[essential] = g.tape.mean_of_nodes(&codes[essential..]);
        ContextCode {
            parts,
            len: essential + 1,
        }
    }

    /// `r = e ⊕ context code` (one concatenation) followed by the
    /// regression head `z`.
    fn head(&self, g: &mut Graph<'_>, e: NodeId, ctx: ContextCode) -> NodeId {
        let mut parts = [0 as NodeId; MAX_PROPS + 2];
        parts[0] = e;
        parts[1..=ctx.len].copy_from_slice(ctx.parts());
        let r = g.tape.concat_cols(&parts[..=ctx.len]);
        let z_hidden = self.z1.forward(g, r);
        self.z2.forward(g, z_hidden)
    }

    /// The seed implementation's forward pass: one auto-encoder application
    /// per property, fresh input clones, per-property reconstruction losses.
    /// Numerically equivalent to [`Layers::forward`] (up to floating-point
    /// association); kept as the baseline the train-step benchmark measures
    /// the batched zero-allocation path against.
    #[doc(hidden)]
    pub fn forward_legacy(
        &self,
        config: &BellamyConfig,
        g: &mut Graph<'_>,
        batch: &BatchTensors,
        dropout: Option<(f64, &mut StdRng)>,
    ) -> ForwardOut {
        let (drop_p, rng) = match dropout {
            Some((p, rng)) => (p, Some(rng)),
            None => (0.0, None),
        };
        let alpha_dropout = AlphaDropout::new(drop_p);

        let sx = g.input(batch.sx.clone());
        let f_hidden = self.f1.forward(g, sx);
        let e = self.f2.forward(g, f_hidden);

        let b = batch.batch;
        let n_dim = config.property_dim;
        let n_props = config.essential_props + config.optional_props;
        let prop_block = |k: usize| {
            Matrix::from_vec(
                b,
                n_dim,
                batch.props.as_slice()[k * b * n_dim..(k + 1) * b * n_dim].to_vec(),
            )
        };

        let mut codes = Vec::with_capacity(n_props);
        let mut recon_losses = Vec::with_capacity(n_props);
        let mut rng = rng;
        for k in 0..n_props {
            let p = prop_block(k);
            let p_node = g.input(p.clone());
            let mut enc_hidden = self.g1.forward(g, p_node);
            if let Some(r) = rng.as_deref_mut() {
                enc_hidden = alpha_dropout.forward(g, enc_hidden, true, r);
            }
            let code = self.g2.forward(g, enc_hidden);
            codes.push(code);

            let mut dec_hidden = self.h1.forward(g, code);
            if let Some(r) = rng.as_deref_mut() {
                dec_hidden = alpha_dropout.forward(g, dec_hidden, true, r);
            }
            let recon = self.h2.forward(g, dec_hidden);
            recon_losses.push(g.tape.mse_loss(recon, &p));
        }

        let ctx = Self::combine_codes(g, &codes, config.essential_props);
        let pred = self.head(g, e, ctx);

        let mut recon = recon_losses[0];
        for &l in &recon_losses[1..] {
            recon = g.tape.add(recon, l);
        }
        let recon = g.tape.scale(recon, 1.0 / recon_losses.len() as f64);

        ForwardOut { pred, recon }
    }
}

/// The Bellamy trainer handle (see the crate docs for the architecture
/// diagram and [`ModelState`] for the serving half of the split).
pub struct Bellamy {
    config: BellamyConfig,
    params: ParamSet,
    layers: Layers,
    encoder: PropertyEncoder,
    /// Fitted on first training; `None` means the model has never seen data.
    scaler: Option<MinMaxScaler>,
    /// Targets are divided by this during training and multiplied back at
    /// inference (1.0 when `config.scale_targets` is off).
    target_scale: f64,
    /// Mutation counter: bumped by every path that can change what a
    /// snapshot would contain, so [`Bellamy::snapshot`] knows when its
    /// cached `Arc` is still current (copy-on-write publishing).
    version: AtomicU64,
    /// The last published snapshot, keyed by the version it was taken at.
    snapshot_cache: Mutex<Option<(u64, Arc<ModelState>)>>,
}

impl Bellamy {
    /// Creates a freshly-initialized model.
    pub fn new(config: BellamyConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let layers = Layers::new(&mut params, &config, &mut rng);
        let encoder = PropertyEncoder::new(config.property_dim);
        Self {
            config,
            params,
            layers,
            encoder,
            scaler: None,
            target_scale: 1.0,
            version: AtomicU64::new(0),
            snapshot_cache: Mutex::new(None),
        }
    }

    /// Reconstructs a mutable trainer handle from a published snapshot —
    /// the "recall" direction of the model-reuse workflow: take a shared
    /// immutable state and derive a private handle to fine-tune. The
    /// handle's parameters are a bit-identical copy; the snapshot is never
    /// affected by anything done to the handle.
    pub fn from_state(state: &ModelState) -> Self {
        Self {
            config: state.config().clone(),
            params: state.params().clone(),
            layers: state.layers().clone(),
            encoder: state.encoder().clone(),
            scaler: Some(state.scaler().clone()),
            target_scale: state.target_scale(),
            version: AtomicU64::new(0),
            snapshot_cache: Mutex::new(None),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &BellamyConfig {
        &self.config
    }

    /// Marks the handle mutated: the next [`Bellamy::snapshot`] call must
    /// rebuild instead of serving the cached `Arc`.
    fn bump_version(&mut self) {
        *self.version.get_mut() += 1;
    }

    /// Mutable access to the parameters (training loops live in sibling
    /// modules). Taking this invalidates the cached snapshot.
    pub(crate) fn params_mut(&mut self) -> &mut ParamSet {
        self.bump_version();
        &mut self.params
    }

    /// Immutable access to the parameters.
    pub(crate) fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Whether the model has been fitted (scaler present).
    pub fn is_fitted(&self) -> bool {
        self.scaler.is_some()
    }

    /// Publishes the current fitted state as an immutable, `Arc`-shared
    /// [`ModelState`] for serving.
    ///
    /// Publishing is copy-on-write: the first call after a mutation clones
    /// the parameters and scalers once; further calls on an unchanged
    /// handle return the same `Arc` (a reference-count bump, no copy, no
    /// allocation). Training the handle afterwards never moves a snapshot
    /// that is already out.
    pub fn snapshot(&self) -> Result<Arc<ModelState>, PredictError> {
        if self.scaler.is_none() {
            return Err(PredictError::NotFitted);
        }
        let version = self.version.load(Ordering::Acquire);
        let mut cached = self.snapshot_cache.lock();
        if let Some((v, state)) = cached.as_ref() {
            if *v == version {
                return Ok(Arc::clone(state));
            }
        }
        let state = Arc::new(self.build_state()?);
        *cached = Some((version, Arc::clone(&state)));
        Ok(state)
    }

    /// The fitted state, or `None` when the model has never been fitted —
    /// the question the old API answered with a documented panic.
    pub fn fitted(&self) -> Option<Arc<ModelState>> {
        self.snapshot().ok()
    }

    /// Builds a fresh (uncached, un-shared) state — the hub uses this to
    /// attach lineage before publishing.
    pub(crate) fn build_state(&self) -> Result<ModelState, PredictError> {
        let scaler = self.scaler.clone().ok_or(PredictError::NotFitted)?;
        Ok(ModelState::new(
            self.config.clone(),
            self.layers.clone(),
            self.params.clone(),
            self.encoder.clone(),
            scaler,
            self.target_scale,
        ))
    }

    /// The target scale (1.0 until fitted or when scaling is disabled).
    pub fn target_scale(&self) -> f64 {
        self.target_scale
    }

    /// Fits the scale-out scaler and target scale on training samples.
    /// Called by pre-training always, and by fine-tuning only when the model
    /// has never been fitted (the paper reuses pre-training bounds at
    /// fine-tuning time).
    pub(crate) fn fit_normalization(&mut self, samples: &[TrainingSample]) {
        assert!(
            !samples.is_empty(),
            "cannot fit normalization on no samples"
        );
        self.bump_version();
        let rows: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| scale_out_features(s.scale_out).to_vec())
            .collect();
        self.scaler = Some(MinMaxScaler::fit(&rows));
        self.target_scale = if self.config.scale_targets {
            let mean = samples.iter().map(|s| s.runtime_s).sum::<f64>() / samples.len() as f64;
            mean.max(1e-9)
        } else {
            1.0
        };
    }

    /// Encodes samples with the fitted scaler. Each distinct property value
    /// is encoded once per call, not once per sample: the samples of one
    /// job (often all of them) share a context.
    ///
    /// # Panics
    /// Panics if the model has not been fitted.
    pub(crate) fn encode_samples(&self, samples: &[TrainingSample]) -> Vec<EncodedSample> {
        let scaler = self
            .scaler
            .as_ref()
            .expect("model must be fitted before encoding");
        let mut memo = HashMap::new();
        samples
            .iter()
            .map(|s| {
                let sx = scaler.transform(&scale_out_features(s.scale_out));
                let props = self.encode_property_vectors(&s.props, &mut memo);
                EncodedSample {
                    sx: [sx[0], sx[1], sx[2]],
                    props,
                    target_s: s.runtime_s,
                }
            })
            .collect()
    }

    /// Encodes the `m` essential + `n` optional properties, padding or
    /// truncating to the configured counts (limited knowledge is allowed —
    /// §III-C): any missing slot, essential or optional, becomes a zero
    /// vector. [`crate::Predictor`]'s batch assembly follows the same rule
    /// through [`ContextProperties::slot`], so batched and encoded
    /// predictions agree. `memo` holds the encodings already computed.
    fn encode_property_vectors<'a>(
        &self,
        props: &'a ContextProperties,
        memo: &mut HashMap<&'a PropertyValue, Vec<f64>>,
    ) -> Vec<Vec<f64>> {
        let m = self.config.essential_props;
        (0..m + self.config.optional_props)
            .map(|k| match props.slot(m, k) {
                Some(p) => memo
                    .entry(p)
                    .or_insert_with(|| self.encoder.encode(p))
                    .clone(),
                None => vec![0.0; self.config.property_dim],
            })
            .collect()
    }

    /// Assembles a batch from encoded samples (gathered by `indices`).
    pub(crate) fn make_batch(&self, encoded: &[EncodedSample], indices: &[usize]) -> BatchTensors {
        let mut out = BatchTensors::empty();
        let mut pool = BufferPool::new();
        self.make_batch_into(encoded, indices, &mut out, &mut pool);
        out
    }

    /// Refills `out` from encoded samples (gathered by `indices`), reusing
    /// its matrices when the batch size is unchanged and recycling their
    /// storage through `pool` otherwise — allocation-free once every batch
    /// size has been seen.
    pub(crate) fn make_batch_into(
        &self,
        encoded: &[EncodedSample],
        indices: &[usize],
        out: &mut BatchTensors,
        pool: &mut BufferPool,
    ) {
        assert!(!indices.is_empty(), "empty batch");
        let b = indices.len();
        let n_dim = self.config.property_dim;
        let n_props = self.config.essential_props + self.config.optional_props;
        if out.sx.shape() != (b, 3) || out.props.shape() != (n_props * b, n_dim) {
            let stale = std::mem::replace(out, BatchTensors::empty());
            pool.put_matrix(stale.sx);
            pool.put_matrix(stale.props);
            pool.put_matrix(stale.targets_scaled);
            out.sx = pool.take_matrix(b, 3);
            out.props = pool.take_matrix(n_props * b, n_dim);
            out.targets_scaled = pool.take_matrix(b, 1);
        }
        out.batch = b;
        for (i, &src) in indices.iter().enumerate() {
            let e = &encoded[src];
            out.sx.row_mut(i).copy_from_slice(&e.sx);
            out.targets_scaled[(i, 0)] = e.target_s / self.target_scale;
        }
        for k in 0..n_props {
            for (i, &src) in indices.iter().enumerate() {
                out.props
                    .row_mut(k * b + i)
                    .copy_from_slice(&encoded[src].props[k]);
            }
        }
    }

    /// Training forward pass (see [`Layers::forward`]).
    pub(crate) fn forward<R: Rng>(
        &self,
        g: &mut Graph<'_>,
        batch: &BatchTensors,
        dropout: Option<(f64, &mut R)>,
    ) -> ForwardOut {
        self.layers.forward(&self.config, g, batch, dropout)
    }

    /// The context stage ([`Layers::context_stage`]) of a batch, evaluated
    /// once into a constant `batch x (m + 1)·M` matrix, in `arena` (which
    /// the caller's training graph then recycles). Fine-tuning feeds it to
    /// every epoch's regression stage: it never updates `g`, so the codes
    /// cannot change during a run.
    pub(crate) fn context_codes(&self, batch: &BatchTensors, arena: &mut GraphArena) -> Matrix {
        let mut graph = Graph::from_arena(std::mem::take(arena), &self.params);
        let ctx = self
            .layers
            .context_stage(&self.config, &mut graph, &batch.props, batch.batch);
        let mut codes = Matrix::zeros(batch.batch, ContextCode::width(&self.config));
        for i in 0..batch.batch {
            ctx.copy_row(&graph, i, codes.row_mut(i));
        }
        *arena = graph.into_arena();
        codes
    }

    /// The regression stage (see [`Layers::regression_stage`]) over a
    /// constant context-code node, such as [`Bellamy::context_codes`]'s
    /// matrix put on the tape.
    pub(crate) fn regression_stage(&self, g: &mut Graph<'_>, sx: &Matrix, ctx: NodeId) -> NodeId {
        self.layers
            .regression_stage(g, sx, ContextCode::from_node(ctx))
    }

    /// Seed-style forward pass (see [`Layers::forward_legacy`]).
    #[doc(hidden)]
    pub(crate) fn forward_legacy(
        &self,
        g: &mut Graph<'_>,
        batch: &BatchTensors,
        dropout: Option<(f64, &mut StdRng)>,
    ) -> ForwardOut {
        self.layers.forward_legacy(&self.config, g, batch, dropout)
    }

    /// Predicts the runtime (seconds) for a scale-out in a described
    /// context, or [`PredictError::NotFitted`] for a model that has never
    /// been fitted or loaded.
    ///
    /// A convenience over `self.snapshot()?.predict(..)`: for repeated
    /// queries, snapshot once and predict through the [`ModelState`] (which
    /// is also what can be shared across threads). The call is
    /// allocation-free once the snapshot cache and this thread's predictor
    /// arena are warm; for many queries at once, prefer
    /// [`crate::Predictor::predict_batch`] / [`crate::Predictor::predict_sweep`].
    pub fn predict(&self, scale_out: f64, props: &ContextProperties) -> Result<f64, PredictError> {
        Ok(self.snapshot()?.predict(scale_out, props))
    }

    /// The latent code (length `M`) the auto-encoder assigns to one property
    /// — the vectors visualized in Fig. 4 — or [`PredictError::NotFitted`]
    /// for a model that has never been fitted or loaded.
    pub fn code_for(&self, property: &PropertyValue) -> Result<Vec<f64>, PredictError> {
        Ok(self.snapshot()?.code_for(property))
    }

    /// The seed implementation's prediction path, kept verbatim as the
    /// baseline the `predict` benchmark measures the batched predictor
    /// against: clone the properties into a dummy training sample, encode,
    /// assemble a one-row batch, build a fresh graph, and run the full
    /// training forward (per-property auto-encoder passes, decoder and
    /// reconstruction included) on libm scalar math.
    #[doc(hidden)]
    pub fn predict_reference(&self, scale_out: f64, props: &ContextProperties) -> f64 {
        let sample = TrainingSample {
            scale_out,
            runtime_s: 0.0,
            props: props.clone(),
        };
        let encoded = self.encode_samples(std::slice::from_ref(&sample));
        let batch = self.make_batch(&encoded, &[0]);
        let mut graph = Graph::new(&self.params);
        graph.tape.set_reference_scalars(true);
        let out = self.forward_legacy(&mut graph, &batch, None);
        graph.value(out.pred)[(0, 0)] * self.target_scale
    }

    /// Freezes/unfreezes a component by prefix (`"f."`, `"g."`, `"h."`,
    /// `"z."`). Returns the number of affected parameters.
    pub fn set_component_trainable(&mut self, prefix: &str, trainable: bool) -> usize {
        self.bump_version();
        self.params.set_trainable_by_prefix(prefix, trainable)
    }

    /// Re-initializes a component (used by the reset reuse strategies).
    pub fn reinit_component(&mut self, prefix: &str, seed: u64) -> usize {
        self.bump_version();
        let init = self.config.init;
        let mut rng = StdRng::seed_from_u64(seed);
        self.params.reinit_by_prefix(prefix, init, &mut rng)
    }

    /// Serializes the model (weights + normalization state + dims).
    pub fn to_checkpoint(&self) -> Checkpoint {
        let meta = checkpoint_metadata(&self.config, self.scaler.as_ref(), self.target_scale);
        Checkpoint::new(self.params.clone(), meta)
    }

    /// Restores a model from a checkpoint produced by
    /// [`Bellamy::to_checkpoint`] (or [`ModelState::to_checkpoint`]).
    pub fn from_checkpoint(ck: &Checkpoint) -> Result<Self, CheckpointError> {
        let config = config_from_metadata(ck)?;
        let mut model = Bellamy::new(config, 0);
        model
            .params
            .load_values_from(&ck.params)
            .map_err(CheckpointError::Io)?;
        // Restore trainability flags too.
        for (_, p) in ck.params.iter() {
            if let Some(id) = model.params.find(&p.name) {
                model.params.get_mut(id).trainable = p.trainable;
            }
        }
        model.target_scale = target_scale_from_metadata(ck);
        model.scaler = scaler_from_metadata(ck);
        Ok(model)
    }

    /// Saves to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), CheckpointError> {
        self.to_checkpoint().save(path)
    }

    /// Loads from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, CheckpointError> {
        Self::from_checkpoint(&Checkpoint::load(path)?)
    }

    /// Deep-copies the model (fresh parameter storage).
    pub fn clone_model(&self) -> Self {
        Self::from_checkpoint(&self.to_checkpoint()).expect("round trip of a valid model")
    }
}

/// Reconstructs the [`BellamyConfig`] a checkpoint's metadata describes —
/// shared by [`Bellamy::from_checkpoint`] (fresh model + value copy) and
/// [`ModelState::from_checkpoint`] (zero-copy wiring over the decoded
/// parameters).
pub(crate) fn config_from_metadata(ck: &Checkpoint) -> Result<BellamyConfig, CheckpointError> {
    let get_dim = |key: &str| -> Result<usize, CheckpointError> {
        ck.metadata
            .get(key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| CheckpointError::Io(format!("missing/invalid metadata {key}")))
    };
    Ok(BellamyConfig {
        property_dim: get_dim("property_dim")?,
        code_dim: get_dim("code_dim")?,
        hidden_dim: get_dim("hidden_dim")?,
        scale_out_hidden_dim: get_dim("scale_out_hidden_dim")?,
        scale_out_dim: get_dim("scale_out_dim")?,
        essential_props: get_dim("essential_props")?,
        optional_props: get_dim("optional_props")?,
        scale_targets: ck
            .metadata
            .get("scale_targets")
            .map(|v| v == "true")
            .unwrap_or(true),
        huber_delta: ck
            .metadata
            .get("huber_delta")
            .and_then(|v| v.parse().ok())
            .unwrap_or(1.0),
        // Older checkpoints (pre-PR 4) carry no init entry; they were
        // all written by He-initialized default configs. A *present but
        // unrecognized* value is a different situation — substituting a
        // default there would silently change reset-strategy redraws —
        // so it is rejected instead.
        init: match ck.metadata.get("init") {
            None => BellamyConfig::default().init,
            Some(v) => parse_init(v).ok_or_else(|| {
                CheckpointError::Io(format!("unrecognized init scheme in checkpoint: {v}"))
            })?,
        },
    })
}

/// Parses the fitted scale-out scaler from checkpoint metadata, if present.
pub(crate) fn scaler_from_metadata(ck: &Checkpoint) -> Option<MinMaxScaler> {
    match (
        ck.metadata.get("scaler_mins"),
        ck.metadata.get("scaler_maxs"),
    ) {
        (Some(mins), Some(maxs)) => Some(MinMaxScaler::from_bounds(
            parse_floats(mins),
            parse_floats(maxs),
        )),
        _ => None,
    }
}

/// Parses the target scale from checkpoint metadata (1.0 when absent).
pub(crate) fn target_scale_from_metadata(ck: &Checkpoint) -> f64 {
    ck.metadata
        .get("target_scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Checkpoint metadata shared by the handle and [`ModelState`] (both
/// serialize to the same format, so either side can restore from either).
pub(crate) fn checkpoint_metadata(
    config: &BellamyConfig,
    scaler: Option<&MinMaxScaler>,
    target_scale: f64,
) -> BTreeMap<String, String> {
    let mut meta = BTreeMap::new();
    meta.insert("model".into(), "bellamy".into());
    meta.insert("property_dim".into(), config.property_dim.to_string());
    meta.insert("code_dim".into(), config.code_dim.to_string());
    meta.insert("hidden_dim".into(), config.hidden_dim.to_string());
    meta.insert(
        "scale_out_hidden_dim".into(),
        config.scale_out_hidden_dim.to_string(),
    );
    meta.insert("scale_out_dim".into(), config.scale_out_dim.to_string());
    meta.insert("essential_props".into(), config.essential_props.to_string());
    meta.insert("optional_props".into(), config.optional_props.to_string());
    meta.insert("scale_targets".into(), config.scale_targets.to_string());
    meta.insert("huber_delta".into(), config.huber_delta.to_string());
    meta.insert("init".into(), format!("{:?}", config.init));
    meta.insert("target_scale".into(), format!("{target_scale:e}"));
    if let Some(s) = scaler {
        meta.insert("scaler_mins".into(), join_floats(s.mins()));
        meta.insert("scaler_maxs".into(), join_floats(s.maxs()));
    }
    meta
}

/// Inverse of the `{:?}` rendering `checkpoint_metadata` writes. The reset
/// reuse strategies re-draw components with `config.init`, so losing it on
/// reload would silently change `partial-reset`/`full-reset` trajectories
/// for non-default configurations.
fn parse_init(s: &str) -> Option<bellamy_nn::Init> {
    match s {
        "HeNormal" => Some(bellamy_nn::Init::HeNormal),
        "LecunNormal" => Some(bellamy_nn::Init::LecunNormal),
        "XavierNormal" => Some(bellamy_nn::Init::XavierNormal),
        "Zeros" => Some(bellamy_nn::Init::Zeros),
        _ => None,
    }
}

fn join_floats(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:e}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_floats(s: &str) -> Vec<f64> {
    s.split(',').filter_map(|t| t.parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::context_properties;
    use bellamy_data::{generate_c3o, Algorithm, GeneratorConfig};

    fn fitted_model() -> (Bellamy, Vec<TrainingSample>) {
        let ds = generate_c3o(&GeneratorConfig::default());
        let ctx = ds.contexts_for(Algorithm::Sgd)[0];
        let runs = ds.runs_for_context(ctx.id);
        let samples = crate::features::samples_from_runs(&ds, &runs);
        let mut model = Bellamy::new(BellamyConfig::default(), 7);
        model.fit_normalization(&samples);
        (model, samples)
    }

    #[test]
    fn parameter_inventory_matches_architecture() {
        let model = Bellamy::new(BellamyConfig::default(), 0);
        let p = model.params();
        // f: (3x16 + 16) + (16x8 + 8); g: 40x8 + 8x4; h: 4x8 + 8x40;
        // z: (28x8 + 8) + (8x1 + 1).
        let expected = (3 * 16 + 16)
            + (16 * 8 + 8)
            + (40 * 8)
            + (8 * 4)
            + (4 * 8)
            + (8 * 40)
            + (28 * 8 + 8)
            + (8 + 1);
        assert_eq!(p.num_scalars(), expected);
        // Auto-encoder has no biases.
        assert!(p.find("g.l1.bias").is_none());
        assert!(p.find("h.l2.bias").is_none());
        assert!(p.find("f.l1.bias").is_some());
        assert!(p.find("z.l2.bias").is_some());
    }

    #[test]
    fn forward_shapes_and_finiteness() {
        let (model, samples) = fitted_model();
        let encoded = model.encode_samples(&samples);
        let batch = model.make_batch(&encoded, &[0, 1, 2, 3]);
        let mut graph = Graph::new(model.params());
        let out = model.forward::<StdRng>(&mut graph, &batch, None);
        assert_eq!(graph.value(out.pred).shape(), (4, 1));
        assert_eq!(graph.value(out.recon).shape(), (1, 1));
        assert!(graph.value(out.pred).all_finite());
        assert!(graph.value(out.recon)[(0, 0)] >= 0.0);
    }

    #[test]
    fn predict_is_deterministic_and_finite() {
        let (model, samples) = fitted_model();
        let p1 = model.predict(6.0, &samples[0].props).unwrap();
        let p2 = model.predict(6.0, &samples[0].props).unwrap();
        assert_eq!(p1, p2);
        assert!(p1.is_finite());
    }

    #[test]
    fn untrained_model_reports_not_fitted() {
        let model = Bellamy::new(BellamyConfig::default(), 0);
        let ds = generate_c3o(&GeneratorConfig::default());
        let props = context_properties(&ds.contexts[0]);
        assert_eq!(model.predict(4.0, &props), Err(PredictError::NotFitted));
        assert_eq!(
            model.code_for(&PropertyValue::text("m4.2xlarge")),
            Err(PredictError::NotFitted)
        );
        assert!(model.fitted().is_none());
        assert!(model.snapshot().is_err());
        assert!(PredictError::NotFitted.to_string().contains("not fitted"));
    }

    #[test]
    fn snapshot_is_copy_on_write() {
        let (mut model, samples) = fitted_model();
        let s1 = model.snapshot().unwrap();
        let s2 = model.snapshot().unwrap();
        assert!(
            Arc::ptr_eq(&s1, &s2),
            "unchanged handle must republish the same Arc"
        );
        let before = s1.predict(4.0, &samples[0].props);

        // Mutating the handle must not move the published snapshot, and the
        // next snapshot must be a fresh one.
        model.reinit_component("z.", 99);
        let s3 = model.snapshot().unwrap();
        assert!(!Arc::ptr_eq(&s1, &s3), "mutation must invalidate the cache");
        assert_eq!(
            before,
            s1.predict(4.0, &samples[0].props),
            "published snapshots are immutable"
        );
        assert_ne!(before, s3.predict(4.0, &samples[0].props));
    }

    #[test]
    fn from_state_round_trip_is_bit_identical_and_independent() {
        let (model, samples) = fitted_model();
        let state = model.snapshot().unwrap();
        let mut handle = Bellamy::from_state(&state);
        assert_eq!(
            handle.params().values_fingerprint(),
            model.params().values_fingerprint(),
            "recalled handle must carry bit-identical weights"
        );
        let a = state.predict(6.0, &samples[0].props);
        let b = handle.predict(6.0, &samples[0].props).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        // Mutating the handle must not disturb the state it came from.
        handle.reinit_component("z.", 1);
        assert_eq!(a.to_bits(), state.predict(6.0, &samples[0].props).to_bits());
    }

    #[test]
    fn checkpoint_round_trip_preserves_predictions() {
        let (model, samples) = fitted_model();
        let ck = model.to_checkpoint();
        let restored = Bellamy::from_checkpoint(&ck).unwrap();
        for s in samples.iter().take(3) {
            let a = model.predict(s.scale_out, &s.props).unwrap();
            let b = restored.predict(s.scale_out, &s.props).unwrap();
            assert!(
                (a - b).abs() < 1e-12,
                "prediction drift after reload: {a} vs {b}"
            );
        }
        assert_eq!(restored.target_scale(), model.target_scale());
    }

    #[test]
    fn checkpoint_round_trip_preserves_init_scheme() {
        // The reset reuse strategies re-draw components with config.init;
        // a reload that silently fell back to the default init would change
        // partial-reset/full-reset trajectories for non-default configs.
        let ds = generate_c3o(&GeneratorConfig::default());
        let ctx = ds.contexts_for(Algorithm::Sgd)[0];
        let samples = crate::features::samples_from_runs(&ds, &ds.runs_for_context(ctx.id));
        let mut model = Bellamy::new(
            BellamyConfig {
                init: bellamy_nn::Init::LecunNormal,
                ..BellamyConfig::default()
            },
            7,
        );
        model.fit_normalization(&samples);
        let mut restored = Bellamy::from_checkpoint(&model.to_checkpoint()).unwrap();
        assert_eq!(restored.config().init, bellamy_nn::Init::LecunNormal);
        // Reinit draws the same values on both sides — same scheme, same
        // seed, same shapes.
        model.reinit_component("z.", 3);
        restored.reinit_component("z.", 3);
        assert_eq!(
            model.params().values_fingerprint(),
            restored.params().values_fingerprint(),
            "reinit after reload must follow the original init scheme"
        );
    }

    #[test]
    fn clone_model_is_independent() {
        let (mut model, samples) = fitted_model();
        let copy = model.clone_model();
        let before = copy.predict(4.0, &samples[0].props).unwrap();
        // Mutate the original; the copy must not move.
        model.reinit_component("z.", 99);
        let after = copy.predict(4.0, &samples[0].props).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn codes_distinguish_contexts() {
        let (model, _) = fitted_model();
        let a = model.code_for(&PropertyValue::text("m4.2xlarge")).unwrap();
        let b = model.code_for(&PropertyValue::text("r4.2xlarge")).unwrap();
        assert_eq!(a.len(), 4);
        let diff: f64 = a.iter().zip(b.iter()).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-9, "distinct properties must get distinct codes");
    }

    #[test]
    fn freeze_and_reinit_components() {
        let (mut model, _) = fitted_model();
        assert_eq!(model.set_component_trainable("g.", false), 2);
        assert_eq!(model.set_component_trainable("f.", false), 4);
        assert_eq!(model.reinit_component("z.", 5), 4);
    }

    #[test]
    fn missing_optional_properties_fall_back() {
        let (model, samples) = fitted_model();
        let mut props = samples[0].props.clone();
        props.optional.clear();
        // Must not panic; zero vectors stand in.
        let p = model.predict(4.0, &props).unwrap();
        assert!(p.is_finite());
    }
}
