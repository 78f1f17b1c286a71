//! Pre-training (paper §III-A, Table I "Pre-Training").
//!
//! A general model is trained on all available historical executions of an
//! algorithm — across contexts — minimizing the joint objective
//! Huber(runtime) + MSE(reconstruction) with Adam, minibatches of 64, and
//! alpha-dropout inside the auto-encoder.
//!
//! # The zero-allocation, data-parallel step
//!
//! [`Pretrainer`] owns all per-step state: each of its gradient **shards**
//! keeps a reusable graph arena, gradient workspace, and batch tensors.
//! A step draws the whole minibatch's alpha-dropout masks once, on the
//! coordinating thread, from one stream per `(epoch, step)`; splits the
//! minibatch into `shards` contiguous slices; fans the forward/backward
//! passes out over a persistent [`bellamy_par::WorkTeam`], each shard
//! replaying the mask draws of its own rows; and reduces the per-shard
//! gradient maps on the coordinating thread in a **fixed binary-tree
//! order**. So a training row gets the same mask whatever the shard count,
//! and the shard count changes only the floating-point rounding of the
//! reduction; results are bit-identical for any worker count at a fixed
//! shard count, and deterministic run-to-run for a fixed seed. After the
//! first epoch warms the arenas and pools, a step performs zero heap
//! allocations (verified by the counting-allocator test in
//! `tests/zero_alloc.rs`).

use crate::config::PretrainConfig;
use crate::features::TrainingSample;
use crate::model::{BatchTensors, Bellamy, EncodedSample};
use bellamy_linalg::BufferPool;
use bellamy_nn::{metrics, Adam, AdamConfig, GradWorkspace, Graph, GraphArena};
use bellamy_par::WorkTeam;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::cell::UnsafeCell;
use std::time::Instant;

/// Summary of one pre-training run.
#[derive(Debug, Clone)]
pub struct PretrainReport {
    /// Epochs performed.
    pub epochs: usize,
    /// Joint loss of the final epoch (mean over batches).
    pub final_loss: f64,
    /// Training MAE in seconds after the final epoch.
    pub train_mae_s: f64,
    /// Wall-clock time.
    pub elapsed_s: f64,
    /// Number of training samples.
    pub n_samples: usize,
    /// True when training was cut short because the loss or the parameters
    /// went non-finite (e.g. a too-aggressive learning rate in a
    /// hyperparameter-search trial). `final_loss` and `train_mae_s` are NaN
    /// in that case, and the model's parameters are the last *finite* state:
    /// a poisoned gradient skips the update, and an update that itself
    /// overflows is rolled back from the pre-step snapshot.
    pub diverged: bool,
}

/// Everything one gradient shard reuses across steps.
struct Shard {
    arena: Option<GraphArena>,
    ws: GradWorkspace,
    batch: BatchTensors,
    pool: BufferPool,
    /// This step's shard loss (weighted into the batch loss).
    loss: f64,
    /// This step's sample count (the reduction weight numerator).
    rows: usize,
}

impl Shard {
    fn new() -> Self {
        Self {
            arena: Some(GraphArena::default()),
            ws: GradWorkspace::new(),
            batch: BatchTensors::empty(),
            pool: BufferPool::new(),
            loss: 0.0,
            rows: 0,
        }
    }
}

/// Shard cells handed out to the work team; each index is claimed by
/// exactly one worker per step, giving it exclusive access.
struct ShardCells(Vec<UnsafeCell<Shard>>);

// SAFETY: `WorkTeam::run` hands every index to exactly one worker, so no
// cell is ever accessed from two threads at once.
unsafe impl Sync for ShardCells {}

/// A reusable pre-training driver: owns the encoded dataset, the shard
/// workspaces, the optimizer, and the worker team. See the module docs.
pub struct Pretrainer {
    encoded: Vec<EncodedSample>,
    indices: Vec<usize>,
    shards: ShardCells,
    team: WorkTeam,
    opt: Adam,
    rng: StdRng,
    seed: u64,
    cfg: PretrainConfig,
    epoch: usize,
    dropout: f64,
    /// One step's alpha-dropout draws for the whole minibatch (see
    /// [`MaskReplay`]). Sized by the first step, whose batch is the
    /// largest, so a fit that never steps holds none.
    mask_draws: Vec<u64>,
    diverged: bool,
    /// Pre-step parameter snapshot: the rollback target when an optimizer
    /// update overflows to non-finite values (a ~13 KB in-place copy per
    /// step, <1% of a step; keeps the "parameters are always finite"
    /// invariant of [`Pretrainer::diverged`]).
    snapshot: bellamy_nn::ParamSet,
}

impl Pretrainer {
    /// Fits the model's normalization on `samples`, encodes them once, and
    /// prepares shard workspaces and the worker team.
    pub fn new(
        model: &mut Bellamy,
        samples: &[TrainingSample],
        cfg: &PretrainConfig,
        seed: u64,
    ) -> Self {
        assert!(
            !samples.is_empty(),
            "pre-training needs at least one sample"
        );
        assert!(cfg.batch_size > 0, "batch size must be positive");
        model.fit_normalization(samples);
        let encoded = model.encode_samples(samples);
        let n_shards = cfg.effective_shards().max(1);
        let workers = cfg.effective_workers().clamp(1, n_shards);
        Self {
            indices: (0..encoded.len()).collect(),
            encoded,
            shards: ShardCells(
                (0..n_shards)
                    .map(|_| UnsafeCell::new(Shard::new()))
                    .collect(),
            ),
            team: WorkTeam::new(workers),
            opt: Adam::new(
                model.params(),
                AdamConfig::with_lr(cfg.lr).weight_decay(cfg.weight_decay),
            ),
            rng: StdRng::seed_from_u64(seed),
            seed,
            cfg: *cfg,
            epoch: 0,
            dropout: cfg.dropout,
            mask_draws: Vec::new(),
            diverged: false,
            snapshot: model.params().clone(),
        }
    }

    /// Number of encoded training samples.
    pub fn n_samples(&self) -> usize {
        self.encoded.len()
    }

    /// True when a step produced a non-finite loss or would have left
    /// non-finite parameters. Once set, further epochs are no-ops returning
    /// NaN: the forward pass must never run on poisoned parameters (it
    /// would only spread the NaN — and trip the tape's finiteness
    /// debug-assertions).
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// Runs one epoch (shuffle + minibatch steps); returns the mean joint
    /// loss over the epoch's batches. Allocation-free once warm.
    pub fn run_epoch(&mut self, model: &mut Bellamy) -> f64 {
        self.epoch_impl(model, false)
    }

    /// The seed implementation's epoch — fresh graph and allocating
    /// backward per step, sequential, per-property auto-encoder passes.
    /// Kept as the benchmark baseline for the zero-allocation path.
    #[doc(hidden)]
    pub fn run_epoch_legacy(&mut self, model: &mut Bellamy) -> f64 {
        self.epoch_impl(model, true)
    }

    fn epoch_impl(&mut self, model: &mut Bellamy, legacy: bool) -> f64 {
        if self.diverged {
            return f64::NAN;
        }
        shuffle(&mut self.indices, &mut self.rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        let n = self.indices.len();
        let mut start = 0usize;
        let mut step = 0usize;
        while start < n {
            let end = (start + self.cfg.batch_size).min(n);
            // Borrow the chunk without holding `self` (step_* take &mut).
            let (chunk_start, chunk_end) = (start, end);
            let step_started = Instant::now();
            epoch_loss += if legacy {
                self.step_legacy(model, chunk_start, chunk_end, step)
            } else {
                self.step(model, chunk_start, chunk_end, step)
            };
            // Step timing: two fetch_adds per minibatch, allocation-free.
            let global = bellamy_telemetry::global();
            global.train_steps.inc();
            global
                .train_step_nanos
                .record_duration(step_started.elapsed());
            if self.diverged {
                self.epoch += 1;
                return f64::NAN;
            }
            batches += 1;
            start = end;
            step += 1;
        }
        self.epoch += 1;
        epoch_loss / batches as f64
    }

    /// One data-parallel minibatch step over `indices[chunk_start..chunk_end]`.
    fn step(
        &mut self,
        model: &mut Bellamy,
        chunk_start: usize,
        chunk_end: usize,
        step: usize,
    ) -> f64 {
        let chunk = &self.indices[chunk_start..chunk_end];
        let b = chunk.len();
        let n_shards = self.shards.0.len().min(b);
        let per_shard = b.div_ceil(n_shards);
        let mc = model.config();
        let (delta, hidden) = (mc.huber_delta, mc.hidden_dim);
        let stacked_rows = (mc.essential_props + mc.optional_props) * b;
        let dropout = self.dropout;

        // The minibatch's masks come from one stream, drawn in the order a
        // single shard consumes them, so no row's mask depends on the split.
        let draws: &[u64] = if dropout > 0.0 {
            let len = 2 * stacked_rows * hidden;
            if self.mask_draws.len() < len {
                self.mask_draws.resize(len, 0);
            }
            let draws = &mut self.mask_draws[..len];
            let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, self.epoch, step));
            draws.fill_with(|| rng.next_u64());
            draws
        } else {
            &[]
        };

        {
            // Fan the shard passes out; exclusive access per claimed index.
            let model: &Bellamy = model;
            let encoded = &self.encoded;
            let shards = &self.shards;
            self.team.run(n_shards, move |s| {
                // A short tail batch can leave trailing shards without rows
                // (lo past the end), hence the saturating width.
                let lo = (s * per_shard).min(b);
                let hi = ((s + 1) * per_shard).min(b);
                // SAFETY: each shard index is claimed exactly once per step.
                let shard = unsafe { &mut *shards.0[s].get() };
                shard.rows = hi - lo;
                if lo >= hi {
                    shard.loss = 0.0;
                    return;
                }
                model.make_batch_into(encoded, &chunk[lo..hi], &mut shard.batch, &mut shard.pool);
                let mut graph =
                    Graph::from_arena(shard.arena.take().expect("arena parked"), model.params());
                let mut masks = MaskReplay::new(draws, b * hidden, lo * hidden, hi * hidden);
                let dropout = (dropout > 0.0).then_some((dropout, &mut masks));
                let out = model.forward(&mut graph, &shard.batch, dropout);
                let huber = graph
                    .tape
                    .huber_loss(out.pred, &shard.batch.targets_scaled, delta);
                let loss = graph.tape.add(huber, out.recon);
                shard.loss = graph.value(loss)[(0, 0)];
                graph.backward_into(loss, &mut shard.ws);
                shard.arena = Some(graph.into_arena());
            });
        }

        // Deterministic reduction: weight each shard's mean-based gradients
        // by its share of the batch, then sum in a fixed binary tree. The
        // same tree runs for any worker count, so results are bit-identical
        // to the sequential path.
        let active = &mut self.shards.0[..n_shards];
        let mut batch_loss = 0.0;
        for cell in active.iter_mut() {
            let shard = cell.get_mut();
            let w = shard.rows as f64 / b as f64;
            shard.ws.map_mut().scale(w);
            batch_loss += w * shard.loss;
        }
        let mut stride = 1;
        while stride < n_shards {
            let mut i = 0;
            while i + stride < n_shards {
                let (left, right) = active.split_at_mut(i + stride);
                let dst = left[i].get_mut();
                let src = right[0].get_mut();
                dst.ws.map_mut().axpy(1.0, src.ws.map());
                i += 2 * stride;
            }
            stride *= 2;
        }

        // Divergence sentinel (NaN-safe training): a non-finite batch loss
        // means the gradients are already poisoned — skip the update so the
        // parameters stay at their last finite state. A finite loss can
        // still produce non-finite parameters (e.g. a NaN learning rate or
        // an overflowing update), so snapshot, step, verify, and roll back
        // on failure — the model never leaves a step with non-finite
        // parameters.
        if !batch_loss.is_finite() {
            self.diverged = true;
            return batch_loss;
        }
        self.snapshot
            .load_values_from(model.params())
            .expect("snapshot shares the parameter layout");
        let total = self.shards.0[0].get_mut();
        self.opt.step(model.params_mut(), total.ws.map());
        if !model.params().values_all_finite() {
            model
                .params_mut()
                .load_values_from(&self.snapshot)
                .expect("snapshot shares the parameter layout");
            self.diverged = true;
        }
        batch_loss
    }

    /// One seed-style step: allocate a fresh graph, per-property forward,
    /// allocating backward — the baseline the benchmark compares against.
    fn step_legacy(
        &mut self,
        model: &mut Bellamy,
        chunk_start: usize,
        chunk_end: usize,
        step: usize,
    ) -> f64 {
        let chunk = &self.indices[chunk_start..chunk_end];
        let delta = model.config().huber_delta;
        let batch = model.make_batch(&self.encoded, chunk);
        let mut graph = Graph::new(model.params());
        graph.tape.set_reference_scalars(true);
        let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, self.epoch, step));
        let dropout = (self.dropout > 0.0).then_some((self.dropout, &mut rng));
        let out = model.forward_legacy(&mut graph, &batch, dropout);
        let huber = graph
            .tape
            .huber_loss(out.pred, &batch.targets_scaled, delta);
        let loss = graph.tape.add(huber, out.recon);
        let loss_value = graph.value(loss)[(0, 0)];
        let grads = graph.backward(loss);
        drop(graph);
        self.opt.step(model.params_mut(), &grads);
        loss_value
    }

    /// Training MAE (seconds) of the current parameters over the training
    /// set, scored through a snapshot of the handle.
    pub fn train_mae(&self, model: &Bellamy, samples: &[TrainingSample]) -> f64 {
        let state = model.snapshot().expect("pretrainer fitted normalization");
        let preds = crate::Predictor::with_thread_local(|p| {
            p.predict_encoded(&state, &self.encoded).to_vec()
        });
        let targets: Vec<f64> = samples.iter().map(|s| s.runtime_s).collect();
        metrics::mae(&preds, &targets)
    }
}

/// One shard's view of a step's minibatch-wide dropout draws.
///
/// The forward pass draws its masks row-major over the property-stacked
/// matrix: for the minibatch, `(m+n)·b × hidden` draws for the encoder
/// mask, then as many for the decoder mask — `2·(m+n)` row blocks of
/// `b·hidden` draws. A shard holding minibatch rows `lo..hi` stacks only
/// those rows, so it replays the span `lo·hidden..hi·hidden` of every
/// block, in block order. With one shard the spans cover the buffer
/// contiguously and the replay is the stream itself.
struct MaskReplay<'a> {
    draws: &'a [u64],
    /// Next draw to replay.
    pos: usize,
    /// End of the span being replayed.
    end: usize,
    /// Draws per span: `(hi - lo)·hidden`.
    span: usize,
    /// Skip from one span's end to the next span's start:
    /// `(b - (hi - lo))·hidden`.
    gap: usize,
}

impl<'a> MaskReplay<'a> {
    /// Replays draws `lo..hi` of every `block`-long row block of `draws`.
    fn new(draws: &'a [u64], block: usize, lo: usize, hi: usize) -> Self {
        Self {
            draws,
            pos: lo,
            end: hi,
            span: hi - lo,
            gap: block - (hi - lo),
        }
    }
}

impl Rng for MaskReplay<'_> {
    fn next_u64(&mut self) -> u64 {
        if self.pos == self.end {
            self.pos += self.gap;
            self.end = self.pos + self.span;
        }
        let draw = self.draws[self.pos];
        self.pos += 1;
        draw
    }
}

/// Derives the dropout stream of one minibatch step — its encoder and
/// decoder masks for every row — from the master seed (SplitMix64-style
/// finalizer over the packed coordinates).
fn mix_seed(seed: u64, epoch: usize, step: usize) -> u64 {
    let mut z = seed
        ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (step as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pre-trains `model` on `samples`, fitting the scale-out normalization and
/// target scale first (their bounds then persist into fine-tuning and
/// inference, §IV-A).
pub fn pretrain(
    model: &mut Bellamy,
    samples: &[TrainingSample],
    cfg: &PretrainConfig,
    seed: u64,
) -> PretrainReport {
    let start = Instant::now();
    let mut trainer = Pretrainer::new(model, samples, cfg, seed);

    let mut final_loss = f64::NAN;
    let mut epochs = 0;
    for _epoch in 0..cfg.epochs {
        final_loss = trainer.run_epoch(model);
        epochs += 1;
        if trainer.diverged() {
            break;
        }
    }

    PretrainReport {
        epochs,
        final_loss,
        // Never run inference on poisoned parameters; the MAE of a diverged
        // run is meaningless anyway.
        train_mae_s: if trainer.diverged() {
            f64::NAN
        } else {
            trainer.train_mae(model, samples)
        },
        elapsed_s: start.elapsed().as_secs_f64(),
        n_samples: samples.len(),
        diverged: trainer.diverged(),
    }
}

/// Fisher–Yates shuffle (kept local: `rand`'s slice-shuffle extension lives
/// behind an optional feature in 0.10).
fn shuffle(indices: &mut [usize], rng: &mut StdRng) {
    for i in (1..indices.len()).rev() {
        let j = rng.random_range(0..=i);
        indices.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BellamyConfig;
    use crate::features::samples_from_runs;
    use bellamy_data::{generate_c3o, Algorithm, GeneratorConfig};

    fn sgd_cross_context_samples(max_contexts: usize) -> Vec<TrainingSample> {
        let ds = generate_c3o(&GeneratorConfig::default());
        let mut samples = Vec::new();
        for ctx in ds
            .contexts_for(Algorithm::Sgd)
            .into_iter()
            .take(max_contexts)
        {
            let runs = ds.runs_for_context(ctx.id);
            samples.extend(samples_from_runs(&ds, &runs));
        }
        samples
    }

    #[test]
    fn pretraining_reduces_error() {
        let samples = sgd_cross_context_samples(4);
        let mut model = Bellamy::new(BellamyConfig::default(), 3);

        // Error of the untrained (but normalized) model.
        model.fit_normalization(&samples);
        let encoded = model.encode_samples(&samples);
        let state0 = model.snapshot().unwrap();
        let preds0 =
            crate::Predictor::with_thread_local(|p| p.predict_encoded(&state0, &encoded).to_vec());
        let targets: Vec<f64> = samples.iter().map(|s| s.runtime_s).collect();
        let mae0 = bellamy_nn::metrics::mae(&preds0, &targets);

        let cfg = PretrainConfig {
            epochs: 150,
            ..PretrainConfig::default()
        };
        let report = pretrain(&mut model, &samples, &cfg, 11);
        assert!(report.final_loss.is_finite());
        assert!(
            report.train_mae_s < mae0 * 0.8,
            "training should cut MAE substantially: {mae0} -> {}",
            report.train_mae_s
        );
    }

    #[test]
    fn pretraining_is_deterministic() {
        let samples = sgd_cross_context_samples(2);
        let cfg = PretrainConfig {
            epochs: 30,
            ..PretrainConfig::default()
        };
        let mut m1 = Bellamy::new(BellamyConfig::default(), 5);
        let mut m2 = Bellamy::new(BellamyConfig::default(), 5);
        let r1 = pretrain(&mut m1, &samples, &cfg, 9);
        let r2 = pretrain(&mut m2, &samples, &cfg, 9);
        assert_eq!(r1.final_loss, r2.final_loss);
        let p1 = m1.predict(6.0, &samples[0].props).unwrap();
        let p2 = m2.predict(6.0, &samples[0].props).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn sharded_gradients_match_single_shard_bitwise() {
        // The tree reduction must make the data-parallel path bit-identical
        // to the sequential (one worker, same shard structure) path, and
        // shard count 1 must equal a plain full-batch step.
        let samples = sgd_cross_context_samples(1);
        let run = |workers: usize, shards: usize| {
            let cfg = PretrainConfig {
                epochs: 8,
                workers,
                shards,
                ..PretrainConfig::default()
            };
            let mut model = Bellamy::new(BellamyConfig::default(), 17);
            let report = pretrain(&mut model, &samples, &cfg, 23);
            (
                report.final_loss,
                model.predict(6.0, &samples[0].props).unwrap(),
            )
        };
        let sequential = run(1, 4);
        let parallel = run(4, 4);
        assert_eq!(sequential, parallel, "worker count must not change results");
        let two_workers = run(2, 4);
        assert_eq!(sequential, two_workers);
    }

    #[test]
    fn shard_count_does_not_change_the_trained_model() {
        // Dropout masks belong to minibatch rows, not to shards: with the
        // default dropout, every shard count trains the model one shard
        // trains, up to the re-association of the gradient reduction.
        assert!(PretrainConfig::default().dropout > 0.0);
        let samples = sgd_cross_context_samples(1);
        let run = |shards: usize| {
            let cfg = PretrainConfig {
                epochs: 8,
                workers: 1,
                shards,
                ..PretrainConfig::default()
            };
            let mut model = Bellamy::new(BellamyConfig::default(), 17);
            let report = pretrain(&mut model, &samples, &cfg, 23);
            (
                report.final_loss,
                model.predict(6.0, &samples[0].props).unwrap(),
            )
        };
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        let (loss, pred) = run(1);
        for shards in 2..=4 {
            let (l, p) = run(shards);
            assert!(close(l, loss), "{shards} shards: loss {l} vs {loss}");
            assert!(close(p, pred), "{shards} shards: prediction {p} vs {pred}");
        }
    }

    #[test]
    fn legacy_and_optimized_steps_converge_alike() {
        // Same schedule, same seeds: the batched zero-allocation step and
        // the seed-style legacy step follow numerically close trajectories
        // (identical math, different floating-point association).
        let samples = sgd_cross_context_samples(1);
        let cfg = PretrainConfig {
            epochs: 0,
            dropout: 0.0,
            shards: 1,
            workers: 1,
            ..PretrainConfig::default()
        };
        let mut m1 = Bellamy::new(BellamyConfig::default(), 8);
        let mut m2 = Bellamy::new(BellamyConfig::default(), 8);
        let mut t1 = Pretrainer::new(&mut m1, &samples, &cfg, 31);
        let mut t2 = Pretrainer::new(&mut m2, &samples, &cfg, 31);
        let mut l1 = 0.0;
        let mut l2 = 0.0;
        for _ in 0..5 {
            l1 = t1.run_epoch(&mut m1);
            l2 = t2.run_epoch_legacy(&mut m2);
        }
        assert!(
            (l1 - l2).abs() < 1e-6 * l1.abs().max(1.0),
            "optimized {l1} vs legacy {l2}"
        );
        let p1 = m1.predict(6.0, &samples[0].props).unwrap();
        let p2 = m2.predict(6.0, &samples[0].props).unwrap();
        assert!(
            (p1 - p2).abs() < 1e-6 * p1.abs().max(1.0),
            "optimized {p1} vs legacy {p2}"
        );
    }

    #[test]
    fn tail_batch_with_empty_shards_trains_cleanly() {
        // Regression: 13 samples with batch 8 and 4 shards leaves the tail
        // batch (5 rows, per-shard 2) with an empty fourth shard — its row
        // count must clamp to zero (not underflow) and its stale gradients
        // must not leak into the reduction.
        let samples: Vec<TrainingSample> =
            sgd_cross_context_samples(1).into_iter().take(13).collect();
        let cfg = PretrainConfig {
            epochs: 4,
            batch_size: 8,
            workers: 2,
            shards: 4,
            ..PretrainConfig::default()
        };
        let mut model = Bellamy::new(BellamyConfig::default(), 2);
        let report = pretrain(&mut model, &samples, &cfg, 6);
        assert!(report.final_loss.is_finite());
        let p = model.predict(6.0, &samples[0].props).unwrap();
        assert!(
            p.is_finite(),
            "empty shards must not corrupt the update: {p}"
        );

        // And the empty-shard schedule stays bit-identical across worker
        // counts.
        let mut sequential = Bellamy::new(BellamyConfig::default(), 2);
        let seq_report = pretrain(
            &mut sequential,
            &samples,
            &PretrainConfig { workers: 1, ..cfg },
            6,
        );
        assert_eq!(seq_report.final_loss, report.final_loss);
        assert_eq!(sequential.predict(6.0, &samples[0].props).unwrap(), p);
    }

    #[test]
    fn diverging_run_stops_early_and_keeps_finite_parameters() {
        // A NaN learning rate poisons the very first optimizer update. The
        // trainer must detect it, roll the update back, stop training, and
        // report the divergence — leaving the model's parameters finite.
        let samples = sgd_cross_context_samples(1);
        let mut model = Bellamy::new(BellamyConfig::default(), 3);
        let cfg = PretrainConfig {
            epochs: 10,
            lr: f64::NAN,
            ..PretrainConfig::default()
        };
        let report = pretrain(&mut model, &samples, &cfg, 5);
        assert!(report.diverged);
        assert!(report.final_loss.is_nan());
        assert!(report.train_mae_s.is_nan());
        assert!(
            report.epochs < cfg.epochs,
            "training must stop at the diverging epoch, not run the budget"
        );
        assert!(
            model.params().values_all_finite(),
            "the poisoning update must be rolled back"
        );
        // The rolled-back model is still usable for inference.
        assert!(model.predict(6.0, &samples[0].props).unwrap().is_finite());
    }

    #[test]
    fn report_counts_samples() {
        let samples = sgd_cross_context_samples(1);
        let mut model = Bellamy::new(BellamyConfig::default(), 0);
        let cfg = PretrainConfig {
            epochs: 5,
            ..PretrainConfig::default()
        };
        let report = pretrain(&mut model, &samples, &cfg, 0);
        assert_eq!(report.n_samples, samples.len());
        assert_eq!(report.epochs, 5);
        assert!(report.elapsed_s > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_samples_rejected() {
        let mut model = Bellamy::new(BellamyConfig::default(), 0);
        let _ = pretrain(&mut model, &[], &PretrainConfig::default(), 0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v: Vec<usize> = (0..100).collect();
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle should actually permute");
    }
}
