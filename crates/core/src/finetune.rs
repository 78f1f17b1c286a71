//! Fine-tuning and model reuse (paper §III-A, Table I "Fine-Tuning",
//! §IV-C2 reuse strategies).
//!
//! Fine-tuning loads a pre-trained model, freezes most components, and
//! continues training for a short period on the few samples from the
//! concrete context: Huber loss only, no dropout, cyclical learning rate in
//! `(1e-2, 1e-3)`, early stop at MAE ≤ 5 s or 1000 stale epochs, best state
//! kept for inference. Only `z` trains at first; `f` unfreezes after a
//! number of epochs that depends on the sample count. The auto-encoder is
//! never updated.

use crate::config::FinetuneConfig;
use crate::features::TrainingSample;
use crate::model::Bellamy;
use bellamy_nn::{
    metrics, AnyOptimizer, CyclicalAnnealingLr, EarlyStopping, GradWorkspace, Graph, GraphArena,
    LrSchedule, StopDecision,
};
use std::time::Instant;

/// How an existing model's weights are reused in a new context or
/// environment (§IV-C2). `PartialUnfreeze` is also the default ad hoc
/// fine-tuning mode of §IV-C1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseStrategy {
    /// Adapt `z` immediately, unfreeze `f` later (the paper's default).
    PartialUnfreeze,
    /// Adapt `f` and `z` together from the start.
    FullUnfreeze,
    /// Re-initialize `z`, then fine-tune as in `PartialUnfreeze` (escape a
    /// previously found local minimum).
    PartialReset,
    /// Re-initialize both `f` and `z` and train them from the start (derive
    /// a new understanding of the scale-out behaviour).
    FullReset,
}

impl ReuseStrategy {
    /// All strategies, in the paper's presentation order.
    pub const ALL: [ReuseStrategy; 4] = [
        ReuseStrategy::PartialUnfreeze,
        ReuseStrategy::FullUnfreeze,
        ReuseStrategy::PartialReset,
        ReuseStrategy::FullReset,
    ];

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            ReuseStrategy::PartialUnfreeze => "partial-unfreeze",
            ReuseStrategy::FullUnfreeze => "full-unfreeze",
            ReuseStrategy::PartialReset => "partial-reset",
            ReuseStrategy::FullReset => "full-reset",
        }
    }

    fn resets_z(self) -> bool {
        matches!(self, ReuseStrategy::PartialReset | ReuseStrategy::FullReset)
    }

    fn resets_f(self) -> bool {
        matches!(self, ReuseStrategy::FullReset)
    }

    fn f_trainable_from_start(self) -> bool {
        matches!(self, ReuseStrategy::FullUnfreeze | ReuseStrategy::FullReset)
    }
}

/// Summary of one fine-tuning run.
#[derive(Debug, Clone)]
pub struct FinetuneReport {
    /// Epochs actually trained (≤ the configured maximum).
    pub epochs: usize,
    /// Best training MAE (seconds) seen; the restored state achieves it.
    pub best_mae_s: f64,
    /// Wall-clock time including pipeline preparation.
    pub elapsed_s: f64,
    /// Whether the MAE target or patience stopped training before the cap.
    pub stopped_early: bool,
}

/// Fine-tunes a (usually pre-trained) model on samples from one concrete
/// context.
pub fn fine_tune(
    model: &mut Bellamy,
    samples: &[TrainingSample],
    cfg: &FinetuneConfig,
    strategy: ReuseStrategy,
    seed: u64,
) -> FinetuneReport {
    assert!(!samples.is_empty(), "fine-tuning needs at least one sample");
    let start = Instant::now();

    // A model that was never pre-trained (the `local` variant) fits its own
    // normalization; a pre-trained model keeps its training-time bounds.
    if !model.is_fitted() {
        model.fit_normalization(samples);
    }

    // Reuse strategy: resets first, then the freeze plan.
    if strategy.resets_z() {
        model.reinit_component("z.", seed ^ 0x5A5A);
    }
    if strategy.resets_f() {
        model.reinit_component("f.", seed ^ 0xF0F0);
    }
    model.set_component_trainable("g.", false);
    model.set_component_trainable("h.", false);
    model.set_component_trainable("z.", true);
    let mut f_frozen = !strategy.f_trainable_from_start();
    model.set_component_trainable("f.", !f_frozen);
    let unfreeze_epoch = cfg.unfreeze_epoch(samples.len());

    let encoded = model.encode_samples(samples);
    let indices: Vec<usize> = (0..encoded.len()).collect();
    let targets: Vec<f64> = samples.iter().map(|s| s.runtime_s).collect();
    let delta = model.config().huber_delta;

    let schedule = CyclicalAnnealingLr::new(cfg.max_lr, cfg.min_lr, cfg.lr_period);
    let mut opt = AnyOptimizer::build(cfg.optimizer, model.params(), cfg.max_lr, cfg.weight_decay);
    let mut stopper = EarlyStopping::new(Some(cfg.target_mae), cfg.patience);
    let mut best_state = model.params().clone();
    let mut best_mae = f64::INFINITY;
    let mut epochs = 0;
    let mut stopped_early = false;

    // Fine-tuning is full-batch: assemble the tensors once, then replay the
    // graph through a recycled arena and gradient workspace every epoch —
    // the steady-state epoch allocates nothing. `g` and `h` stay frozen for
    // the whole run, so the context stage runs once, here: each epoch's
    // tape holds only the constant context codes, `f`, the concatenation,
    // `z` and the Huber loss (no decoder, no reconstruction term — Table I).
    let batch = model.make_batch(&encoded, &indices);
    let mut arena = GraphArena::default();
    let context_codes = model.context_codes(&batch, &mut arena);
    let mut ws = GradWorkspace::new();
    let mut preds = vec![0.0; encoded.len()];

    for epoch in 0..cfg.max_epochs {
        if f_frozen && epoch >= unfreeze_epoch {
            model.set_component_trainable("f.", true);
            f_frozen = false;
        }
        opt.set_lr(schedule.lr_at(epoch));

        let mut graph = Graph::from_arena(arena, model.params());
        let ctx = graph.input_ref(&context_codes);
        let pred = model.regression_stage(&mut graph, &batch.sx, ctx);
        let loss = graph.tape.huber_loss(pred, &batch.targets_scaled, delta);

        // Track the *current* parameters' error before stepping, so the
        // snapshot corresponds to the measured MAE — this is the validation
        // scoring the early-stopping rule consumes, read straight from the
        // training graph's prediction node.
        let scale = model.target_scale();
        for (i, p) in preds.iter_mut().enumerate() {
            *p = graph.value(pred)[(i, 0)] * scale;
        }
        let mae = metrics::mae(&preds, &targets);
        graph.backward_into(loss, &mut ws);
        arena = graph.into_arena();

        epochs = epoch + 1;
        match stopper.update(mae) {
            StopDecision::Improved => {
                best_mae = mae;
                best_state
                    .load_values_from(model.params())
                    .expect("snapshot shares the parameter layout");
            }
            StopDecision::Continue => {}
            StopDecision::Stop => {
                if mae < best_mae {
                    best_mae = mae;
                    best_state
                        .load_values_from(model.params())
                        .expect("snapshot shares the parameter layout");
                }
                stopped_early = true;
                break;
            }
        }

        opt.step(model.params_mut(), ws.map());
    }

    // Use the best state for inference (paper §IV-A).
    model
        .params_mut()
        .load_values_from(&best_state)
        .expect("snapshot shares the parameter layout");

    FinetuneReport {
        epochs,
        best_mae_s: best_mae,
        elapsed_s: start.elapsed().as_secs_f64(),
        stopped_early,
    }
}

/// Fits a fresh (never pre-trained) model on a single context — the paper's
/// `local` variant: no pre-training is possible and the auto-encoder is not
/// trained. Internally this is a [`ReuseStrategy::FullReset`]-style
/// fine-tuning of the freshly initialized model, training `f` and `z` from
/// the start.
pub fn fit_local(
    model: &mut Bellamy,
    samples: &[TrainingSample],
    cfg: &FinetuneConfig,
    seed: u64,
) -> FinetuneReport {
    assert!(!model.is_fitted(), "fit_local expects a fresh model");
    fine_tune(model, samples, cfg, ReuseStrategy::FullUnfreeze, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BellamyConfig, PretrainConfig};
    use crate::features::samples_from_runs;
    use crate::train::pretrain;
    use bellamy_data::{generate_c3o, Algorithm, GeneratorConfig};

    fn context_samples(algorithm: Algorithm, skip: usize) -> Vec<Vec<TrainingSample>> {
        let ds = generate_c3o(&GeneratorConfig::default());
        ds.contexts_for(algorithm)
            .into_iter()
            .skip(skip)
            .take(4)
            .map(|ctx| {
                let runs = ds.runs_for_context(ctx.id);
                samples_from_runs(&ds, &runs)
            })
            .collect()
    }

    fn quick_ft() -> FinetuneConfig {
        FinetuneConfig {
            max_epochs: 200,
            patience: 120,
            ..FinetuneConfig::default()
        }
    }

    #[test]
    fn local_fit_learns_a_single_context() {
        let ctxs = context_samples(Algorithm::Grep, 0);
        let samples = &ctxs[0];
        let mut model = Bellamy::new(BellamyConfig::default(), 21);
        let report = fit_local(&mut model, samples, &quick_ft(), 3);
        assert!(report.epochs > 0);
        assert!(report.best_mae_s.is_finite());
        // Grep curves are in the tens-to-hundreds of seconds; a fitted local
        // model should track training points to within ~20%.
        let targets: Vec<f64> = samples.iter().map(|s| s.runtime_s).collect();
        let mean_t = targets.iter().sum::<f64>() / targets.len() as f64;
        assert!(
            report.best_mae_s < 0.2 * mean_t,
            "local fit too weak: MAE {} vs mean runtime {mean_t}",
            report.best_mae_s
        );
    }

    #[test]
    fn finetune_adapts_pretrained_model_faster_than_local() {
        let ctxs = context_samples(Algorithm::Sgd, 0);
        // Pre-train on contexts 1..4, fine-tune on context 0.
        let pretrain_samples: Vec<TrainingSample> = ctxs[1..].iter().flatten().cloned().collect();
        let mut pre = Bellamy::new(BellamyConfig::default(), 5);
        pretrain(
            &mut pre,
            &pretrain_samples,
            &PretrainConfig {
                epochs: 120,
                ..PretrainConfig::default()
            },
            7,
        );

        // Few-shot: three points from the new context.
        let few: Vec<TrainingSample> = ctxs[0].iter().step_by(10).cloned().collect();
        assert!(few.len() >= 3);

        let mut tuned = pre.clone_model();
        let r_tuned = fine_tune(
            &mut tuned,
            &few,
            &quick_ft(),
            ReuseStrategy::PartialUnfreeze,
            1,
        );

        let mut local = Bellamy::new(BellamyConfig::default(), 5);
        let r_local = fit_local(&mut local, &few, &quick_ft(), 1);

        assert!(r_tuned.best_mae_s.is_finite() && r_local.best_mae_s.is_finite());
        // The pre-trained model must converge at least as fast (epochs) in
        // the typical case; allow slack for the small budgets used here.
        assert!(
            r_tuned.epochs <= r_local.epochs + 50,
            "pre-trained fine-tune took {} epochs vs local {}",
            r_tuned.epochs,
            r_local.epochs
        );
    }

    #[test]
    fn early_stop_on_target() {
        // Feed duplicated identical samples: the model can hit MAE <= target
        // quickly with a loose target.
        let ctxs = context_samples(Algorithm::Grep, 2);
        let samples = &ctxs[0];
        let mut model = Bellamy::new(BellamyConfig::default(), 2);
        let cfg = FinetuneConfig {
            max_epochs: 2000,
            target_mae: 1e9, // absurdly loose: stops at epoch 1
            ..FinetuneConfig::default()
        };
        let report = fit_local(&mut model, samples, &cfg, 0);
        assert!(report.stopped_early);
        assert_eq!(report.epochs, 1);
    }

    #[test]
    fn strategies_apply_resets_and_freezes() {
        let ctxs = context_samples(Algorithm::Sgd, 4);
        let samples: Vec<TrainingSample> = ctxs[0].iter().take(6).cloned().collect();
        let mut base = Bellamy::new(BellamyConfig::default(), 9);
        pretrain(
            &mut base,
            &ctxs[1],
            &PretrainConfig {
                epochs: 40,
                ..PretrainConfig::default()
            },
            1,
        );

        for strategy in ReuseStrategy::ALL {
            let mut m = base.clone_model();
            let before_pred = m.predict(6.0, &samples[0].props).unwrap();
            let report = fine_tune(
                &mut m,
                &samples,
                &FinetuneConfig {
                    max_epochs: 30,
                    ..FinetuneConfig::default()
                },
                strategy,
                3,
            );
            assert!(report.epochs > 0, "{}", strategy.name());
            let after_pred = m.predict(6.0, &samples[0].props).unwrap();
            assert!(after_pred.is_finite());
            // Any strategy must actually change the model.
            assert_ne!(before_pred, after_pred, "{}", strategy.name());
        }
    }

    #[test]
    fn autoencoder_is_never_updated() {
        let ctxs = context_samples(Algorithm::KMeans, 0);
        let mut model = Bellamy::new(BellamyConfig::default(), 13);
        let g_before = {
            let id = model.params().find("g.l1.weight").unwrap();
            model.params().get(id).value.clone()
        };
        fit_local(&mut model, &ctxs[0], &quick_ft(), 0);
        let g_after = {
            let id = model.params().find("g.l1.weight").unwrap();
            model.params().get(id).value.clone()
        };
        assert_eq!(
            g_before, g_after,
            "auto-encoder must stay frozen in fine-tuning"
        );
    }

    #[test]
    fn strategy_names_match_paper() {
        let names: Vec<&str> = ReuseStrategy::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "partial-unfreeze",
                "full-unfreeze",
                "partial-reset",
                "full-reset"
            ]
        );
    }
}
