//! Equivalence guarantees of the batched inference path.
//!
//! Every op in the prediction forward is row-independent, so batched,
//! swept, and one-at-a-time predictions must agree **bit-for-bit** — and a
//! checkpoint round trip must not move a single bit either. These are the
//! invariants that make it safe for every internal caller (grid search,
//! fine-tune scoring, the eval harness) to share one code path. Predictions
//! run through `Arc`-shared [`ModelState`] snapshots — the same objects the
//! concurrency tests hammer from many threads.

use bellamy_core::train::pretrain;
use bellamy_core::{
    Bellamy, BellamyConfig, ModelState, PredictQuery, Predictor, PretrainConfig, TrainingSample,
};
use bellamy_data::{generate_c3o, Algorithm, GeneratorConfig};
use std::sync::Arc;

fn trained_model() -> (Bellamy, Vec<TrainingSample>) {
    let ds = generate_c3o(&GeneratorConfig::seeded(11));
    let mut samples = Vec::new();
    for ctx in ds.contexts_for(Algorithm::Sgd).into_iter().take(3) {
        samples.extend(
            ds.runs_for_context(ctx.id)
                .iter()
                .map(|r| TrainingSample::from_run(ctx, r)),
        );
    }
    let mut model = Bellamy::new(BellamyConfig::default(), 3);
    pretrain(
        &mut model,
        &samples,
        &PretrainConfig {
            epochs: 15,
            ..PretrainConfig::default()
        },
        9,
    );
    (model, samples)
}

fn trained_state() -> (Arc<ModelState>, Vec<TrainingSample>) {
    let (model, samples) = trained_model();
    (model.snapshot().expect("pretrained"), samples)
}

#[test]
fn batched_and_single_predictions_agree_exactly() {
    let (model, samples) = trained_model();
    let state = model.snapshot().unwrap();
    let queries: Vec<PredictQuery<'_>> = samples
        .iter()
        .take(64)
        .map(|s| PredictQuery {
            scale_out: s.scale_out,
            props: &s.props,
        })
        .collect();
    assert_eq!(queries.len(), 64);

    let mut predictor = Predictor::new();
    let batched = predictor.predict_batch(&state, &queries).to_vec();

    for (q, &b) in queries.iter().zip(batched.iter()) {
        // One-at-a-time through a *fresh* predictor, through the state's
        // thread-local convenience, and through the handle's fallible API:
        // all must match the batch bit-for-bit.
        let single = Predictor::new().predict_one(&state, q.scale_out, q.props);
        assert_eq!(single.to_bits(), b.to_bits(), "x = {}", q.scale_out);
        let from_state = state.predict(q.scale_out, q.props);
        assert_eq!(from_state.to_bits(), b.to_bits(), "x = {}", q.scale_out);
        let public = model.predict(q.scale_out, q.props).unwrap();
        assert_eq!(public.to_bits(), b.to_bits(), "x = {}", q.scale_out);
    }
}

#[test]
fn sweep_matches_general_batch_exactly() {
    // The sweep encodes its context once and copies the code row to every
    // candidate; the batch path encodes every row. Cover full and limited
    // context knowledge (missing positions are zero rows) and sweep widths
    // that grow, shrink and repeat.
    let (state, samples) = trained_state();
    let full = samples[0].props.clone();
    let mut no_optional = full.clone();
    no_optional.optional.clear();
    let mut short_essential = samples[1].props.clone();
    short_essential.essential.truncate(2);
    let mut predictor = Predictor::new();
    for props in [&full, &no_optional, &short_essential] {
        for hi in [12, 2, 58, 12] {
            let xs: Vec<f64> = (2..=hi).map(|x| x as f64).collect();
            let queries: Vec<PredictQuery<'_>> = xs
                .iter()
                .map(|&x| PredictQuery {
                    scale_out: x,
                    props,
                })
                .collect();
            let swept = predictor.predict_sweep(&state, props, &xs).to_vec();
            let batched = predictor.predict_batch(&state, &queries).to_vec();
            assert_eq!(swept.len(), xs.len());
            for (i, (&s, &b)) in swept.iter().zip(batched.iter()).enumerate() {
                assert_eq!(s.to_bits(), b.to_bits(), "x = {}", xs[i]);
                assert!(s.is_finite());
            }
        }
    }
}

#[test]
fn checkpoint_round_trip_is_bit_identical_under_predict_batch() {
    let (model, samples) = trained_model();
    let state = model.snapshot().unwrap();
    let restored = Bellamy::from_checkpoint(&model.to_checkpoint()).expect("valid round trip");
    let restored_state = restored.snapshot().unwrap();
    assert_eq!(
        state.params_fingerprint(),
        restored_state.params_fingerprint(),
        "round trip must preserve exact weight bits"
    );

    let queries: Vec<PredictQuery<'_>> = samples
        .iter()
        .step_by(3)
        .take(48)
        .map(|s| PredictQuery {
            scale_out: s.scale_out,
            props: &s.props,
        })
        .collect();
    assert!(queries.len() >= 16);

    let mut predictor = Predictor::new();
    let original = predictor.predict_batch(&state, &queries).to_vec();
    let reloaded = predictor.predict_batch(&restored_state, &queries).to_vec();
    for (i, (&a, &b)) in original.iter().zip(reloaded.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "query {i}: {a} vs {b} after checkpoint round trip"
        );
    }
}

#[test]
fn predictor_survives_interleaved_batch_sizes_and_models() {
    // The arena and pools must serve alternating shapes and different
    // models without cross-talk.
    let (model_a, samples) = trained_model();
    let state_a = model_a.snapshot().unwrap();
    let state_b = {
        let mut m = Bellamy::from_checkpoint(&model_a.to_checkpoint()).unwrap();
        m.reinit_component("z.", 99);
        m.snapshot().unwrap()
    };
    let props = &samples[0].props;
    let mut predictor = Predictor::new();

    let a1 = predictor.predict_one(&state_a, 4.0, props);
    let sweep = predictor
        .predict_sweep(&state_b, props, &[2.0, 4.0, 8.0])
        .to_vec();
    let a2 = predictor.predict_one(&state_a, 4.0, props);
    assert_eq!(a1.to_bits(), a2.to_bits(), "model A must be unaffected");
    assert_ne!(
        sweep[1].to_bits(),
        a1.to_bits(),
        "re-initialized z must change model B's prediction"
    );
}

#[test]
fn prediction_only_forward_matches_legacy_full_forward() {
    // The decoder-free prediction path and the seed-style full forward are
    // the same function up to floating-point association; they must agree
    // to tight tolerance (the polynomial scalar kernels are ~2 ulp from
    // libm).
    let (model, samples) = trained_model();
    for s in samples.iter().step_by(17) {
        let fast = model.predict(s.scale_out, &s.props).unwrap();
        let reference = model.predict_reference(s.scale_out, &s.props);
        assert!(
            (fast - reference).abs() <= 1e-9 * reference.abs().max(1.0),
            "x = {}: batched {fast} vs seed-style {reference}",
            s.scale_out
        );
    }
}

#[test]
fn one_predictor_serves_models_with_different_property_dims() {
    // A predictor workspace outlives any one model; its pooled matrices
    // must serve a 40-wide and a 20-wide model alternately without
    // cross-talk (each state carries its own encoding cache now, so stale
    // encodings across widths are structurally impossible).
    let (model_40, samples) = trained_model();
    let state_40 = model_40.snapshot().unwrap();
    let mut model_20 = Bellamy::new(
        BellamyConfig {
            property_dim: 20,
            ..BellamyConfig::default()
        },
        3,
    );
    pretrain(
        &mut model_20,
        &samples,
        &PretrainConfig {
            epochs: 2,
            ..PretrainConfig::default()
        },
        9,
    );
    let state_20 = model_20.snapshot().unwrap();

    let props = &samples[0].props;
    let mut predictor = Predictor::new();
    let wide = predictor.predict_one(&state_40, 4.0, props);
    let narrow = predictor.predict_one(&state_20, 4.0, props);
    let wide_again = predictor.predict_one(&state_40, 4.0, props);
    assert!(wide.is_finite() && narrow.is_finite());
    assert_eq!(
        wide.to_bits(),
        wide_again.to_bits(),
        "serving another width must not corrupt the original model's path"
    );
}

#[test]
fn empty_batch_is_empty() {
    let (state, samples) = trained_state();
    let mut predictor = Predictor::new();
    assert!(predictor.predict_batch(&state, &[]).is_empty());
    assert!(predictor
        .predict_sweep(&state, &samples[0].props, &[])
        .is_empty());
}
