//! The zero-copy checkpoint store, end to end: a hub's disk recall serves
//! weights straight out of the page cache (`ModelState::weights_mapped`),
//! bit-identical to an owned decode of the same file across every
//! prediction surface (batch, sweep, the serving client) and under
//! thread-parallel readers sharing one mapped state; legacy BLMY v1 and v2
//! checkpoints — pinned by committed fixtures holding the same weights —
//! still recall, and a file with a lying header is quarantined instead of
//! taking the process down.

use bellamy_core::train::pretrain;
use bellamy_core::{
    Bellamy, BellamyConfig, ContextProperties, HubError, ModelHub, ModelKey, ModelState,
    PredictQuery, Predictor, PretrainConfig, Service, TrainingSample,
};
use bellamy_encoding::PropertyValue;
use bellamy_nn::Checkpoint;
use std::path::PathBuf;
use std::sync::Arc;

/// A small deterministic corpus (seeded by `salt` so distinct tests train
/// distinguishable models); hand-built to keep the fixture regeneration
/// path free of the trace generators.
fn corpus(salt: u64) -> Vec<TrainingSample> {
    (0..18)
        .map(|i| {
            let x = 2.0 + (i % 6) as f64 * 2.0;
            TrainingSample {
                scale_out: x,
                runtime_s: 90.0 + 350.0 / x + 2.0 * ((i + salt as usize) % 5) as f64,
                props: ContextProperties {
                    essential: vec![
                        PropertyValue::Number(2048 + 256 * (i as u64 % 4) + salt),
                        PropertyValue::text("c4.2xlarge"),
                    ],
                    optional: vec![],
                },
            }
        })
        .collect()
}

fn trained_model(seed: u64) -> (Bellamy, Vec<TrainingSample>) {
    let samples = corpus(seed);
    let mut model = Bellamy::new(BellamyConfig::default(), seed);
    pretrain(
        &mut model,
        &samples,
        &PretrainConfig {
            epochs: 3,
            ..PretrainConfig::default()
        },
        seed,
    );
    (model, samples)
}

fn unique_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bellamy-mmap-{tag}-{}", std::process::id()))
}

/// `pretrained-v1.blmy` (a model trained as `trained_model(23)`, written
/// by the retired v1 writer) or `pretrained-v2.blmy` (the v1 fixture
/// decoded and re-encoded by the retired v2 writer, so both hold the same
/// weights). The library writes only v3, so neither fixture can be
/// regenerated: the point of each is that checked-in bytes of an older
/// format keep decoding.
fn fixture_path(version: u32) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(format!("pretrained-v{version}.blmy"))
}

/// A fresh hub directory holding `bytes` as the checkpoint of `key`.
fn hub_dir_with(tag: &str, key: &ModelKey, bytes: &[u8]) -> PathBuf {
    let dir = unique_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(format!("{}.blmy", key.id())), bytes).unwrap();
    dir
}

#[test]
fn committed_v1_fixture_recalls() {
    let bytes = std::fs::read(fixture_path(1)).expect("committed v1 fixture present");
    assert_eq!(&bytes[..4], b"BLMY");
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        1,
        "the fixture must stay a version-1 file, or it proves nothing"
    );

    // Decoding the fixture and re-encoding it (the writer now emits v3)
    // must not move a single weight.
    let ck = Checkpoint::from_bytes(&bytes).expect("v1 fixture decodes");
    let reencoded = Checkpoint::from_bytes(&ck.to_bytes()).expect("v3 re-encode decodes");
    let a = Bellamy::from_checkpoint(&ck).expect("fixture model");
    let b = Bellamy::from_checkpoint(&reencoded).expect("re-encoded model");
    let probe = corpus(23);
    for s in &probe {
        assert_eq!(
            a.predict(s.scale_out, &s.props).unwrap().to_bits(),
            b.predict(s.scale_out, &s.props).unwrap().to_bits(),
            "v1 -> v3 re-encode must be bit-exact"
        );
    }

    // The hub recalls the fixture. A v1 file has no aligned payload
    // sections, so the recall materializes owned weights.
    let key = ModelKey::new("grep", "runtime", &BellamyConfig::default());
    let dir = hub_dir_with("v1-fixture", &key, &bytes);
    let hub = ModelHub::at(&dir).unwrap();
    let state = hub.recall(&key).expect("v1 checkpoint must keep recalling");
    assert!(
        !state.weights_mapped(),
        "v1 has no mappable payload sections"
    );
    for s in probe.iter().take(4) {
        assert_eq!(
            state.predict(s.scale_out, &s.props).to_bits(),
            a.predict(s.scale_out, &s.props).unwrap().to_bits(),
            "hub recall must match the direct decode"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn committed_v2_fixture_maps_and_recalls_like_the_v1_fixture() {
    let bytes = std::fs::read(fixture_path(2)).expect("committed v2 fixture present");
    assert_eq!(&bytes[..4], b"BLMY");
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        2,
        "the fixture must stay a version-2 file, or it proves nothing"
    );
    let v1 = Checkpoint::from_bytes(&std::fs::read(fixture_path(1)).unwrap()).unwrap();
    let reference = Bellamy::from_checkpoint(&v1).expect("v1 fixture model");

    // Owned decode, then a zero-copy map: the FNV-1a checksums still verify
    // and the aligned payloads still map in place.
    let owned = Checkpoint::from_bytes(&bytes).expect("v2 fixture decodes");
    let mapped = Checkpoint::map(fixture_path(2)).expect("v2 fixture maps");
    for (_, p) in v1.params.iter() {
        for ck in [&owned, &mapped] {
            let q = ck
                .params
                .get(ck.params.find(&p.name).expect("same tensors"));
            assert_eq!(
                q.value, p.value,
                "tensor {} must match the v1 fixture",
                p.name
            );
        }
        let q = mapped.params.get(mapped.params.find(&p.name).unwrap());
        assert!(
            q.value.is_mapped(),
            "v2 tensor {} must map in place",
            p.name
        );
    }
    assert_eq!(owned.metadata, v1.metadata);

    // The hub recall maps it and predicts exactly what the v1 fixture does.
    let key = ModelKey::new("grep", "runtime", &BellamyConfig::default());
    let dir = hub_dir_with("v2-fixture", &key, &bytes);
    let state = ModelHub::at(&dir)
        .unwrap()
        .recall(&key)
        .expect("v2 checkpoint must keep recalling");
    assert!(state.weights_mapped(), "a v2 recall must borrow the file");
    for s in &corpus(23) {
        assert_eq!(
            state.predict(s.scale_out, &s.props).to_bits(),
            reference.predict(s.scale_out, &s.props).unwrap().to_bits(),
            "the v2 fixture must predict bit-identically to the v1 fixture"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_lying_section_count_is_quarantined_not_fatal() {
    // `n_params` is read before any checksum can vouch for it; a file that
    // claims 2^32 - 1 tensors must fail its recall as corruption (and be
    // quarantined), not reserve memory for them.
    let (model, _) = trained_model(29);
    let mut bytes = model.to_checkpoint().to_bytes();
    bytes[36..40].copy_from_slice(&u32::MAX.to_le_bytes());
    let key = ModelKey::new("grep", "runtime", &BellamyConfig::default());
    let dir = hub_dir_with("lying-count", &key, &bytes);
    let hub = ModelHub::at(&dir).unwrap();
    match hub.recall(&key) {
        Err(HubError::Corrupt { source, .. }) => assert!(source.is_corruption()),
        other => panic!("expected a quarantined corrupt checkpoint, got {other:?}"),
    }
    assert_eq!(hub.stats().quarantined, 1);
    assert!(dir.join(format!("{}.blmy.corrupt", key.id())).exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mapped_recall_is_bit_identical_to_an_owned_decode_across_all_surfaces() {
    let (model, samples) = trained_model(31);
    let dir = unique_dir("parity");
    let _ = std::fs::remove_dir_all(&dir);
    let key = ModelKey::new("grep", "runtime", &BellamyConfig::default());
    ModelHub::at(&dir).unwrap().publish(&key, &model).unwrap();

    let path = dir.join(format!("{}.blmy", key.id()));
    let owned = Arc::new(ModelState::from_checkpoint(Checkpoint::load(&path).unwrap()).unwrap());
    let mapped = ModelHub::at(&dir).unwrap().recall(&key).unwrap();
    assert!(!owned.weights_mapped());
    assert!(
        mapped.weights_mapped(),
        "a disk recall of a v3 checkpoint must borrow the file"
    );
    assert_eq!(owned.params_fingerprint(), mapped.params_fingerprint());

    // predict_batch, query by query.
    let queries: Vec<PredictQuery<'_>> = samples
        .iter()
        .map(|s| PredictQuery {
            scale_out: s.scale_out,
            props: &s.props,
        })
        .collect();
    let mut predictor = Predictor::new();
    let from_owned = predictor.predict_batch(&owned, &queries).to_vec();
    let from_mapped = predictor.predict_batch(&mapped, &queries).to_vec();
    for (a, b) in from_owned.iter().zip(from_mapped.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "predict_batch must not move");
    }

    // predict_sweep.
    let xs: Vec<f64> = (2..=12).map(|x| x as f64).collect();
    let sweep_owned = predictor
        .predict_sweep(&owned, &samples[0].props, &xs)
        .to_vec();
    let sweep_mapped = predictor
        .predict_sweep(&mapped, &samples[0].props, &xs)
        .to_vec();
    for (a, b) in sweep_owned.iter().zip(sweep_mapped.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "predict_sweep must not move");
    }

    // The serving front door's single-query path.
    let service = Service::in_memory();
    let client_owned = service.client_for_state(Arc::clone(&owned));
    let client_mapped = service.client_for_state(Arc::clone(&mapped));
    for s in samples.iter().take(6) {
        assert_eq!(
            client_owned
                .predict(s.scale_out, &s.props)
                .unwrap()
                .to_bits(),
            client_mapped
                .predict(s.scale_out, &s.props)
                .unwrap()
                .to_bits(),
            "served predictions must not move"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eight_threads_share_one_mapped_state_bit_identically() {
    let (model, samples) = trained_model(47);
    let dir = unique_dir("threads");
    let _ = std::fs::remove_dir_all(&dir);
    let key = ModelKey::new("grep", "runtime", &BellamyConfig::default());
    ModelHub::at(&dir).unwrap().publish(&key, &model).unwrap();

    let hub = ModelHub::at(&dir).unwrap();
    let state = hub.recall(&key).unwrap();
    assert!(state.weights_mapped());

    // The single-threaded baseline, computed before the race.
    let queries: Vec<PredictQuery<'_>> = samples
        .iter()
        .map(|s| PredictQuery {
            scale_out: s.scale_out,
            props: &s.props,
        })
        .collect();
    let baseline: Vec<u64> = Predictor::new()
        .predict_batch(&state, &queries)
        .iter()
        .map(|p| p.to_bits())
        .collect();

    // Eight threads hammer the same mapped pages through private
    // predictors: same bits every round on every thread, no tearing, no
    // aliasing hazards (the map is immutable, so there is nothing to
    // tear — this pins that down).
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let (state, queries, baseline) = (&state, &queries, &baseline);
            scope.spawn(move || {
                let mut predictor = Predictor::new();
                for _ in 0..20 {
                    let got = predictor.predict_batch(state, queries);
                    for (g, want) in got.iter().zip(baseline.iter()) {
                        assert_eq!(g.to_bits(), *want, "mapped reads must never tear");
                    }
                }
            });
        }
    });

    std::fs::remove_dir_all(&dir).ok();
}
