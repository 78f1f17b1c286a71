//! Fault-injection tests for the serving stack's robustness layer: a
//! panicking forward pass fails only its own query and the caller's thread
//! keeps serving bit-identical results; corrupt checkpoints are quarantined
//! instead of poisoning their key forever; transient disk errors are
//! retried.
//!
//! The failpoints (`bellamy_core::faults`) are process-global statics, so
//! every test that arms one holds [`fault_lock`] for its whole body — the
//! tests serialize among themselves while the rest of the workspace's
//! suites run in their own processes, unaffected.

use bellamy_core::faults::{self, Fault, FaultPlan};
use bellamy_core::hub::HubError;
use bellamy_core::train::pretrain;
use bellamy_core::{
    event_kind, Bellamy, BellamyConfig, BellamyError, ContextProperties, ModelHub, ModelKey,
    ModelState, Predictor, PretrainConfig, Service, TrainingSample,
};
use bellamy_encoding::PropertyValue;
use bellamy_nn::CheckpointError;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes tests that arm the global failpoints. A panicking test must
/// not wedge the rest of the suite, so poisoning is ignored.
fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn corpus() -> Vec<TrainingSample> {
    (0..18)
        .map(|i| {
            let x = 2.0 + (i % 6) as f64 * 2.0;
            TrainingSample {
                scale_out: x,
                runtime_s: 90.0 + 350.0 / x + 2.0 * (i % 5) as f64,
                props: ContextProperties {
                    essential: vec![
                        PropertyValue::Number(2048 + 256 * (i as u64 % 4)),
                        PropertyValue::text("c4.2xlarge"),
                    ],
                    optional: vec![],
                },
            }
        })
        .collect()
}

fn pretrained() -> (Arc<ModelState>, Vec<TrainingSample>) {
    let samples = corpus();
    let mut model = Bellamy::new(BellamyConfig::default(), 23);
    pretrain(
        &mut model,
        &samples,
        &PretrainConfig {
            epochs: 3,
            ..PretrainConfig::default()
        },
        23,
    );
    (model.snapshot().expect("fitted"), samples)
}

fn direct_bits(state: &Arc<ModelState>, scale_out: f64, props: &ContextProperties) -> u64 {
    Predictor::with_thread_local(|p| p.predict_one(state, scale_out, props)).to_bits()
}

#[test]
fn a_panicking_forward_pass_fails_only_its_own_query() {
    let _serial = fault_lock();
    let (state, samples) = pretrained();
    let service = Service::in_memory();
    let client = service.client_for_state(Arc::clone(&state));
    let props = &samples[0].props;
    let expected = direct_bits(&state, 4.0, props);
    // Warm this thread's predictor first, so the panic below unwinds out
    // of a predictor that has served before.
    let before = client.predict(4.0, props).expect("warm-up");
    assert_eq!(before.to_bits(), expected);

    {
        let _armed = faults::SERVE_PREDICT.arm(FaultPlan::once(Fault::Panic));
        assert!(
            matches!(client.predict(4.0, props), Err(BellamyError::BatchPanicked)),
            "the panicked query must get the typed, retryable error"
        );
    }

    // The same thread's next query serves normally, bit-identical to a
    // direct predictor call.
    let after = client
        .predict(4.0, props)
        .expect("the thread keeps serving");
    assert_eq!(after.to_bits(), expected);

    let stats = client.batcher_stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(
        stats.queries, 2,
        "the panicked query is not counted as served"
    );
    let snap = service.telemetry();
    assert_eq!(snap.counter("bellamy_serve_panics_total"), Some(1));
    assert!(
        snap.events()
            .iter()
            .any(|e| e.kind == event_kind::LOOP_PANIC && e.detail.contains("serve.predict")),
        "the panic must leave a serve.panic event; got {:?}",
        snap.events()
    );
}

#[test]
fn corrupt_checkpoints_are_quarantined_not_poisonous() {
    let _serial = fault_lock();
    let dir = std::env::temp_dir().join(format!("bellamy-quarantine-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let samples = corpus();
    let key = ModelKey::new("grep", "runtime", &BellamyConfig::default());
    let quick = PretrainConfig {
        epochs: 2,
        ..PretrainConfig::default()
    };

    // Publish a good checkpoint, then corrupt it on disk.
    {
        let hub = ModelHub::at(&dir).expect("disk hub");
        let mut model = Bellamy::new(BellamyConfig::default(), 5);
        pretrain(&mut model, &samples, &quick, 5);
        hub.publish(&key, &model).expect("publish");
    }
    let ckpt = dir.join(format!("{}.blmy", key.id()));
    assert!(ckpt.is_file(), "publish must write the checkpoint");
    std::fs::write(&ckpt, b"BLMY but definitely not a checkpoint").unwrap();

    // A fresh hub (cold memory registry) hits the corrupt file: the recall
    // fails *once*, typed, and the file is quarantined out of the way.
    let hub = ModelHub::at(&dir).expect("disk hub");
    match hub.recall(&key) {
        Err(HubError::Corrupt { id, .. }) => assert_eq!(id, key.id()),
        other => panic!("corrupt checkpoint must surface as Corrupt, got {other:?}"),
    }
    assert!(!ckpt.exists(), "the corrupt file must be renamed away");
    let quarantined = ckpt.with_extension("blmy.corrupt");
    assert!(
        quarantined.is_file(),
        "the corrupt bytes must survive at *.blmy.corrupt for forensics"
    );
    assert_eq!(hub.stats().quarantined, 1);

    // The key is now simply absent — not an eternal error.
    assert!(matches!(hub.recall(&key), Err(HubError::UnknownModel(_))));

    // recall_or_pretrain treats the quarantined slot like a cold miss and
    // trains a usable replacement.
    let replacement = hub
        .recall_or_pretrain(&key, &quick, 5, || samples.clone())
        .expect("quarantined key must retrain, not fail forever");
    assert!(replacement.predict(6.0, &samples[0].props).is_finite());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_persist_corruption_round_trips_through_quarantine() {
    let _serial = fault_lock();
    let dir = std::env::temp_dir().join(format!("bellamy-persistfault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let samples = corpus();
    let key = ModelKey::new("pagerank", "runtime", &BellamyConfig::default());
    let quick = PretrainConfig {
        epochs: 2,
        ..PretrainConfig::default()
    };

    // A crash mid-write: garbage lands on disk in place of the checkpoint.
    {
        let hub = ModelHub::at(&dir).expect("disk hub");
        let mut model = Bellamy::new(BellamyConfig::default(), 9);
        pretrain(&mut model, &samples, &quick, 9);
        let _armed = faults::HUB_DISK_PERSIST.arm(FaultPlan::once(Fault::Corrupt));
        hub.publish(&key, &model).expect("publish survives");
    }

    // The next process finds the damage, quarantines it, and recovers.
    let hub = ModelHub::at(&dir).expect("disk hub");
    assert!(matches!(hub.recall(&key), Err(HubError::Corrupt { .. })));
    assert_eq!(hub.stats().quarantined, 1);
    hub.recall_or_pretrain(&key, &quick, 9, || samples.clone())
        .expect("retrain after quarantine");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_mid_write_publish_leaves_the_previous_checkpoint_servable() {
    let _serial = fault_lock();
    let dir = std::env::temp_dir().join(format!("bellamy-midwrite-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let samples = corpus();
    let key = ModelKey::new("kmeans", "runtime", &BellamyConfig::default());
    let quick = PretrainConfig {
        epochs: 2,
        ..PretrainConfig::default()
    };

    // A good published generation, then a publisher killed mid-write: the
    // atomic writer stages into `*.blmy.tmp` and only renames on a fully
    // fsynced file, so the kill leaves a torn temp file and the published
    // path untouched.
    let mut old = Bellamy::new(BellamyConfig::default(), 11);
    pretrain(&mut old, &samples, &quick, 11);
    {
        let hub = ModelHub::at(&dir).expect("disk hub");
        hub.publish(&key, &old).expect("first publish");

        let mut update = Bellamy::new(BellamyConfig::default(), 12);
        pretrain(&mut update, &samples, &quick, 12);
        let _armed = faults::HUB_DISK_PERSIST.arm(FaultPlan::once(Fault::Error));
        assert!(
            matches!(hub.publish(&key, &update), Err(HubError::Checkpoint(_))),
            "a killed publish must surface as an error, not silently succeed"
        );
    }
    let ckpt = dir.join(format!("{}.blmy", key.id()));
    let torn = dir.join(format!("{}.blmy.tmp", key.id()));
    assert!(torn.is_file(), "the kill must leave the staged temp file");
    assert!(ckpt.is_file(), "the published path must be untouched");

    // The next process recalls the *previous* generation bit-identically;
    // the torn temp file is inert.
    let hub = ModelHub::at(&dir).expect("disk hub");
    let recalled = hub
        .recall(&key)
        .expect("the previous checkpoint must keep serving");
    for s in samples.iter().take(5) {
        assert_eq!(
            recalled.predict(s.scale_out, &s.props).to_bits(),
            old.predict(s.scale_out, &s.props).unwrap().to_bits(),
            "a torn update must not move the served weights"
        );
    }
    assert_eq!(hub.stats().quarantined, 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn payload_bit_flip_is_caught_by_the_checksum_and_quarantined() {
    let _serial = fault_lock();
    let dir = std::env::temp_dir().join(format!("bellamy-bitflip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let samples = corpus();
    let key = ModelKey::new("join", "runtime", &BellamyConfig::default());
    let quick = PretrainConfig {
        epochs: 2,
        ..PretrainConfig::default()
    };
    {
        let hub = ModelHub::at(&dir).expect("disk hub");
        let mut model = Bellamy::new(BellamyConfig::default(), 13);
        pretrain(&mut model, &samples, &quick, 13);
        hub.publish(&key, &model).expect("publish");
    }

    // One bit flips inside the weight payload — the header, magic, and
    // section table all stay plausible, so only the payload checksum can
    // tell. Without it, the flip would silently serve wrong predictions.
    let ckpt = dir.join(format!("{}.blmy", key.id()));
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let n = bytes.len();
    bytes[n - 5] ^= 0x10;
    std::fs::write(&ckpt, &bytes).unwrap();

    let hub = ModelHub::at(&dir).expect("disk hub");
    match hub.recall(&key) {
        Err(HubError::Corrupt { id, source }) => {
            assert_eq!(id, key.id());
            assert!(
                matches!(source, CheckpointError::ChecksumMismatch),
                "the flip must be caught by the checksum, got {source:?}"
            );
        }
        other => panic!("a flipped payload bit must quarantine, got {other:?}"),
    }
    assert!(!ckpt.exists(), "the damaged file must be renamed away");
    assert!(ckpt.with_extension("blmy.corrupt").is_file());
    assert_eq!(hub.stats().quarantined, 1);

    // Like any quarantine, the slot recovers by retraining.
    hub.recall_or_pretrain(&key, &quick, 13, || samples.clone())
        .expect("retrain after checksum quarantine");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_read_failures_are_retried_with_bounded_backoff() {
    let _serial = fault_lock();
    let dir = std::env::temp_dir().join(format!("bellamy-retry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let samples = corpus();
    let key = ModelKey::new("sgd", "runtime", &BellamyConfig::default());
    {
        let hub = ModelHub::at(&dir).expect("disk hub");
        let mut model = Bellamy::new(BellamyConfig::default(), 3);
        pretrain(
            &mut model,
            &samples,
            &PretrainConfig {
                epochs: 2,
                ..PretrainConfig::default()
            },
            3,
        );
        hub.publish(&key, &model).expect("publish");
    }

    // Two transient read failures, then the disk recovers: the recall
    // succeeds and the retries are visible in the stats.
    {
        let hub = ModelHub::at(&dir).expect("disk hub");
        let _armed = faults::HUB_DISK_PROBE.arm(FaultPlan::times(Fault::Error, 2));
        hub.recall(&key)
            .expect("two transient failures are within the retry budget");
        assert_eq!(hub.stats().disk_retries, 2);
        assert_eq!(
            hub.stats().quarantined,
            0,
            "transient I/O is never quarantined"
        );
    }

    // A persistently failing disk exhausts the bounded retries and surfaces
    // an I/O error — the checkpoint file itself is left untouched.
    {
        let hub = ModelHub::at(&dir).expect("disk hub");
        let _armed = faults::HUB_DISK_PROBE.arm(FaultPlan::always(Fault::Error));
        assert!(matches!(hub.recall(&key), Err(HubError::Checkpoint(_))));
    }
    assert!(
        dir.join(format!("{}.blmy", key.id())).is_file(),
        "an I/O-failing checkpoint must not be quarantined"
    );

    std::fs::remove_dir_all(&dir).ok();
}
