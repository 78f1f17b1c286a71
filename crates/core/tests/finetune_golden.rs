//! Golden pins of the fine-tuning trajectories.
//!
//! Fine-tuning is deterministic in (base model, samples, config, strategy,
//! seed), and bit-identical across kernel backends.
//! These constants were recorded before the prediction forward was split
//! into a context stage and a regression stage, so any optimisation of the
//! fine-tuning loop that moves a single bit of a trajectory — the epoch at
//! which it stops, its best MAE, or the weights it leaves behind — fails
//! here. The base model is pretrained on one shard with one worker, so the
//! pins do not depend on the host's core count.

use bellamy_core::finetune::fine_tune;
use bellamy_core::train::pretrain;
use bellamy_core::{
    Bellamy, BellamyConfig, FinetuneConfig, PretrainConfig, ReuseStrategy, TrainingSample,
};
use bellamy_data::{generate_c3o, Algorithm, GeneratorConfig};

/// `(epochs, best_mae_s bits, descendant params_fingerprint)` per strategy,
/// in `ReuseStrategy::ALL` order.
const GOLDEN: [(ReuseStrategy, usize, u64, u64); 4] = [
    (
        ReuseStrategy::PartialUnfreeze,
        51,
        0x3fd2_8e86_8f82_49ab,
        0xc5d6_b8be_7d1f_5c1a,
    ),
    (
        ReuseStrategy::FullUnfreeze,
        73,
        0x3fdf_fd6e_0eb0_4355,
        0x67ae_adf1_4443_6320,
    ),
    (
        ReuseStrategy::PartialReset,
        82,
        0x3fd8_9442_eebe_2c55,
        0x6cc5_6001_7f58_9dc3,
    ),
    (
        ReuseStrategy::FullReset,
        150,
        0x3ff7_93db_2970_2a40,
        0xbca4_eba0_fbbe_3b4b,
    ),
];

/// A base model pretrained on three SGD contexts, plus three observed runs
/// of a fourth context it has never seen.
fn base_and_few_shot() -> (Bellamy, Vec<TrainingSample>) {
    let ds = generate_c3o(&GeneratorConfig::seeded(11));
    let contexts = ds.contexts_for(Algorithm::Sgd);
    let samples_of = |i: usize| -> Vec<TrainingSample> {
        ds.runs_for_context(contexts[i].id)
            .iter()
            .map(|r| TrainingSample::from_run(contexts[i], r))
            .collect()
    };
    let history: Vec<TrainingSample> = (1..4).flat_map(samples_of).collect();
    let mut base = Bellamy::new(BellamyConfig::default(), 3);
    pretrain(
        &mut base,
        &history,
        &PretrainConfig {
            epochs: 30,
            workers: 1,
            shards: 1,
            ..PretrainConfig::default()
        },
        9,
    );
    let few: Vec<TrainingSample> = samples_of(0).into_iter().step_by(7).take(3).collect();
    assert_eq!(few.len(), 3);
    (base, few)
}

#[test]
fn finetune_trajectories_match_golden_pins() {
    let (base, few) = base_and_few_shot();
    let base_state = base.snapshot().expect("pretrained");
    let cfg = FinetuneConfig {
        max_epochs: 150,
        // Tight enough that no strategy stops before `f` unfreezes.
        target_mae: 0.5,
        patience: 100,
        // `f` unfreezes at epoch 20 (60 / 3 samples), inside the budget.
        unfreeze_budget: 60,
        ..FinetuneConfig::default()
    };

    let mut actual = Vec::new();
    for strategy in ReuseStrategy::ALL {
        let mut handle = Bellamy::from_state(&base_state);
        let report = fine_tune(&mut handle, &few, &cfg, strategy, 5);
        let descendant = handle.snapshot().expect("fitted");
        actual.push((
            strategy,
            report.epochs,
            report.best_mae_s.to_bits(),
            descendant.params_fingerprint(),
        ));
    }
    for (got, want) in actual.iter().zip(GOLDEN.iter()) {
        assert_eq!(
            got, want,
            "fine-tuning trajectory moved (all actual values: {actual:#x?})"
        );
    }
}
