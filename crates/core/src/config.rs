//! Model and training configuration (paper Table I).

use bellamy_nn::{Init, OptimizerChoice};

/// Architecture + training hyperparameters.
///
/// Defaults reproduce Table I: hidden dim 8, output dim 1, decoding dim 40,
/// encoding dim 4; the scale-out network `f` uses its fixed 3→16→8 shape
/// (§IV-A).
#[derive(Debug, Clone)]
pub struct BellamyConfig {
    /// Property vector length `N` (decoding dimension).
    pub property_dim: usize,
    /// Code length `M` (encoding dimension).
    pub code_dim: usize,
    /// Hidden width of the auto-encoder and of `z`.
    pub hidden_dim: usize,
    /// Hidden width of the scale-out network `f`.
    pub scale_out_hidden_dim: usize,
    /// Output width `F` of the scale-out network.
    pub scale_out_dim: usize,
    /// Number of essential properties `m`.
    pub essential_props: usize,
    /// Number of optional properties `n`.
    pub optional_props: usize,
    /// Weight initialization (He per §IV-A; LeCun available for ablation).
    pub init: Init,
    /// Huber transition point, in *scaled-target* units.
    pub huber_delta: f64,
    /// Divide targets by their training mean before regression and invert at
    /// inference. Divergence #1 in DESIGN.md §7 — raw-second targets make
    /// Adam's step sizes algorithm-dependent; the MAE stopping criterion is
    /// still evaluated in seconds.
    pub scale_targets: bool,
}

impl Default for BellamyConfig {
    fn default() -> Self {
        Self {
            property_dim: 40,
            code_dim: 4,
            hidden_dim: 8,
            scale_out_hidden_dim: 16,
            scale_out_dim: 8,
            essential_props: 4,
            optional_props: 3,
            init: Init::HeNormal,
            huber_delta: 1.0,
            scale_targets: true,
        }
    }
}

impl BellamyConfig {
    /// Width of the combined vector `r = e ⊕ codes ⊕ o` fed to `z`
    /// (`F + (m+1)·M`, Eq. 5).
    pub fn combined_dim(&self) -> usize {
        self.scale_out_dim + (self.essential_props + 1) * self.code_dim
    }
}

/// Pre-training hyperparameters (Table I, "Pre-Training").
#[derive(Debug, Clone, Copy)]
pub struct PretrainConfig {
    /// Minibatch size.
    pub batch_size: usize,
    /// Number of epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// Alpha-dropout probability inside the auto-encoder.
    pub dropout: f64,
    /// Worker threads computing minibatch gradients (`0` = one per
    /// available core). Results are bit-identical for any worker count with
    /// the same effective shard count.
    pub workers: usize,
    /// Data-parallel shards each minibatch is split into (`0` = one per
    /// worker). Every row keeps its dropout mask whatever the split, and
    /// gradients reduce over shards in a fixed binary-tree order, so the
    /// shard count changes only the floating-point rounding of that
    /// reduction (which a long run can still amplify), and a given shard
    /// count yields bit-identical results no matter how many workers
    /// execute it. Pin `shards` explicitly for bit-identical runs across
    /// machines with different core counts.
    pub shards: usize,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        Self {
            batch_size: 64,
            epochs: 2500,
            lr: 1e-2,
            weight_decay: 1e-3,
            dropout: 0.1,
            workers: 0,
            shards: 0,
        }
    }
}

impl PretrainConfig {
    /// A short-budget configuration for tests and the quick repro profile.
    pub fn quick() -> Self {
        Self {
            epochs: 300,
            ..Self::default()
        }
    }

    /// The effective worker count (resolving `0` to the machine).
    pub fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            bellamy_par::default_threads()
        } else {
            self.workers
        }
    }

    /// The effective shard count (resolving `0` to the worker count).
    pub fn effective_shards(&self) -> usize {
        if self.shards == 0 {
            self.effective_workers()
        } else {
            self.shards
        }
    }
}

/// Fine-tuning hyperparameters (Table I, "Fine-Tuning").
#[derive(Debug, Clone, Copy)]
pub struct FinetuneConfig {
    /// Hard epoch cap.
    pub max_epochs: usize,
    /// Stop when training MAE (seconds) falls to this value.
    pub target_mae: f64,
    /// Stop after this many epochs without improvement.
    pub patience: usize,
    /// Upper bound of the cyclical learning-rate schedule.
    pub max_lr: f64,
    /// Lower bound of the cyclical learning-rate schedule.
    pub min_lr: f64,
    /// Cycle length in epochs.
    pub lr_period: usize,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// Epoch budget governing when `f` unfreezes: `f` becomes trainable at
    /// epoch `ceil(unfreeze_budget / n_samples)` — more data, earlier
    /// unfreeze. (The paper specifies the dependence on sample count but not
    /// the constant; DESIGN.md §7 ablates it.)
    pub unfreeze_budget: usize,
    /// Optimizer (the paper uses Adam; SGD is available for the ablation).
    pub optimizer: OptimizerChoice,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        Self {
            max_epochs: 2500,
            target_mae: 5.0,
            patience: 1000,
            max_lr: 1e-2,
            min_lr: 1e-3,
            lr_period: 100,
            weight_decay: 1e-3,
            unfreeze_budget: 250,
            optimizer: OptimizerChoice::Adam,
        }
    }
}

impl FinetuneConfig {
    /// A short-budget configuration for tests and the quick repro profile.
    pub fn quick() -> Self {
        Self {
            max_epochs: 400,
            patience: 200,
            ..Self::default()
        }
    }

    /// Epoch at which `f` unfreezes for a fine-tuning set of `n_samples`.
    pub fn unfreeze_epoch(&self, n_samples: usize) -> usize {
        self.unfreeze_budget.div_ceil(n_samples.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_dim_matches_paper() {
        // F + (m+1)·M = 8 + 5·4 = 28.
        assert_eq!(BellamyConfig::default().combined_dim(), 28);
    }

    #[test]
    fn table1_defaults() {
        let c = BellamyConfig::default();
        assert_eq!(c.property_dim, 40);
        assert_eq!(c.code_dim, 4);
        assert_eq!(c.hidden_dim, 8);
        assert_eq!(c.scale_out_hidden_dim, 16);
        assert_eq!(c.scale_out_dim, 8);
        let p = PretrainConfig::default();
        assert_eq!(p.batch_size, 64);
        assert_eq!(p.epochs, 2500);
        let f = FinetuneConfig::default();
        assert_eq!(f.max_epochs, 2500);
        assert_eq!(f.target_mae, 5.0);
        assert_eq!(f.patience, 1000);
        assert_eq!(f.max_lr, 1e-2);
        assert_eq!(f.min_lr, 1e-3);
        assert_eq!(f.weight_decay, 1e-3);
    }

    #[test]
    fn unfreeze_epoch_shrinks_with_data() {
        let f = FinetuneConfig::default();
        assert_eq!(f.unfreeze_epoch(1), 250);
        assert_eq!(f.unfreeze_epoch(5), 50);
        assert_eq!(f.unfreeze_epoch(6), 42);
        assert_eq!(
            f.unfreeze_epoch(0),
            250,
            "zero guards against division by zero"
        );
    }
}
