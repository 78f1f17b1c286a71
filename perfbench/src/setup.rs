//! The set-up every workload shares: seeded traces, a disk-backed
//! `Service`, and one pretrained Table-I model per C3O algorithm.

use bellamy_core::{
    context_properties, BellamyConfig, ContextProperties, FinetuneConfig, FinetunePolicy,
    ModelClient, ModelKey, PretrainConfig, Service, TrainingSample,
};
use bellamy_data::{
    generate_bell, generate_c3o, ground_truth_profile, Algorithm, Dataset, GeneratorConfig,
};
use bellamy_telemetry::HistogramSnapshot;
use std::path::PathBuf;
use std::time::Instant;

/// Share of each algorithm's C3O contexts held out of pretraining; the
/// `onboard` workload's jobs run in them.
pub const HOLDOUT_SHARE: f64 = 0.3;

/// Seed of the reference draw that fixes the hold-outs' runtime levels.
const REFERENCE_SEED: u64 = 0;

/// The scale-out at which contexts are compared by runtime.
const MID_SCALE_OUT: f64 = 6.0;

/// Objective label of the Table-I general models.
pub const OBJECTIVE: &str = "runtime";

/// Pretraining seed of the general model of algorithm `i` (a deployment
/// setting, not an input: only the traces and op sequences follow the
/// workload seed).
pub fn pretrain_seed(alg_index: usize) -> u64 {
    0x00BE_11A3 + alg_index as u64
}

/// A short pretraining budget pinned to one worker and one shard, so
/// set-up is single-threaded and bit-identical across hosts.
pub fn pretrain_config() -> PretrainConfig {
    PretrainConfig {
        epochs: 20,
        workers: 1,
        shards: 1,
        ..PretrainConfig::default()
    }
}

/// Everything generated from the workload seed.
pub struct Inputs {
    pub seed: u64,
    pub c3o: Dataset,
    pub bell: Dataset,
    /// Per C3O context id: held out of pretraining.
    pub holdout: Vec<bool>,
    pub c3o_props: Vec<ContextProperties>,
    pub bell_props: Vec<ContextProperties>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let c3o = generate_c3o(&GeneratorConfig::seeded(seed));
        let bell = generate_bell(&GeneratorConfig::seeded(seed));
        // Hold-outs: per algorithm, the contexts whose noise-free runtime is
        // nearest to fixed levels, the evenly spaced runtime ranks of a
        // seed-independent reference draw. Every seed then onboards jobs of
        // the same runtime scales: fine-tuning stops at an absolute error in
        // seconds, so how long it runs follows the runtime scale.
        let reference = generate_c3o(&GeneratorConfig::seeded(REFERENCE_SEED));
        let mut holdout = vec![false; c3o.contexts.len()];
        for alg in Algorithm::ALL {
            let levels = runtimes(&reference, alg);
            let mut ctxs = runtimes(&c3o, alg);
            let n = (ctxs.len() as f64 * HOLDOUT_SHARE).round() as usize;
            for k in 0..n {
                let level = levels[(2 * k + 1) * levels.len() / (2 * n)].0;
                let off = |i: usize| (ctxs[i].0 / level).ln().abs();
                let nearest = (0..ctxs.len())
                    .min_by(|&a, &b| off(a).total_cmp(&off(b)))
                    .expect("hold-outs leave contexts to pick from");
                holdout[ctxs.swap_remove(nearest).1] = true;
            }
        }
        let c3o_props = c3o.contexts.iter().map(context_properties).collect();
        let bell_props = bell.contexts.iter().map(context_properties).collect();
        Self {
            seed,
            c3o,
            bell,
            holdout,
            c3o_props,
            bell_props,
        }
    }

    /// C3O contexts of `alg` its general model is trained on.
    pub fn trained_contexts(&self, alg: Algorithm) -> Vec<usize> {
        self.c3o
            .contexts_for(alg)
            .iter()
            .map(|c| c.id)
            .filter(|&id| !self.holdout[id])
            .collect()
    }

    /// The held-out C3O contexts, in id order.
    pub fn holdout_contexts(&self) -> Vec<usize> {
        (0..self.holdout.len())
            .filter(|&id| self.holdout[id])
            .collect()
    }

    /// The pretraining history of `alg`: its C3O runs minus the hold-outs.
    pub fn history(&self, alg: Algorithm) -> Vec<TrainingSample> {
        self.c3o
            .runs
            .iter()
            .filter(|r| {
                let ctx = &self.c3o.contexts[r.context_id];
                ctx.algorithm == alg && !self.holdout[r.context_id]
            })
            .map(|r| TrainingSample::from_run(&self.c3o.contexts[r.context_id], r))
            .collect()
    }
}

/// `(noise-free runtime at the mid scale-out, context id)` of every
/// context of `alg`, ascending.
fn runtimes(data: &Dataset, alg: Algorithm) -> Vec<(f64, usize)> {
    let mut v: Vec<(f64, usize)> = data
        .contexts_for(alg)
        .iter()
        .map(|c| (ground_truth_profile(c).runtime(MID_SCALE_OUT), c.id))
        .collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    v
}

/// Index of `alg` in [`Algorithm::ALL`] (the order of `Setup::keys`).
pub fn alg_index(alg: Algorithm) -> usize {
    Algorithm::ALL
        .iter()
        .position(|&a| a == alg)
        .expect("every algorithm is in Algorithm::ALL")
}

/// A service over a fresh hub directory with the five general models.
pub struct Setup {
    pub dir: PathBuf,
    pub service: Service,
    pub policy: FinetunePolicy,
    /// One key per algorithm, in [`Algorithm::ALL`] order.
    pub keys: Vec<ModelKey>,
    pub clients: Vec<ModelClient>,
    /// Wall time of each `client_or_pretrain` call, in seconds.
    pub pretrain_s: Vec<f64>,
    /// Optimizer steps taken while pretraining (from the process-wide
    /// `bellamy_train_step_latency_seconds` histogram).
    pub train_steps: HistogramSnapshot,
}

impl Setup {
    pub fn build(inputs: &Inputs, dir: PathBuf) -> Result<Self, String> {
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {dir:?}: {e}"))?;
        }
        let policy = FinetunePolicy {
            config: FinetuneConfig::quick(),
            ..FinetunePolicy::default()
        };
        let service = Service::builder()
            .hub_dir(&dir)
            .finetune_policy(policy.clone())
            .build()
            .map_err(|e| format!("opening the service: {e}"))?;
        let steps_before = bellamy_telemetry::global().train_step_nanos.snapshot();
        let mut keys = Vec::new();
        let mut clients = Vec::new();
        let mut pretrain_s = Vec::new();
        for (i, alg) in Algorithm::ALL.into_iter().enumerate() {
            let key = ModelKey::new(alg.name(), OBJECTIVE, &BellamyConfig::default());
            let t = Instant::now();
            let client = service
                .client_or_pretrain(&key, &pretrain_config(), pretrain_seed(i), || {
                    inputs.history(alg)
                })
                .map_err(|e| format!("pretraining {}: {e}", alg.name()))?;
            pretrain_s.push(t.elapsed().as_secs_f64());
            keys.push(key);
            clients.push(client);
        }
        let steps_after = bellamy_telemetry::global().train_step_nanos.snapshot();
        Ok(Self {
            dir,
            service,
            policy,
            keys,
            clients,
            pretrain_s,
            train_steps: crate::stats::histogram_delta(&steps_before, &steps_after),
        })
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        // Mapped checkpoints stay valid after unlink, so removing the
        // directory under live clients is safe; a failure only leaves files
        // inside the run's own output directory.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
