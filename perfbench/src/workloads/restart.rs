//! `restart`: one caller. Each op opens a fresh `ModelHub::at(dir)` (the
//! default recall mode) under a new `Service`, recalls the five Table-I
//! models plus one wide model from disk with `Service::client`, and makes
//! one single-row prediction per model. The only workload that reads
//! checkpoints back; the two model sizes separate per-file from per-byte
//! recall cost. Bypasses the batcher and fine-tuning.

use super::{p50_us, ratio, rows_per_forward, total_ns, tracer, Env, Outcome};
use crate::run::closed_loop;
use crate::setup::{pretrain_config, pretrain_seed};
use crate::trace::NO_PARENT;
use bellamy_core::{
    BellamyConfig, ModelHub, ModelKey, ModelState, PredictQuery, Predictor, PretrainConfig, Service,
};
use bellamy_data::Algorithm;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Hidden width of the wide model: its checkpoint is ~1 MB, against
/// ~10 KB for a Table-I model.
pub const WIDE_HIDDEN_DIM: usize = 1024;
/// Prediction draws in the op cycle.
const DRAWS: usize = 64;
const MB: f64 = (1 << 20) as f64;

struct Draw {
    ctx: usize,
    x: f64,
    expected: f64,
}

pub struct Restart {
    /// The five Table-I keys, then the wide key.
    keys: Vec<ModelKey>,
    /// Checkpoint size of each key, in bytes.
    bytes: Vec<u64>,
    /// Per op in the cycle, one draw per key.
    draws: Vec<Vec<Draw>>,
}

impl Restart {
    /// Publishes the wide model (a zero-epoch `pretrain` fits it: recall
    /// cost depends on bytes, not on weight values) and records every
    /// draw's answer from the pre-restart snapshots.
    pub fn prepare(env: &Env<'_>) -> Result<Self, String> {
        let setup = env.setup;
        let wide_cfg = BellamyConfig {
            hidden_dim: WIDE_HIDDEN_DIM,
            ..BellamyConfig::default()
        };
        let wide_key = ModelKey::new(Algorithm::Grep.name(), "runtime-wide", &wide_cfg);
        let fit_only = PretrainConfig {
            epochs: 0,
            ..pretrain_config()
        };
        let wide = setup
            .service
            .client_or_pretrain(
                &wide_key,
                &fit_only,
                pretrain_seed(Algorithm::ALL.len()),
                || env.inputs.history(Algorithm::Grep),
            )
            .map_err(|e| format!("publishing the wide model: {e}"))?;
        let mut keys = setup.keys.clone();
        keys.push(wide_key);
        let states: Vec<Arc<ModelState>> = setup
            .clients
            .iter()
            .chain([&wide])
            .map(|c| Arc::clone(c.state()))
            .collect();
        let algs: Vec<Algorithm> = Algorithm::ALL
            .into_iter()
            .chain([Algorithm::Grep])
            .collect();
        let bytes = keys
            .iter()
            .map(|k| {
                let path = setup.dir.join(format!("{}.blmy", k.id()));
                std::fs::metadata(&path)
                    .map(|m| m.len())
                    .map_err(|e| format!("checkpoint {path:?}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let trained: Vec<Vec<usize>> = algs
            .iter()
            .map(|&a| env.inputs.trained_contexts(a))
            .collect();
        let mut rng = StdRng::seed_from_u64(env.inputs.seed ^ 0x2E57A27);
        let mut predictor = Predictor::new();
        let draws = (0..DRAWS)
            .map(|_| {
                states
                    .iter()
                    .zip(&trained)
                    .map(|(state, ctxs)| {
                        let ctx = ctxs[rng.random_range(0..ctxs.len())];
                        let x = f64::from(rng.random_range(2u32..=12));
                        let expected = predictor.predict_one(state, x, &env.inputs.c3o_props[ctx]);
                        Draw { ctx, x, expected }
                    })
                    .collect()
            })
            .collect();
        Ok(Self { keys, bytes, draws })
    }

    pub fn phase(&self, env: &Env<'_>, seconds: f64, traced: bool) -> Outcome {
        let dir = &env.setup.dir;
        let props = &env.inputs.c3o_props;
        let wide = self.keys.len() - 1;
        let (mut counted_failures, mut cache_growth) = (0u64, 0usize);
        let mut tr = tracer(traced);
        let tel_before = env.setup.service.telemetry();
        let mut phase = closed_loop(
            Instant::now(),
            seconds,
            &mut tr,
            3 + 2 * self.keys.len(),
            |op| {
                let draws = &self.draws[op.id as usize % self.draws.len()];
                let root = op.tracer.open("op", op.id, NO_PARENT);
                let span = op.tracer.open("hub.open", op.id, root);
                let hub = ModelHub::at(dir);
                op.tracer.close(span);
                let span = op.tracer.open("serve.build", op.id, root);
                let service = hub
                    .map_err(Into::into)
                    .and_then(|h| Service::builder().hub(Arc::new(h)).build());
                op.tracer.close(span);
                let Ok(service) = service else {
                    op.tracer.close(root);
                    return false;
                };
                let mut ok = true;
                for (m, (key, d)) in self.keys.iter().zip(draws).enumerate() {
                    let name = if m == wide {
                        "hub.disk_recall.wide"
                    } else {
                        "hub.disk_recall.table1"
                    };
                    let span = op.tracer.open(name, op.id, root);
                    let client = service.client(key);
                    op.tracer.close(span);
                    let Ok(client) = client else {
                        ok = false;
                        continue;
                    };
                    let span = op.tracer.open("predictor.first_answer", op.id, root);
                    let query = PredictQuery {
                        scale_out: d.x,
                        props: &props[d.ctx],
                    };
                    let y = client.predict_batch(std::slice::from_ref(&query));
                    op.tracer.close(span);
                    ok &= y[0].to_bits() == d.expected.to_bits();
                    if op.tracer.enabled() {
                        cache_growth += client.state().encoding_cache_len();
                    }
                }
                let stats = service.stats();
                counted_failures += stats.disk_retries + stats.quarantined;
                ok &= stats.disk_recalls == self.keys.len() as u64;
                drop(service);
                op.tracer.close(root);
                ok
            },
        );
        phase.spans = tr.into_spans();
        let mut layers = Vec::new();
        if traced {
            let spans = &phase.spans;
            let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
            let table1_bytes: u64 = self.bytes[..wide].iter().sum();
            let recalled = count("hub.disk_recall.table1") / wide as f64 * table1_bytes as f64
                + count("hub.disk_recall.wide") * self.bytes[wide] as f64;
            let recall_ns =
                total_ns(spans, "hub.disk_recall.table1") + total_ns(spans, "hub.disk_recall.wide");
            layers = vec![
                ("hub.open_us", p50_us(spans, "hub.open")),
                (
                    "hub.disk_recall_us.table1",
                    p50_us(spans, "hub.disk_recall.table1"),
                ),
                (
                    "hub.disk_recall_us.wide",
                    p50_us(spans, "hub.disk_recall.wide"),
                ),
                (
                    "checkpoint.mb_per_s",
                    ratio(recalled / MB, recall_ns as f64 / 1e9),
                ),
                (
                    "predictor.first_answer_us",
                    p50_us(spans, "predictor.first_answer"),
                ),
                (
                    "predictor.rows_per_forward",
                    rows_per_forward(&tel_before, &env.setup.service.telemetry()),
                ),
                (
                    "state.encode_misses",
                    ratio(cache_growth as f64, phase.attempted as f64),
                ),
            ];
        }
        Outcome {
            phase,
            layers,
            counted_failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::testenv::{assert_gate_caught, next_up, TestEnv};

    #[test]
    fn gate_fails_a_perturbed_answer() {
        let t = TestEnv::new(3, "restart-gate");
        let mut w = Restart::prepare(&t.env()).unwrap();
        w.draws[0][0].expected = next_up(w.draws[0][0].expected);
        assert_gate_caught(&w.phase(&t.env(), 0.3, false));
    }
}
