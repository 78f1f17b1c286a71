//! `serve`: two callers (the host's two cores) each call
//! `ModelClient::predict` for seeded draws over the five general models, so
//! five micro-batchers are live. The only workload through the batcher;
//! with blocking calls at most two queries are in flight, so it measures
//! the batcher's per-query cost, not deep coalescing.

use super::{
    histogram_between, histogram_p50_us, p50_us, ratio, rows_per_forward, tracer, Env, Outcome,
};
use crate::run::{closed_loop, Phase};
use crate::trace::NO_PARENT;
use bellamy_core::{BatcherStats, ModelClient, Predictor};
use bellamy_data::Algorithm;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Barrier;
use std::time::Instant;

pub const CALLERS: usize = 2;
/// Draws in each caller's cycle.
const DRAWS: usize = 4096;

struct Draw {
    model: usize,
    ctx: usize,
    x: f64,
    expected: f64,
}

pub struct Serve {
    draws: Vec<Vec<Draw>>,
}

impl Serve {
    /// Spins up the five batchers and warms their encoding caches with one
    /// query per (model, trained context); computes every draw's expected
    /// answer with `Predictor::predict_one` on the same snapshot.
    pub fn prepare(env: &Env<'_>) -> Result<Self, String> {
        let clients = &env.setup.clients;
        let props = &env.inputs.c3o_props;
        let trained: Vec<Vec<usize>> = Algorithm::ALL
            .iter()
            .map(|&a| env.inputs.trained_contexts(a))
            .collect();
        for (client, ctxs) in clients.iter().zip(&trained) {
            for &c in ctxs {
                client
                    .predict(2.0, &props[c])
                    .map_err(|e| format!("serve warm-up: {e}"))?;
            }
        }
        let mut predictor = Predictor::new();
        let draws = (0..CALLERS)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(env.inputs.seed ^ 0x5E77E ^ t as u64);
                (0..DRAWS)
                    .map(|_| {
                        let model = rng.random_range(0..clients.len());
                        let ctx = trained[model][rng.random_range(0..trained[model].len())];
                        let x = f64::from(rng.random_range(2u32..=12));
                        let expected =
                            predictor.predict_one(clients[model].state(), x, &props[ctx]);
                        Draw {
                            model,
                            ctx,
                            x,
                            expected,
                        }
                    })
                    .collect()
            })
            .collect();
        Ok(Self { draws })
    }

    pub fn phase(&self, env: &Env<'_>, seconds: f64, traced: bool) -> Outcome {
        let clients = &env.setup.clients;
        let props = &env.inputs.c3o_props;
        let stats = |cs: &[ModelClient]| -> Vec<BatcherStats> {
            cs.iter().map(ModelClient::batcher_stats).collect()
        };
        let cached = || -> usize { clients.iter().map(|c| c.state().encoding_cache_len()).sum() };
        let (stats_before, cache_before) = (stats(clients), cached());
        let tel_before = env.setup.service.telemetry();
        let barrier = Barrier::new(CALLERS);
        let parts: Vec<Phase> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .draws
                .iter()
                .map(|draws| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let mut tr = tracer(traced);
                        barrier.wait();
                        let mut phase = closed_loop(Instant::now(), seconds, &mut tr, 2, |op| {
                            let d = &draws[op.id as usize % draws.len()];
                            let root = op.tracer.open("op", op.id, NO_PARENT);
                            let r = op.tracer.span("serve.predict", op.id, root, || {
                                clients[d.model].predict(d.x, &props[d.ctx])
                            });
                            op.tracer.close(root);
                            matches!(r, Ok(v) if v.to_bits() == d.expected.to_bits())
                        });
                        phase.spans = tr.into_spans();
                        phase
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a serve caller panicked"))
                .collect()
        });
        let phase = Phase::merge(parts);
        let delta = |f: fn(&BatcherStats) -> u64| -> u64 {
            stats(clients)
                .iter()
                .zip(&stats_before)
                .map(|(a, b)| f(a) - f(b))
                .sum()
        };
        let counted_failures =
            delta(|s| s.shed) + delta(|s| s.deadline_expired) + delta(|s| s.panics);
        let mut layers = Vec::new();
        if traced {
            let tel_after = env.setup.service.telemetry();
            let batches = delta(|s| s.batches) as f64;
            let flush = histogram_between(
                &tel_before,
                &tel_after,
                "bellamy_serve_flush_latency_seconds",
            );
            let flush_us = histogram_p50_us(&flush);
            layers = vec![
                (
                    "serve.mean_batch",
                    ratio(delta(|s| s.queries) as f64, batches),
                ),
                (
                    "serve.assist_share",
                    ratio(delta(|s| s.assist_flushes) as f64, batches),
                ),
                ("serve.flush_us", flush_us),
                (
                    "serve.wait_us",
                    p50_us(&phase.spans, "serve.predict") - flush_us,
                ),
                (
                    "predictor.rows_per_forward",
                    rows_per_forward(&tel_before, &tel_after),
                ),
                (
                    "state.encode_misses",
                    ratio((cached() - cache_before) as f64, phase.attempted as f64),
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
        let t = TestEnv::new(3, "serve-gate");
        let mut w = Serve::prepare(&t.env()).unwrap();
        w.draws[0][0].expected = next_up(w.draws[0][0].expected);
        assert_gate_caught(&w.phase(&t.env(), 0.3, false));
    }
}
