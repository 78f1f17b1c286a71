//! `plan`: one caller. Each op looks up a context's fine-tuned model
//! (`Service::finetuned_client`, an LRU hit after warm-up) and asks it for
//! a scale-out decision, alternating `recommend_scale_out` and
//! `cheapest_scale_out` over the context's grid — the paper's motivating
//! use. Loads the batched predictor and kernels; bypasses the batcher,
//! fine-tuning and the disk.

use super::{p50_us, ratio, rows_per_forward, sweep_metrics, tracer, Env, Outcome};
use crate::run::closed_loop;
use crate::sets::PRICE;
use crate::trace::NO_PARENT;
use bellamy_core::{ModelClient, ScaleOutRecommendation};
use std::sync::Arc;
use std::time::Instant;

pub struct Plan {
    clients: Vec<ModelClient>,
    /// Each decision's answer through the independent path.
    expected: Vec<Option<ScaleOutRecommendation>>,
}

impl Plan {
    /// Fine-tunes the known contexts and primes their encoding caches.
    pub fn prepare(env: &Env<'_>) -> Result<Self, String> {
        let clients = env.plan.clients(env.setup)?;
        let expected = env.plan.expected(|i| Arc::clone(clients[i].state()));
        Ok(Self { clients, expected })
    }

    pub fn phase(&self, env: &Env<'_>, seconds: f64, traced: bool) -> Outcome {
        let service = &env.setup.service;
        let keys = &env.setup.keys;
        let (contexts, decisions) = (&env.plan.contexts, &env.plan.decisions);
        let cached = || -> usize {
            self.clients
                .iter()
                .map(|c| c.state().encoding_cache_len())
                .sum()
        };
        let (hub_before, cache_before, tel_before) =
            (service.stats(), cached(), service.telemetry());
        let mut tr = tracer(traced);
        let mut phase = closed_loop(Instant::now(), seconds, &mut tr, 3, |op| {
            let pos = op.id as usize % decisions.len();
            let d = &decisions[pos];
            let c = &contexts[d.ctx];
            let (lo, hi) = c.range;
            let root = op.tracer.open("op", op.id, NO_PARENT);
            let hits = op.tracer.enabled().then(|| service.stats().finetune_hits);
            let lookup = op.tracer.open("hub.finetuned_client.miss", op.id, root);
            let client = service.finetuned_client(&keys[c.alg], &c.label, &c.samples);
            op.tracer.close(lookup);
            if hits.is_some_and(|h| service.stats().finetune_hits > h) {
                op.tracer.rename(lookup, "hub.finetuned_client.hit");
            }
            let ok = client.is_ok_and(|client| {
                let sweep = op.tracer.open("predictor.sweep", op.id, root);
                let answer = if d.cheapest {
                    client.cheapest_scale_out(&c.props, PRICE, Some(d.target_s), lo, hi)
                } else {
                    client.recommend_scale_out(&c.props, d.target_s, lo, hi)
                };
                op.tracer.close(sweep);
                answer == self.expected[pos]
            });
            op.tracer.close(root);
            ok
        });
        phase.spans = tr.into_spans();
        let mut layers = Vec::new();
        if traced {
            let hub = service.stats();
            let hits = (hub.finetune_hits - hub_before.finetune_hits) as f64;
            let misses = (hub.finetunes - hub_before.finetunes) as f64;
            let rows_of_op = |op: u32| {
                let (lo, hi) = contexts[decisions[op as usize % decisions.len()].ctx].range;
                u64::from(hi - lo + 1)
            };
            layers = sweep_metrics(&phase.spans, rows_of_op);
            layers.extend([
                (
                    "hub.lookup_us",
                    p50_us(&phase.spans, "hub.finetuned_client.hit"),
                ),
                ("hub.lru_hit_share", ratio(hits, hits + misses)),
                (
                    "predictor.rows_per_forward",
                    rows_per_forward(&tel_before, &service.telemetry()),
                ),
                (
                    "state.encode_misses",
                    ratio((cached() - cache_before) as f64, phase.attempted as f64),
                ),
            ]);
        }
        let hub = service.stats();
        Outcome {
            phase,
            layers,
            counted_failures: (hub.disk_retries - hub_before.disk_retries)
                + (hub.quarantined - hub_before.quarantined),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::testenv::{assert_gate_caught, perturbed, TestEnv};

    #[test]
    fn gate_fails_a_perturbed_answer() {
        let t = TestEnv::new(3, "plan-gate");
        let mut w = Plan::prepare(&t.env()).unwrap();
        w.expected[0] = perturbed(&w.expected[0]);
        assert_gate_caught(&w.phase(&t.env(), 0.3, false));
    }
}
