//! `onboard`: one caller. Each op is one job in a hold-out C3O context
//! with one to five observed runs: `Service::finetuned_client` (an LRU
//! miss, so the hub fine-tunes) and then the job's first
//! `recommend_scale_out` — the paper's fine-tune step. Loads fine-tuning
//! and the backward pass, the per-call re-encoding of the samples'
//! properties, and the hub's LRU writes; bypasses the batcher and the disk.
//!
//! The gate replays every job outside the hub after the timed phase and
//! fails each op whose decision differs. `fine_tune` runs inside the hub
//! call, invisible to the caller, so the traced phase also replays each op
//! inline (`Bellamy::from_state` → `fine_tune` → `Bellamy::snapshot`,
//! after the op's answer is timed) to span the fine-tuning itself.

use super::{p50_us, ratio, rows_per_forward, sweep_metrics, total_ns, tracer, Env, Outcome};
use crate::run::{closed_loop, Recorded};
use crate::sets::C3O_RANGE;
use crate::trace::NO_PARENT;
use bellamy_core::finetune::fine_tune;
use bellamy_core::{Bellamy, ScaleOutRecommendation};
use bellamy_encoding::PropertyEncoder;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

pub struct Onboard;

impl Onboard {
    pub fn phase(&self, env: &Env<'_>, seconds: f64, traced: bool, phase_no: u32) -> Outcome {
        let setup = env.setup;
        let service = &setup.service;
        let jobs = &env.jobs.contexts;
        let (lo, hi) = C3O_RANGE;
        let (hub_before, tel_before) = (service.stats(), service.telemetry());
        let encoder = PropertyEncoder::new(setup.keys[0].config().property_dim);
        // The first answer of each job, and where every op's latency went:
        // later ops of a job must repeat its first answer (checked inline);
        // first answers are checked against the replays after the phase.
        let mut first: Vec<Option<Option<ScaleOutRecommendation>>> = vec![None; jobs.len()];
        let mut recorded: Vec<(u32, Recorded)> = Vec::with_capacity(1 << 16);
        let (mut cache_growth, mut traced_epochs) = (0usize, 0usize);
        let mut label = String::with_capacity(32);
        let mut tr = tracer(traced);
        let mut phase = closed_loop(Instant::now(), seconds, &mut tr, 8, |op| {
            let j = op.id as usize % jobs.len();
            let (job, target_s) = (&jobs[j], env.jobs.decisions[j].target_s);
            label.clear();
            let _ = write!(label, "job-{phase_no}-{}", op.id);
            let root = op.tracer.open("op", op.id, NO_PARENT);
            let hits = op.tracer.enabled().then(|| service.stats().finetune_hits);
            let call = op.tracer.open("hub.finetuned_client.miss", op.id, root);
            let client = service.finetuned_client(&setup.keys[job.alg], &label, &job.samples);
            op.tracer.close(call);
            if hits.is_some_and(|h| service.stats().finetune_hits > h) {
                op.tracer.rename(call, "hub.finetuned_client.hit");
            }
            let Ok(client) = client else {
                op.tracer.close(root);
                return false;
            };
            let sweep = op.tracer.open("predictor.sweep", op.id, root);
            let answer = client.recommend_scale_out(&job.props, target_s, lo, hi);
            op.tracer.close(sweep);
            op.tracer.close(root);
            let at = op.answered();
            match &first[j] {
                Some(a) if *a != answer => return false,
                Some(_) => {}
                None => first[j] = Some(answer.clone()),
            }
            if op.tracer.enabled() {
                cache_growth += client.state().encoding_cache_len();
                let p = &setup.policy;
                let replay = op.tracer.open("replay", op.id, NO_PARENT);
                let span = op.tracer.open("model.from_state", op.id, replay);
                let mut model = Bellamy::from_state(setup.clients[job.alg].state());
                op.tracer.close(span);
                let span = op.tracer.open("encoding.encode", op.id, replay);
                for s in &job.samples {
                    for prop in s.props.essential.iter().chain(&s.props.optional) {
                        black_box(encoder.encode(prop));
                    }
                }
                op.tracer.close(span);
                let span = op.tracer.open("finetune.fine_tune", op.id, replay);
                traced_epochs +=
                    fine_tune(&mut model, &job.samples, &p.config, p.strategy, p.seed).epochs;
                op.tracer.close(span);
                let span = op.tracer.open("model.snapshot", op.id, replay);
                let state = model.snapshot();
                op.tracer.close(span);
                op.tracer.close(replay);
                if state.map(|s| env.jobs.answer(j, &s)).ok() != Some(answer) {
                    return false;
                }
            }
            recorded.push((j as u32, at));
            true
        });
        phase.spans = tr.into_spans();

        // Gate: each op's decision equals its job's decision from the model
        // fine-tuned outside the hub (an exact f64 runtime included).
        let replayed = env.jobs.replayed(setup);
        for (j, at) in recorded {
            let j = j as usize;
            if first[j].as_ref() != Some(&replayed.answers[j]) {
                phase.fail(at);
            }
        }

        let hub = service.stats();
        let mut layers = Vec::new();
        if traced {
            let hits = (hub.finetune_hits - hub_before.finetune_hits) as f64;
            let misses = (hub.finetunes - hub_before.finetunes) as f64;
            let epochs: usize = replayed.reports.iter().map(|r| r.epochs).sum();
            let rows = u64::from(hi - lo + 1);
            layers = sweep_metrics(&phase.spans, |_| rows);
            layers.extend([
                (
                    "hub.finetuned_client_us",
                    p50_us(&phase.spans, "hub.finetuned_client.miss"),
                ),
                ("hub.lru_hit_share", ratio(hits, hits + misses)),
                ("finetune.us", p50_us(&phase.spans, "finetune.fine_tune")),
                (
                    "finetune.epochs",
                    ratio(epochs as f64, replayed.reports.len() as f64),
                ),
                (
                    "finetune.epoch_us",
                    ratio(
                        total_ns(&phase.spans, "finetune.fine_tune") as f64 / 1e3,
                        traced_epochs as f64,
                    ),
                ),
                (
                    "encoding.encode_us",
                    p50_us(&phase.spans, "encoding.encode"),
                ),
                (
                    "predictor.rows_per_forward",
                    rows_per_forward(&tel_before, &service.telemetry()),
                ),
                (
                    "state.encode_misses",
                    ratio(cache_growth as f64, phase.attempted as f64),
                ),
            ]);
        }
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
        let mut t = TestEnv::new(3, "onboard-gate");
        let answers = &mut t.jobs.replayed_mut(&t.setup).answers;
        answers[0] = perturbed(&answers[0]);
        assert_gate_caught(&Onboard.phase(&t.env(), 0.3, false, 0));
    }
}
