//! Seeded decision sets: the contexts a workload decides for, the runs
//! observed in each, and the independent answers the gates compare to.
//! Three sets are drawn from the inputs: `plan`'s known contexts, the
//! `onboard` jobs, and the larger evaluation set behind `success_rate`.

use crate::setup::{alg_index, Inputs, Setup};
use bellamy_core::finetune::fine_tune;
use bellamy_core::hub::DEFAULT_FINETUNED_CAPACITY;
use bellamy_core::{
    cheapest_scale_out, min_scale_out_meeting, Bellamy, ContextProperties, FinetuneReport,
    ModelClient, ModelState, Predictor, ScaleOutRecommendation, TrainingSample,
};
use bellamy_data::generator::C3O_SCALE_OUTS;
use bellamy_data::{ground_truth_profile, Algorithm, Dataset, ScaleOutProfile};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::OnceCell;
use std::sync::Arc;

/// Candidate scale-outs of a C3O decision.
pub const C3O_RANGE: (u32, u32) = (2, 12);
/// Candidate scale-outs of a Bell decision.
pub const BELL_RANGE: (u32, u32) = (4, 60);
/// Per-machine-hour price of `cheapest_scale_out` decisions.
pub const PRICE: f64 = 1.0;
/// Runtime targets are the best ground-truth runtime times a slack drawn
/// from this range, so every target is meetable.
pub const SLACK: (f64, f64) = (1.1, 1.5);
/// Runs observed per context of `plan` and of the evaluation set.
pub const OBSERVED_RUNS: usize = 3;
/// Decisions in `plan`'s cycle.
pub const PLAN_DECISIONS: usize = 256;
/// Jobs per (hold-out context, observed-run count) in `onboard`'s cycle.
pub const JOBS_PER_STRATUM: usize = 9;
/// Observed runs of an `onboard` job: one to this many.
pub const MAX_OBSERVED_RUNS: usize = 5;
/// Decisions per context of the evaluation set, alternating the two
/// decision kinds.
pub const EVAL_DECISIONS_PER_CONTEXT: usize = 4;

/// A context and the runs observed in it.
pub struct Context {
    pub alg: usize,
    /// The hub's label for the context's fine-tuned descendant.
    pub label: String,
    pub props: ContextProperties,
    pub samples: Vec<TrainingSample>,
    pub truth: ScaleOutProfile,
    pub range: (u32, u32),
}

impl Context {
    /// Draws `n` distinct runs of context `id`.
    fn draw(inputs: &Inputs, bell: bool, id: usize, n: usize, rng: &mut StdRng) -> Self {
        let (data, props, range): (&Dataset, _, _) = if bell {
            (&inputs.bell, &inputs.bell_props, BELL_RANGE)
        } else {
            (&inputs.c3o, &inputs.c3o_props, C3O_RANGE)
        };
        let ctx = &data.contexts[id];
        let runs = data.runs_for_context(id);
        let mut idx: Vec<usize> = (0..runs.len()).collect();
        let samples = (0..n)
            .map(|_| {
                let i = idx.swap_remove(rng.random_range(0..idx.len()));
                TrainingSample::from_run(ctx, runs[i])
            })
            .collect();
        Self {
            alg: alg_index(ctx.algorithm),
            label: format!("{}-{id}", if bell { "bell" } else { "c3o" }),
            props: props[id].clone(),
            samples,
            truth: ground_truth_profile(ctx),
            range,
        }
    }

    fn best_runtime(&self) -> f64 {
        let (lo, hi) = self.range;
        (lo..=hi)
            .map(|x| self.truth.runtime(f64::from(x)))
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean relative error of `state` at the C3O grid scale-outs not
    /// observed here (at least one: a context observes at most five runs,
    /// and the grid has six points), against the ground-truth profile
    /// (the paper's Fig. 5 metric).
    pub fn mre(&self, state: &ModelState) -> f64 {
        let unseen: Vec<f64> = C3O_SCALE_OUTS
            .iter()
            .map(|&x| f64::from(x))
            .filter(|x| self.samples.iter().all(|s| s.scale_out != *x))
            .collect();
        let preds =
            Predictor::with_thread_local(|p| p.predict_sweep(state, &self.props, &unseen).to_vec());
        let total: f64 = unseen
            .iter()
            .zip(&preds)
            .map(|(&x, &p)| (p - self.truth.runtime(x)).abs() / self.truth.runtime(x))
            .sum();
        total / unseen.len() as f64
    }
}

pub struct Decision {
    pub ctx: usize,
    pub target_s: f64,
    /// `cheapest_scale_out` (odd positions) or `recommend_scale_out`.
    pub cheapest: bool,
}

impl Decision {
    /// The decision on `curve` (predicted runtimes over the context's
    /// range): the `allocation` helpers the client methods also use.
    pub fn on_curve(&self, c: &Context, curve: &[f64]) -> Option<ScaleOutRecommendation> {
        let (lo, hi) = c.range;
        let at = |x: u32| curve[(x - lo) as usize];
        if self.cheapest {
            cheapest_scale_out(at, PRICE, Some(self.target_s), lo, hi)
        } else {
            min_scale_out_meeting(at, self.target_s, lo, hi)
        }
    }
}

/// What fine-tuning every context outside the hub gives
/// (`Bellamy::from_state` → `fine_tune` → `Bellamy::snapshot` with the
/// service's policy, which the hub documents as bit-identical to its own
/// path): every decision's answer, and per context the fine-tuning report
/// and the model's MRE. Each model is dropped once scored.
pub struct Replayed {
    pub answers: Vec<Option<ScaleOutRecommendation>>,
    pub reports: Vec<FinetuneReport>,
    pub mres: Vec<f64>,
}

pub struct Decisions {
    pub contexts: Vec<Context>,
    pub decisions: Vec<Decision>,
    replayed: OnceCell<Replayed>,
}

impl Decisions {
    fn new(contexts: Vec<Context>, decisions: Vec<Decision>) -> Self {
        Self {
            contexts,
            decisions,
            replayed: OnceCell::new(),
        }
    }

    /// `n` decisions over `contexts`, alternating the two kinds.
    fn draw(contexts: Vec<Context>, n: usize, rng: &mut StdRng) -> Self {
        let decisions = (0..n)
            .map(|pos| {
                let ctx = rng.random_range(0..contexts.len());
                Decision {
                    ctx,
                    target_s: contexts[ctx].best_runtime() * rng.random_range(SLACK.0..SLACK.1),
                    cheapest: pos % 2 == 1,
                }
            })
            .collect();
        Self::new(contexts, decisions)
    }

    /// `plan`: C3O contexts from the pretraining history across the five
    /// algorithms plus the three Bell contexts (cross-environment), as many
    /// as the hub's descendant LRU holds.
    pub fn plan(inputs: &Inputs) -> Self {
        let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x91A7);
        let mut pools: Vec<Vec<usize>> = Algorithm::ALL
            .iter()
            .map(|&a| inputs.trained_contexts(a))
            .collect();
        let n_algs = pools.len();
        let n_c3o = DEFAULT_FINETUNED_CAPACITY - inputs.bell.contexts.len();
        let mut contexts: Vec<Context> = (0..n_c3o)
            .map(|i| {
                let pool = &mut pools[i % n_algs];
                let id = pool.swap_remove(rng.random_range(0..pool.len()));
                Context::draw(inputs, false, id, OBSERVED_RUNS, &mut rng)
            })
            .collect();
        for id in 0..inputs.bell.contexts.len() {
            contexts.push(Context::draw(inputs, true, id, OBSERVED_RUNS, &mut rng));
        }
        Self::draw(contexts, PLAN_DECISIONS, &mut rng)
    }

    /// `onboard`: jobs in hold-out C3O contexts with one to five observed
    /// runs, each deciding `recommend_scale_out` once. Every (context, run
    /// count) pair gets the same number of jobs, with its own seeded runs.
    pub fn onboard(inputs: &Inputs) -> Self {
        let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x000B_0A4D);
        let holdouts = inputs.holdout_contexts();
        let strata = holdouts.len() * MAX_OBSERVED_RUNS;
        let contexts: Vec<Context> = (0..strata * JOBS_PER_STRATUM)
            .map(|i| {
                let (id, n) = (
                    holdouts[i % holdouts.len()],
                    (i / holdouts.len()) % MAX_OBSERVED_RUNS + 1,
                );
                Context::draw(inputs, false, id, n, &mut rng)
            })
            .collect();
        let decisions = contexts
            .iter()
            .enumerate()
            .map(|(ctx, c)| Decision {
                ctx,
                target_s: c.best_runtime() * rng.random_range(SLACK.0..SLACK.1),
                cheapest: false,
            })
            .collect();
        Self::new(contexts, decisions)
    }

    /// The evaluation set behind `success_rate`: every C3O context of the
    /// pretraining history plus the three Bell contexts, each deciding
    /// [`EVAL_DECISIONS_PER_CONTEXT`] times. `plan`'s 32 contexts alone
    /// spread too widely across seeds to bound.
    pub fn evaluation(inputs: &Inputs) -> Self {
        let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0xE7A1);
        let mut contexts: Vec<Context> = Algorithm::ALL
            .iter()
            .flat_map(|&a| inputs.trained_contexts(a))
            .map(|id| Context::draw(inputs, false, id, OBSERVED_RUNS, &mut rng))
            .collect();
        for id in 0..inputs.bell.contexts.len() {
            contexts.push(Context::draw(inputs, true, id, OBSERVED_RUNS, &mut rng));
        }
        let n = contexts.len();
        let decisions = (0..n * EVAL_DECISIONS_PER_CONTEXT)
            .map(|pos| {
                let c = &contexts[pos % n];
                Decision {
                    ctx: pos % n,
                    target_s: c.best_runtime() * rng.random_range(SLACK.0..SLACK.1),
                    cheapest: (pos / n) % 2 == 1,
                }
            })
            .collect();
        Self::new(contexts, decisions)
    }

    /// Fine-tunes (or, once warm, looks up) every context's descendant
    /// through the service and primes its encoding cache with one sweep.
    pub fn clients(&self, setup: &Setup) -> Result<Vec<ModelClient>, String> {
        self.contexts
            .iter()
            .map(|c| {
                let client = setup
                    .service
                    .finetuned_client(&setup.keys[c.alg], &c.label, &c.samples)
                    .map_err(|e| format!("fine-tuning {}: {e}", c.label))?;
                client.predict_sweep(&c.props, &[f64::from(c.range.0)]);
                Ok(client)
            })
            .collect()
    }

    /// Every context fine-tuned outside the hub and scored, computed once.
    pub fn replayed(&self, setup: &Setup) -> &Replayed {
        self.replayed.get_or_init(|| {
            let mut by_ctx = vec![Vec::new(); self.contexts.len()];
            for (i, d) in self.decisions.iter().enumerate() {
                by_ctx[d.ctx].push(i);
            }
            let mut out = Replayed {
                answers: vec![None; self.decisions.len()],
                reports: Vec::with_capacity(self.contexts.len()),
                mres: Vec::with_capacity(self.contexts.len()),
            };
            let p = &setup.policy;
            for (c, decisions) in self.contexts.iter().zip(&by_ctx) {
                let mut model = Bellamy::from_state(setup.clients[c.alg].state());
                out.reports.push(fine_tune(
                    &mut model, &c.samples, &p.config, p.strategy, p.seed,
                ));
                let state = model
                    .snapshot()
                    .expect("a fine-tuned pretrained model is fitted");
                out.mres.push(c.mre(&state));
                for &i in decisions {
                    out.answers[i] = self.answer(i, &state);
                }
            }
            out
        })
    }

    /// The replay results, for a self-test to perturb.
    #[cfg(test)]
    pub(crate) fn replayed_mut(&mut self, setup: &Setup) -> &mut Replayed {
        self.replayed(setup);
        self.replayed.get_mut().expect("just computed")
    }

    /// Decision `i`'s answer from `state` through the independent path: a
    /// direct `Predictor::predict_sweep` curve and the `allocation` helpers.
    pub fn answer(&self, i: usize, state: &ModelState) -> Option<ScaleOutRecommendation> {
        let d = &self.decisions[i];
        let c = &self.contexts[d.ctx];
        let (lo, hi) = c.range;
        let xs: Vec<f64> = (lo..=hi).map(f64::from).collect();
        let curve =
            Predictor::with_thread_local(|p| p.predict_sweep(state, &c.props, &xs).to_vec());
        d.on_curve(c, &curve)
    }

    /// Every decision's answer, given each context's model.
    pub fn expected(
        &self,
        state_of: impl Fn(usize) -> Arc<ModelState>,
    ) -> Vec<Option<ScaleOutRecommendation>> {
        (0..self.decisions.len())
            .map(|i| self.answer(i, &state_of(self.decisions[i].ctx)))
            .collect()
    }

    /// Share of decisions whose scale-out truly meets the target on the
    /// ground-truth profile; `None` (target declared unreachable) misses.
    pub fn success_rate(&self, answers: &[Option<ScaleOutRecommendation>]) -> f64 {
        let met = self
            .decisions
            .iter()
            .zip(answers)
            .filter(|(d, a)| {
                a.as_ref().is_some_and(|r| {
                    self.contexts[d.ctx].truth.runtime(f64::from(r.scale_out)) <= d.target_s
                })
            })
            .count();
        met as f64 / self.decisions.len() as f64
    }

    /// `success_rate` of the contexts' models fine-tuned outside the hub.
    pub fn replayed_success_rate(&self, setup: &Setup) -> f64 {
        self.success_rate(&self.replayed(setup).answers)
    }

    /// Mean over contexts of each fine-tuned model's MRE.
    pub fn mean_mre(&self, setup: &Setup) -> f64 {
        let mres = &self.replayed(setup).mres;
        mres.iter().sum::<f64>() / mres.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::testenv::TestEnv;

    #[test]
    fn quality_is_an_exact_function_of_the_seed() {
        let quality = |seed: u64, name: &str| {
            let t = TestEnv::new(seed, name);
            let evaluation = Decisions::evaluation(&t.inputs);
            (
                evaluation.replayed_success_rate(&t.setup).to_bits(),
                t.jobs.mean_mre(&t.setup).to_bits(),
            )
        };
        let a = quality(5, "quality-a");
        assert_eq!(a, quality(5, "quality-b"));
        let c = quality(6, "quality-c");
        assert!(a.0 != c.0 && a.1 != c.1, "{a:?} vs {c:?}");
    }

    fn summary(d: &Decisions) -> Vec<(String, usize, u64, bool)> {
        d.decisions
            .iter()
            .map(|x| {
                let c = &d.contexts[x.ctx];
                (
                    c.label.clone(),
                    c.samples.len(),
                    x.target_s.to_bits(),
                    x.cheapest,
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let (a, b, c) = (
            Inputs::generate(5),
            Inputs::generate(5),
            Inputs::generate(6),
        );
        for make in [Decisions::plan, Decisions::onboard, Decisions::evaluation] {
            assert_eq!(summary(&make(&a)), summary(&make(&b)));
            assert_ne!(summary(&make(&a)), summary(&make(&c)));
        }
        let plan = Decisions::plan(&a);
        assert_eq!(plan.contexts.len(), DEFAULT_FINETUNED_CAPACITY);
        assert!(plan
            .decisions
            .iter()
            .enumerate()
            .all(|(i, d)| d.cheapest == (i % 2 == 1)));
    }
}
