//! `bellamy::serve` — the unified serving front door.
//!
//! Everything below this module already exists as parts: the [`ModelHub`]
//! registry, `Arc`-shared [`ModelState`] snapshots, the allocation-free
//! [`Predictor`]. What callers had to do by hand — build a key, recall,
//! snapshot, keep a per-thread predictor, drive fine-tune strategies — is
//! one object here: a [`Service`] built via [`Service::builder`] hands out
//! cheap, cloneable [`ModelClient`] handles per [`ModelKey`], and every
//! client serves through the same shared machinery.
//!
//! # Caller → predictor lifecycle
//!
//! ```text
//!   caller A ──predict()───────► A's thread-local ──┐   ┌──────────────────┐
//!   caller B ──predict()───────► B's thread-local ──┼─► │ Arc<ModelState>  │
//!   caller C ──predict_sweep()─► C's thread-local ──┘   │ weights + sharded│
//!        ▲                       Predictor arena        │ encoding cache   │
//!        └──────── result, on the caller's own thread ◄─┴──────────────────┘
//! ```
//!
//! Every entry point runs on the calling thread, against the client's
//! shared snapshot, through that thread's warm [`Predictor`] arena:
//! [`ModelClient::predict`] answers one query with
//! [`Predictor::predict_one`]; [`ModelClient::predict_batch`],
//! [`ModelClient::predict_sweep`] and the scale-out recommendations run one
//! batched forward pass over the caller's own queries. A scale-out
//! decision is one caller sweeping one context (paper §IV), so concurrent
//! callers have nothing to coalesce. Callers share only the snapshot's
//! lock-sharded encoding cache and the per-model counters below. Results are bit-identical to a bare
//! [`Predictor`] on the same snapshot (proven under 8 concurrent callers in
//! `crates/core/tests/serve.rs`), and the steady state is allocation-free.
//!
//! # Failure semantics
//!
//! Every failure is typed and counted:
//!
//! | error | cause | caller action | counter |
//! |---|---|---|---|
//! | [`BellamyError::BatchPanicked`] | the forward pass of a [`ModelClient::predict`] panicked on the caller's thread; only that query failed | retry (the thread's next query serves normally) | [`BatcherStats::panics`], a `serve.panic` event |
//! | [`BellamyError::Hub`] | recall, pre-training or fine-tuning failed: unknown key, divergence, no samples, disk I/O, a quarantined checkpoint | see [`crate::hub::HubError`] | [`HubStats`] |
//!
//! The single-query path hits the [`crate::faults::SERVE_PREDICT`]
//! failpoint once per query inside its `catch_unwind`, so tests inject
//! forward-pass panics and artificial latency deterministically; the hub's
//! disk paths carry their own failpoints.
//!
//! Errors from every layer surface as one [`BellamyError`].

use crate::allocation::{cheapest_scale_out, min_scale_out_meeting, ScaleOutRecommendation};
use crate::config::{FinetuneConfig, PretrainConfig};
use crate::error::BellamyError;
use crate::faults;
use crate::features::{ContextProperties, TrainingSample};
use crate::finetune::ReuseStrategy;
use crate::hub::{HubStats, ModelHub, ModelKey};
use crate::model::Bellamy;
use crate::predictor::{PredictQuery, Predictor};
use crate::state::ModelState;
use bellamy_linalg::kernels::{self, RequestSource};
use bellamy_telemetry::{
    self as telemetry, event_kind, Counter, Histogram, Sampler, TelemetrySnapshot,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Single-query serving counters of one model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatcherStats {
    /// Queries answered by [`ModelClient::predict`]. A query whose forward
    /// pass panicked is counted in `panics` instead.
    pub queries: u64,
    /// Forward passes run for those queries. Each query runs its own, so
    /// this always reads `queries`.
    pub batches: u64,
    /// Always 0: no query is shed. Kept only because the benchmark's
    /// `serve` workload (`perfbench/src/workloads/serve.rs`) still reads it.
    pub shed: u64,
    /// Always 0: queries carry no deadline. Kept only because
    /// `perfbench/src/workloads/serve.rs` still reads it.
    pub deadline_expired: u64,
    /// Always 0: every caller serves its own query. Kept only because
    /// `perfbench/src/workloads/serve.rs` still reads it.
    pub assist_flushes: u64,
    /// Forward-pass panics caught by [`ModelClient::predict`]; each failed
    /// exactly one query with [`BellamyError::BatchPanicked`].
    pub panics: u64,
    /// `BELLAMY_KERNEL` request for this process (`"auto"` or `"scalar"`;
    /// see `bellamy_linalg::kernels::resolution`). Empty only on
    /// [`BatcherStats::default`].
    pub kernel_requested: &'static str,
    /// Kernel backend the request resolved to (`"avx2"` or `"scalar"`).
    /// Every backend is bit-identical, so this changes throughput only.
    pub kernel_resolved: &'static str,
}

impl BatcherStats {
    /// Stamps the process-wide kernel resolution onto a stats snapshot.
    fn with_kernel_resolution(mut self) -> Self {
        let res = kernels::resolution();
        self.kernel_requested = res.requested_name();
        self.kernel_resolved = res.resolved_name();
        self
    }
}

/// Every `N`-th query pays the latency clock pair.
const LATENCY_SAMPLE_PERIOD: u64 = 8;

/// The single source of truth for one model's serving counts, built on the
/// lock-free `bellamy_telemetry` primitives. [`BatcherStats`] and
/// [`Service::telemetry`] are both snapshot reads of these handles, so the
/// two views cannot drift.
struct ServeMetrics {
    queries: Counter,
    panics: Counter,
    /// Gates the latency `Instant` pair to 1 in [`LATENCY_SAMPLE_PERIOD`]
    /// queries: a clock read costs more than the entire rest of the record
    /// path (~75 ns on VM hosts without a vDSO fast path), so timing every
    /// query would dominate the instrumentation budget on µs-scale
    /// predictions. Sampling keeps the histogram's quantiles representative
    /// of a steady workload at ~1/8th the cost.
    latency_sampler: Sampler,
    /// Sampled predict latency in nanoseconds. Recorded only while
    /// `bellamy_telemetry::timing_enabled()` (the default); the record is
    /// one `fetch_add`, keeping the query path allocation-free.
    latency: Histogram,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self {
            queries: Counter::new(),
            panics: Counter::new(),
            latency_sampler: Sampler::every(LATENCY_SAMPLE_PERIOD),
            latency: Histogram::new(),
        }
    }
}

/// One served model's entry in the service registry: the snapshot it
/// serves (held so the `Arc` address keying the entry stays unique) and
/// its counters.
struct ServedModel {
    state: Arc<ModelState>,
    metrics: ServeMetrics,
}

impl ServedModel {
    /// Human-readable identity of the served model for events and metric
    /// labels: the hub registry key, or `<unkeyed>` for ad hoc snapshots.
    fn model_label(&self) -> &str {
        self.state.registry_key().unwrap_or("<unkeyed>")
    }

    /// Answers one query on this thread's predictor. A panic in the forward
    /// pass fails only this query: it is counted, logged as a `serve.panic`
    /// event, and returned as [`BellamyError::BatchPanicked`]. The thread's
    /// predictor stays usable, because its `RefCell` borrow is released on
    /// unwind and every call rebuilds its batch from scratch.
    fn predict(&self, scale_out: f64, props: &ContextProperties) -> Result<f64, BellamyError> {
        let m = &self.metrics;
        // Supplemental latency timing: one `Instant` pair plus one
        // histogram `fetch_add`, paid by 1 query in 8 and gated so the
        // bench harness can measure its cost.
        let started = (telemetry::timing_enabled() && m.latency_sampler.tick()).then(Instant::now);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Predictor::with_thread_local(|p| {
                let _ = faults::SERVE_PREDICT.check();
                p.predict_one(&self.state, scale_out, props)
            })
        }));
        match outcome {
            Ok(pred) => {
                m.queries.inc();
                if let Some(t0) = started {
                    m.latency.record_duration(t0.elapsed());
                }
                Ok(pred)
            }
            Err(payload) => {
                m.panics.inc();
                telemetry::events().record(
                    event_kind::LOOP_PANIC,
                    format!(
                        "model `{}`: forward pass panicked ({}); the query failed",
                        self.model_label(),
                        panic_message(payload.as_ref())
                    ),
                );
                Err(BellamyError::BatchPanicked)
            }
        }
    }

    fn stats(&self) -> BatcherStats {
        let m = &self.metrics;
        let queries = m.queries.get();
        BatcherStats {
            queries,
            batches: queries,
            panics: m.panics.get(),
            ..BatcherStats::default()
        }
        .with_kernel_resolution()
    }

    /// Contributes this model's metrics to a telemetry snapshot, labelled
    /// by the served model's registry key.
    fn collect_telemetry(&self, snap: &mut TelemetrySnapshot) {
        let model = || vec![("model", self.model_label().to_string())];
        let m = &self.metrics;
        snap.push_counter(
            "bellamy_serve_queries_total",
            model(),
            "queries",
            "Single queries answered by ModelClient::predict.",
            m.queries.get(),
        );
        snap.push_counter(
            "bellamy_serve_panics_total",
            model(),
            "panics",
            "Forward-pass panics caught by ModelClient::predict.",
            m.panics.get(),
        );
        snap.push_histogram(
            "bellamy_serve_submit_latency_seconds",
            model(),
            "seconds",
            "ModelClient::predict latency, sampled 1 query in 8.",
            m.latency.snapshot(),
        );
    }
}

/// The message of a caught panic, when it carried one.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message")
}

/// The service's fine-tuning defaults, applied by
/// [`Service::finetuned_client`].
#[derive(Debug, Clone)]
pub struct FinetunePolicy {
    /// Fine-tuning budget and optimizer settings.
    pub config: FinetuneConfig,
    /// Which components to freeze/reset (paper §IV-C2).
    pub strategy: ReuseStrategy,
    /// Seed for the fine-tuning run.
    pub seed: u64,
}

impl Default for FinetunePolicy {
    fn default() -> Self {
        Self {
            config: FinetuneConfig::default(),
            strategy: ReuseStrategy::PartialUnfreeze,
            seed: 0,
        }
    }
}

struct ServiceInner {
    hub: Arc<ModelHub>,
    finetune: FinetunePolicy,
    /// One entry per served model, keyed by snapshot identity (`Arc`
    /// address — stable because each entry holds its state alive). Created
    /// lazily on a client's first single-query `predict`; clients that only
    /// run batched calls never take this lock.
    served: Mutex<HashMap<usize, Arc<ServedModel>>>,
}

impl ServiceInner {
    fn served_for(&self, state: &Arc<ModelState>) -> Arc<ServedModel> {
        let id = Arc::as_ptr(state) as usize;
        let mut served = self.served.lock();
        // Reap entries no client references anymore (strong count 1 =
        // registry only; clients cache the Arc in their OnceLock, and the
        // map lock serializes every clone out of the registry, so the
        // check cannot race a new borrower). Without this, a long-running
        // service creating clients per context would pin one ModelState
        // per served snapshot forever.
        served.retain(|&key, entry| key == id || Arc::strong_count(entry) > 1);
        Arc::clone(served.entry(id).or_insert_with(|| {
            Arc::new(ServedModel {
                state: Arc::clone(state),
                metrics: ServeMetrics::default(),
            })
        }))
    }
}

/// Builder for [`Service`]; see [`Service::builder`].
#[derive(Default)]
pub struct ServiceBuilder {
    hub: Option<Arc<ModelHub>>,
    hub_dir: Option<PathBuf>,
    finetune: Option<FinetunePolicy>,
}

impl ServiceBuilder {
    /// Serves from an existing hub (shared with other services or direct
    /// hub users). Overrides [`ServiceBuilder::hub_dir`].
    pub fn hub(mut self, hub: Arc<ModelHub>) -> Self {
        self.hub = Some(hub);
        self
    }

    /// Serves from a disk-backed hub at `dir` (created if absent); two
    /// services pointed at the same directory share the pretrained
    /// registry across processes and restarts.
    pub fn hub_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.hub_dir = Some(dir.into());
        self
    }

    /// Sets the fine-tuning defaults used by [`Service::finetuned_client`].
    pub fn finetune_policy(mut self, policy: FinetunePolicy) -> Self {
        self.finetune = Some(policy);
        self
    }

    /// Builds the service. Fails only when a [`ServiceBuilder::hub_dir`]
    /// cannot be created.
    pub fn build(self) -> Result<Service, BellamyError> {
        let hub = match (self.hub, self.hub_dir) {
            (Some(hub), _) => hub,
            (None, Some(dir)) => Arc::new(ModelHub::at(dir)?),
            (None, None) => Arc::new(ModelHub::in_memory()),
        };
        Ok(Service {
            inner: Arc::new(ServiceInner {
                hub,
                finetune: self.finetune.unwrap_or_default(),
                served: Mutex::new(HashMap::new()),
            }),
        })
    }
}

/// The serving front door: one shared hub, per-model serving counters,
/// cheap [`ModelClient`] handles for callers. Cloning a `Service` clones a
/// handle to the same service. See the module docs.
#[derive(Clone)]
pub struct Service {
    inner: Arc<ServiceInner>,
}

impl Service {
    /// Starts building a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::default()
    }

    /// A service over a fresh in-memory hub with the default fine-tuning
    /// policy.
    pub fn in_memory() -> Self {
        Self::builder()
            .build()
            .expect("in-memory build cannot fail")
    }

    /// The underlying model hub (for direct registry operations).
    pub fn hub(&self) -> &ModelHub {
        &self.inner.hub
    }

    /// Hub operation counters.
    pub fn stats(&self) -> HubStats {
        self.inner.hub.stats()
    }

    /// A typed point-in-time snapshot of every metric this service can see:
    /// per-model serve metrics (query and panic counts, sampled latency),
    /// hub recall metrics (disk-recall latency, retries, quarantines),
    /// process-wide predictor and train metrics, the kernel resolution, and
    /// the recent structured events. Render it with
    /// [`TelemetrySnapshot::to_json`] or [`TelemetrySnapshot::to_prometheus`].
    ///
    /// Reading is lock-free on the hot-path atomics (the per-service
    /// registry lock is held only to walk the served models) and safe to
    /// call from a scrape loop at any frequency.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new();
        let res = kernels::resolution();
        let source = match res.source {
            RequestSource::Default => "default",
            RequestSource::Env => "env",
        };
        snap.push_gauge(
            "bellamy_kernel_info",
            vec![
                ("requested", res.requested_name().to_string()),
                ("resolved", res.resolved_name().to_string()),
                ("source", source.to_string()),
            ],
            "",
            "Kernel dispatch resolution for this process (constant 1).",
            1,
        );
        self.inner.hub.collect_telemetry(&mut snap);
        for served in self.inner.served.lock().values() {
            served.collect_telemetry(&mut snap);
        }
        let g = telemetry::global();
        snap.push_histogram(
            "bellamy_predict_batch_rows",
            Vec::new(),
            "rows",
            "Rows per forward pass (process-wide, single and batched paths).",
            g.predict_batch_rows.snapshot(),
        );
        snap.push_counter(
            "bellamy_predict_queries_total",
            Vec::new(),
            "rows",
            "Total rows pushed through the forward pass (process-wide).",
            g.predict_queries.get(),
        );
        snap.push_counter(
            "bellamy_train_steps_total",
            Vec::new(),
            "steps",
            "Total optimizer steps taken (process-wide).",
            g.train_steps.get(),
        );
        snap.push_histogram(
            "bellamy_train_step_latency_seconds",
            Vec::new(),
            "seconds",
            "Per-step optimizer wall time (process-wide).",
            g.train_step_nanos.snapshot(),
        );
        snap.set_events(telemetry::events().recent());
        snap
    }

    /// A client for the model registered under `key` (memory, then disk).
    /// Never trains.
    pub fn client(&self, key: &ModelKey) -> Result<ModelClient, BellamyError> {
        Ok(self.client_for_state(self.inner.hub.recall(key)?))
    }

    /// A client for `key`, pre-training on `samples()` when the hub has
    /// never seen the key (see [`ModelHub::recall_or_pretrain`]).
    pub fn client_or_pretrain(
        &self,
        key: &ModelKey,
        cfg: &PretrainConfig,
        seed: u64,
        samples: impl FnOnce() -> Vec<TrainingSample>,
    ) -> Result<ModelClient, BellamyError> {
        let state = self.inner.hub.recall_or_pretrain(key, cfg, seed, samples)?;
        Ok(self.client_for_state(state))
    }

    /// Publishes an externally trained model under `key` and returns a
    /// client serving it.
    pub fn publish(&self, key: &ModelKey, model: &Bellamy) -> Result<ModelClient, BellamyError> {
        Ok(self.client_for_state(self.inner.hub.publish(key, model)?))
    }

    /// A client for the fine-tuned descendant of `key` in `context`, using
    /// the service's [`FinetunePolicy`] (see
    /// [`ServiceBuilder::finetune_policy`]). Descendants are cached in the
    /// hub's LRU, so identical requests share one fine-tuning run.
    pub fn finetuned_client(
        &self,
        key: &ModelKey,
        context: &str,
        samples: &[TrainingSample],
    ) -> Result<ModelClient, BellamyError> {
        let policy = self.inner.finetune.clone();
        self.finetuned_client_with(
            key,
            context,
            samples,
            &policy.config,
            policy.strategy,
            policy.seed,
        )
    }

    /// [`Service::finetuned_client`] with explicit fine-tuning settings
    /// overriding the service policy.
    pub fn finetuned_client_with(
        &self,
        key: &ModelKey,
        context: &str,
        samples: &[TrainingSample],
        cfg: &FinetuneConfig,
        strategy: ReuseStrategy,
        seed: u64,
    ) -> Result<ModelClient, BellamyError> {
        let state = self
            .inner
            .hub
            .fine_tuned_for(key, context, samples, cfg, strategy, seed)?;
        Ok(self.client_for_state(state))
    }

    /// A client serving an arbitrary snapshot — models that live outside
    /// the hub (locally trained baselines, ad hoc states). Clients for the
    /// same `Arc` share one set of serving counters.
    pub fn client_for_state(&self, state: Arc<ModelState>) -> ModelClient {
        ModelClient {
            state,
            service: Arc::clone(&self.inner),
            served: OnceLock::new(),
        }
    }
}

/// A cheap, cloneable handle serving one model through the service. Every
/// call runs on the calling thread's predictor arena against the shared
/// snapshot. Create via [`Service::client`] and friends; clone freely
/// (clones share the same underlying state and counters).
pub struct ModelClient {
    state: Arc<ModelState>,
    service: Arc<ServiceInner>,
    /// This model's registry entry, resolved on the first single-query
    /// `predict` and cached here so later queries skip the registry lock.
    served: OnceLock<Arc<ServedModel>>,
}

impl Clone for ModelClient {
    fn clone(&self) -> Self {
        let served = OnceLock::new();
        if let Some(s) = self.served.get() {
            let _ = served.set(Arc::clone(s));
        }
        Self {
            state: Arc::clone(&self.state),
            service: Arc::clone(&self.service),
            served,
        }
    }
}

impl std::fmt::Debug for ModelClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelClient")
            .field("registry_key", &self.state.registry_key())
            .field("params_fingerprint", &self.state.params_fingerprint())
            .finish_non_exhaustive()
    }
}

impl ModelClient {
    /// The served snapshot.
    pub fn state(&self) -> &Arc<ModelState> {
        &self.state
    }

    /// The hub registry key of the served model, if it has one.
    pub fn registry_key(&self) -> Option<&str> {
        self.state.registry_key()
    }

    fn served(&self) -> &Arc<ServedModel> {
        self.served
            .get_or_init(|| self.service.served_for(&self.state))
    }

    /// Predicts the runtime (seconds) for one scale-out in a described
    /// context on this thread's predictor, bit-identical to a direct
    /// [`Predictor::predict_one`] call. A panicking forward pass fails only
    /// this query, with [`BellamyError::BatchPanicked`]. Allocation-free at
    /// steady state.
    pub fn predict(&self, scale_out: f64, props: &ContextProperties) -> Result<f64, BellamyError> {
        self.served().predict(scale_out, props)
    }

    /// Predicted runtimes for a caller-assembled batch, in query order, in
    /// one forward pass on this thread's warm predictor arena.
    pub fn predict_batch(&self, queries: &[PredictQuery<'_>]) -> Vec<f64> {
        Predictor::with_thread_local(|p| p.predict_batch(&self.state, queries).to_vec())
    }

    /// Predicted runtimes for one context swept over many scale-outs (the
    /// §IV allocation-search shape), in one forward pass.
    pub fn predict_sweep(&self, props: &ContextProperties, scale_outs: &[f64]) -> Vec<f64> {
        Predictor::with_thread_local(|p| p.predict_sweep(&self.state, props, scale_outs).to_vec())
    }

    /// The smallest scale-out in `[lo, hi]` predicted to meet `target_s`,
    /// or `None` when no candidate does. The candidate curve is evaluated
    /// in one batched sweep.
    pub fn recommend_scale_out(
        &self,
        props: &ContextProperties,
        target_s: f64,
        lo: u32,
        hi: u32,
    ) -> Option<ScaleOutRecommendation> {
        let xs: Vec<f64> = (lo..=hi).map(f64::from).collect();
        let curve = self.predict_sweep(props, &xs);
        min_scale_out_meeting(|x| curve[(x - lo) as usize], target_s, lo, hi)
    }

    /// The cheapest scale-out in `[lo, hi]` under a per-machine-hour price,
    /// optionally subject to a runtime deadline. One batched sweep.
    pub fn cheapest_scale_out(
        &self,
        props: &ContextProperties,
        price_per_machine_hour: f64,
        target_s: Option<f64>,
        lo: u32,
        hi: u32,
    ) -> Option<ScaleOutRecommendation> {
        let xs: Vec<f64> = (lo..=hi).map(f64::from).collect();
        let curve = self.predict_sweep(props, &xs);
        cheapest_scale_out(
            |x| curve[(x - lo) as usize],
            price_per_machine_hour,
            target_s,
            lo,
            hi,
        )
    }

    /// Single-query counters for this model (zeros until the first
    /// [`ModelClient::predict`] through *any* client of the state).
    pub fn batcher_stats(&self) -> BatcherStats {
        if let Some(s) = self.served.get() {
            return s.stats();
        }
        // This handle never predicted, but a clone may have: consult the
        // service registry without creating an entry.
        let id = Arc::as_ptr(&self.state) as usize;
        match self.service.served.lock().get(&id) {
            Some(s) => s.stats(),
            None => BatcherStats::default().with_kernel_resolution(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BellamyConfig;
    use bellamy_encoding::PropertyValue;

    fn tiny_state() -> Arc<ModelState> {
        let samples: Vec<TrainingSample> = (0..6)
            .map(|i| TrainingSample {
                scale_out: 2.0 + i as f64,
                runtime_s: 100.0 - 5.0 * i as f64,
                props: ContextProperties {
                    essential: vec![PropertyValue::Number(1024 + i as u64)],
                    optional: vec![],
                },
            })
            .collect();
        let mut model = Bellamy::new(BellamyConfig::default(), 1);
        model.fit_normalization(&samples);
        model.snapshot().expect("fitted")
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let service = Service::builder()
            .finetune_policy(FinetunePolicy {
                seed: 42,
                ..FinetunePolicy::default()
            })
            .build()
            .expect("in-memory service");
        assert_eq!(service.inner.finetune.seed, 42);
        assert_eq!(service.stats(), HubStats::default());
    }

    #[test]
    fn client_of_unknown_key_errors() {
        let service = Service::in_memory();
        let key = ModelKey::new("sgd", "runtime", &BellamyConfig::default());
        assert!(matches!(
            service.client(&key),
            Err(BellamyError::Hub(crate::hub::HubError::UnknownModel(_)))
        ));
    }

    #[test]
    fn clients_for_one_state_share_one_registry_entry() {
        let service = Service::in_memory();
        let state = tiny_state();
        let props = ContextProperties {
            essential: vec![PropertyValue::Number(1024)],
            optional: vec![],
        };
        let a = service.client_for_state(Arc::clone(&state));
        let b = a.clone();
        let c = service.client_for_state(state);
        // Batched calls never touch the registry.
        a.predict_sweep(&props, &[2.0, 4.0]);
        assert!(service.inner.served.lock().is_empty());
        let direct = a.predict(4.0, &props).unwrap();
        let clone_pred = b.predict(4.0, &props).unwrap();
        let fresh = c.predict(4.0, &props).unwrap();
        assert_eq!(direct.to_bits(), clone_pred.to_bits());
        assert_eq!(direct.to_bits(), fresh.to_bits());
        // All three handles count into one entry.
        assert!(Arc::ptr_eq(a.served(), b.served()));
        assert!(Arc::ptr_eq(a.served(), c.served()));
        let stats = a.batcher_stats();
        assert_eq!((stats.queries, stats.batches, stats.panics), (3, 3, 0));
        assert_eq!(service.inner.served.lock().len(), 1);
    }

    #[test]
    fn client_less_entries_are_reaped_when_new_ones_are_created() {
        let service = Service::in_memory();
        let props = ContextProperties {
            essential: vec![PropertyValue::Number(1024)],
            optional: vec![],
        };
        {
            let first = service.client_for_state(tiny_state());
            first.predict(4.0, &props).unwrap();
            assert_eq!(service.inner.served.lock().len(), 1);
        } // `first` (and its cached entry Arc) dropped: registry-only now.
        let second = service.client_for_state(tiny_state());
        second.predict(4.0, &props).unwrap();
        assert_eq!(
            service.inner.served.lock().len(),
            1,
            "creating a new entry must reap client-less ones"
        );
    }

    #[test]
    fn recommendations_come_from_the_swept_curve() {
        let service = Service::in_memory();
        let client = service.client_for_state(tiny_state());
        let props = ContextProperties {
            essential: vec![PropertyValue::Number(2048)],
            optional: vec![],
        };
        let xs: Vec<f64> = (2..=12).map(f64::from).collect();
        let curve = client.predict_sweep(&props, &xs);
        // A target below the whole curve is unreachable; the max is always
        // reachable.
        let max = curve.iter().cloned().fold(f64::MIN, f64::max);
        let min = curve.iter().cloned().fold(f64::MAX, f64::min);
        assert!(client
            .recommend_scale_out(&props, min - 1.0, 2, 12)
            .is_none());
        let rec = client
            .recommend_scale_out(&props, max, 2, 12)
            .expect("max is reachable");
        assert_eq!(
            rec.predicted_runtime_s.to_bits(),
            curve[(rec.scale_out - 2) as usize].to_bits(),
            "recommendation must quote the swept curve"
        );
        let cheapest = client
            .cheapest_scale_out(&props, 1.0, None, 2, 12)
            .expect("unconstrained cheapest exists");
        // Untrained weights may predict negative runtimes; the cost just
        // has to be the curve's minimum, finite, and curve-derived.
        assert!(cheapest.predicted_cost.is_finite());
        assert_eq!(
            cheapest.predicted_runtime_s.to_bits(),
            curve[(cheapest.scale_out - 2) as usize].to_bits()
        );
    }
}
