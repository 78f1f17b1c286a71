//! The model hub: cross-context model reuse as a service.
//!
//! The paper's workflow (§III-A) is *recall → fine-tune → serve*: one
//! general model per (algorithm, objective) is pre-trained on historical
//! executions, persisted, recalled when a job of that algorithm shows up in
//! a new context, fine-tuned on the handful of observations available
//! there, and then queried for every candidate scale-out. The
//! collaborative-repository line of follow-up work shares those pretrained
//! checkpoints between many users. [`ModelHub`] is that layer:
//!
//! ```text
//!   ModelKey (algorithm ⊕ objective ⊕ config fingerprint)
//!        │ recall_or_pretrain(key, cfg, seed, samples)
//!        ▼
//!   in-memory registry ──miss──► on-disk checkpoints ──miss──► pretrain
//!   (Arc<ModelState>)            (<key-id>.blmy)              (once, then
//!        │                                                     persisted)
//!        │ fine_tuned_for(key, context, samples, ..)
//!        ▼
//!   fine-tuned descendant LRU (parent-checkpoint provenance)
//!        │
//!        ▼ Arc<ModelState> — lock-free concurrent predict
//! ```
//!
//! # Lifecycle
//!
//! 1. **Recall or pretrain.** [`ModelHub::recall_or_pretrain`] resolves a
//!    [`ModelKey`] against the in-memory registry, then the on-disk
//!    checkpoint directory, and only pre-trains (then persists) when both
//!    miss. A second hub instance pointed at the same directory — e.g.
//!    another process after a restart — recalls from disk without
//!    re-training, bit-identically.
//! 2. **Fine-tune.** [`ModelHub::fine_tuned_for`] derives a trainer handle
//!    from the recalled snapshot ([`Bellamy::from_state`]), fine-tunes it on
//!    the context's samples, and publishes the result into a bounded LRU of
//!    descendants keyed by (parent, context, samples, strategy, seed). Each
//!    descendant records its parent checkpoint key
//!    ([`ModelState::parent_key`]) — the provenance chain of the reuse.
//! 3. **Serve.** Every recall returns an `Arc<`[`ModelState`]`>`; prediction
//!    through it never touches a hub lock — any number of threads predict
//!    concurrently through their own [`crate::Predictor`] while the hub
//!    keeps training new descendants.
//!
//! Registry lookups take one mutex, held only for the map access. The
//! whole miss path — disk probe and pre-training alike — runs under a
//! *per-key* guard: concurrent requests for the same key serialize on that
//! key alone (one checkpoint load, one pre-training), while misses for
//! different keys probe the disk and pre-train fully in parallel — the
//! shape the evaluation harness fans out. Prediction traffic never touches
//! a hub lock at all; it runs on already-shared snapshots.

use crate::config::{BellamyConfig, FinetuneConfig, PretrainConfig};
use crate::faults::{self, Injected};
use crate::features::TrainingSample;
use crate::finetune::{fine_tune, ReuseStrategy};
use crate::model::Bellamy;
use crate::state::{ModelState, StateFromCheckpointError};
use crate::train::pretrain;
use bellamy_nn::{Checkpoint, CheckpointError};
use bellamy_telemetry::{self as telemetry, event_kind, Counter, Histogram, TelemetrySnapshot};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Content-addressed identity of a pretrained model: the algorithm it was
/// trained for, the training objective, and a fingerprint of the full
/// encoder/architecture configuration. Two keys collide exactly when a
/// checkpoint trained under one is servable under the other.
#[derive(Debug, Clone)]
pub struct ModelKey {
    algorithm: String,
    objective: String,
    config: BellamyConfig,
    fingerprint: u64,
    /// The sanitized registry id, cached at construction: hot hub paths
    /// (every recall, every batcher lookup) read it per call, and building
    /// it fresh allocated a `String` each time.
    id: String,
}

impl ModelKey {
    /// Builds a key for `(algorithm, objective)` under `config`.
    pub fn new(
        algorithm: impl Into<String>,
        objective: impl Into<String>,
        config: &BellamyConfig,
    ) -> Self {
        let algorithm = algorithm.into();
        let objective = objective.into();
        let fingerprint = identity_fingerprint(&algorithm, &objective, config);
        let id = format!(
            "{}--{}--{fingerprint:016x}",
            sanitize(&algorithm),
            sanitize(&objective),
        );
        Self {
            algorithm,
            objective,
            config: config.clone(),
            fingerprint,
            id,
        }
    }

    /// The algorithm name.
    pub fn algorithm(&self) -> &str {
        &self.algorithm
    }

    /// The training objective label.
    pub fn objective(&self) -> &str {
        &self.objective
    }

    /// The architecture/encoder configuration the key addresses.
    pub fn config(&self) -> &BellamyConfig {
        &self.config
    }

    /// The stable registry id (also the checkpoint file stem): sanitized
    /// algorithm and objective plus the identity fingerprint in hex. The
    /// fingerprint covers the *raw* algorithm/objective strings, so two
    /// keys that differ only in characters the sanitizer flattens (e.g.
    /// `"K Means"` vs `"k-means"`) still get distinct ids — the id aliases
    /// exactly when the keys are equal. Cached at construction; this
    /// accessor never allocates.
    pub fn id(&self) -> &str {
        &self.id
    }
}

impl PartialEq for ModelKey {
    fn eq(&self, other: &Self) -> bool {
        self.algorithm == other.algorithm
            && self.objective == other.objective
            && self.fingerprint == other.fingerprint
    }
}

impl Eq for ModelKey {}

impl std::hash::Hash for ModelKey {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.algorithm.hash(h);
        self.objective.hash(h);
        self.fingerprint.hash(h);
    }
}

impl std::fmt::Display for ModelKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id())
    }
}

/// FNV-1a over the full key identity: the raw algorithm and objective
/// strings (length-prefixed, so concatenation ambiguities cannot collide)
/// plus every configuration field that changes what a checkpoint *is*
/// (shapes, encoder width, property counts, target handling, init).
fn identity_fingerprint(algorithm: &str, objective: &str, c: &BellamyConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for s in [algorithm, objective] {
        mix(&(s.len() as u64).to_le_bytes());
        mix(s.as_bytes());
    }
    for dim in [
        c.property_dim,
        c.code_dim,
        c.hidden_dim,
        c.scale_out_hidden_dim,
        c.scale_out_dim,
        c.essential_props,
        c.optional_props,
    ] {
        mix(&(dim as u64).to_le_bytes());
    }
    mix(&[c.scale_targets as u8]);
    mix(&c.huber_delta.to_bits().to_le_bytes());
    mix(format!("{:?}", c.init).as_bytes());
    h
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Errors surfaced by hub operations.
#[derive(Debug)]
pub enum HubError {
    /// The key resolves neither in memory nor on disk, and the operation
    /// cannot train a replacement.
    UnknownModel(String),
    /// A checkpoint was found but describes an unfitted model (no
    /// normalization state), so it cannot serve.
    Unfitted(String),
    /// Pre-training or fine-tuning for this key diverged to non-finite
    /// parameters; nothing was registered.
    Diverged(String),
    /// Training was requested on no samples: pre-training needs a
    /// non-empty corpus, fine-tuning at least one observed run of the
    /// context. Nothing was trained or registered.
    NoSamples(String),
    /// Reading or writing the on-disk registry failed.
    Checkpoint(CheckpointError),
    /// The on-disk checkpoint for this key was corrupt and has been
    /// quarantined (renamed to `<id>.blmy.corrupt`). This error surfaces
    /// exactly once per bad file: subsequent recalls see the key as absent
    /// — `recall` reports [`HubError::UnknownModel`] and
    /// [`ModelHub::recall_or_pretrain`] trains a replacement instead of
    /// re-failing on the poison file forever.
    Corrupt {
        /// The key whose checkpoint was quarantined.
        id: String,
        /// Why decoding failed.
        source: CheckpointError,
    },
}

impl std::fmt::Display for HubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HubError::UnknownModel(id) => write!(f, "no model registered under key {id}"),
            HubError::Unfitted(id) => write!(f, "checkpoint {id} holds an unfitted model"),
            HubError::Diverged(id) => write!(f, "training for key {id} diverged"),
            HubError::NoSamples(id) => write!(f, "no training samples for key {id}"),
            HubError::Checkpoint(e) => write!(f, "registry checkpoint error: {e}"),
            HubError::Corrupt { id, source } => write!(
                f,
                "checkpoint for key {id} was corrupt ({source}) and has been quarantined"
            ),
        }
    }
}

impl std::error::Error for HubError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HubError::Checkpoint(e) | HubError::Corrupt { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for HubError {
    fn from(e: CheckpointError) -> Self {
        HubError::Checkpoint(e)
    }
}

/// Operation counters for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Recalls served from the in-memory registry.
    pub memory_recalls: u64,
    /// Recalls served from the on-disk checkpoint registry.
    pub disk_recalls: u64,
    /// Models pre-trained because both registries missed.
    pub pretrains: u64,
    /// Fine-tuned descendants served from the LRU.
    pub finetune_hits: u64,
    /// Fine-tuning runs performed.
    pub finetunes: u64,
    /// Transient checkpoint-read failures retried (each retry counts one).
    pub disk_retries: u64,
    /// Corrupt checkpoints renamed to `*.blmy.corrupt` so they stop
    /// failing every future recall of their key.
    pub quarantined: u64,
}

/// How disk recalls materialize a checkpoint's tensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecallMode {
    /// Read the whole file and deserialize into freshly allocated, owned
    /// tensors (the pre-v2 behavior; works for any checkpoint version).
    Deserialize,
    /// Memory-map the file and serve the weights as read-only views into
    /// the OS page cache — recall is a header parse plus page faults, many
    /// processes mapping one file share a single physical copy, and hub
    /// RSS stays bounded by page-cache eviction instead of growing with
    /// every model held. v1 files transparently fall back to deserialize.
    /// Predictions are bit-identical to [`RecallMode::Deserialize`]
    /// (`tests/mmap_store.rs`).
    #[default]
    Mmap,
}

impl RecallMode {
    /// Stable label for benchmarks and logs.
    pub fn as_str(self) -> &'static str {
        match self {
            RecallMode::Deserialize => "deserialize",
            RecallMode::Mmap => "mmap",
        }
    }
}

/// One fine-tuned descendant in the LRU.
struct FineTunedEntry {
    /// Cache identity: parent key id, caller's context label, and a
    /// fingerprint of (samples, strategy, seed, fine-tune budget).
    parent_id: String,
    context: String,
    fingerprint: u64,
    state: Arc<ModelState>,
    last_used: u64,
}

struct FineTunedLru {
    entries: Vec<FineTunedEntry>,
    tick: u64,
}

/// Default capacity of the fine-tuned-descendant LRU.
pub const DEFAULT_FINETUNED_CAPACITY: usize = 32;

/// A concurrent registry of pretrained models and their fine-tuned
/// descendants. See the module docs for the recall → fine-tune → serve
/// lifecycle.
pub struct ModelHub {
    dir: Option<PathBuf>,
    finetuned_capacity: usize,
    recall_mode: RecallMode,
    pretrained: Mutex<HashMap<String, Arc<ModelState>>>,
    /// Per-key miss guards: after a memory miss, the disk probe *and* any
    /// pre-training run while holding only that key's mutex, so same-key
    /// racers coalesce on one checkpoint load / one training run while
    /// distinct keys resolve their misses fully in parallel. The registry
    /// mutex above is only ever held for map lookups and inserts.
    misses: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    finetuned: Mutex<FineTunedLru>,
    /// Operation counters and recall-latency distributions (see
    /// [`HubMetrics`]). [`ModelHub::stats`] and `Service::telemetry()` are
    /// both snapshot views of these same atomics.
    metrics: HubMetrics,
}

/// The single source of truth for the hub's operation counts, built on the
/// lock-free `bellamy_telemetry` primitives so [`HubStats`] and the
/// telemetry exporters cannot drift apart.
#[derive(Default)]
struct HubMetrics {
    memory_recalls: Counter,
    disk_recalls: Counter,
    pretrains: Counter,
    finetune_hits: Counter,
    finetunes: Counter,
    disk_retries: Counter,
    quarantined: Counter,
    /// Wall time of successful disk recalls (load + decode + register) in
    /// nanoseconds, one histogram per [`RecallMode`].
    recall_latency_deserialize: Histogram,
    recall_latency_mmap: Histogram,
}

impl HubMetrics {
    fn recall_latency(&self, mode: RecallMode) -> &Histogram {
        match mode {
            RecallMode::Deserialize => &self.recall_latency_deserialize,
            RecallMode::Mmap => &self.recall_latency_mmap,
        }
    }
}

/// Attempts a checkpoint read makes before giving up on transient I/O
/// errors (the first attempt plus `DISK_READ_ATTEMPTS - 1` retries).
const DISK_READ_ATTEMPTS: usize = 3;

/// Base backoff between checkpoint-read retries; attempt `n` sleeps
/// `n * DISK_RETRY_BACKOFF` (1 ms, then 2 ms) — long enough to ride out a
/// transient hiccup, short enough that a genuinely dead disk fails a
/// recall in single-digit milliseconds.
const DISK_RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// Outcome of one checkpoint load attempt, classified for the retry loop.
enum AttemptError {
    /// The file disappeared mid-recall (concurrent quarantine/cleanup):
    /// permanent for this recall, never retried.
    Vanished(String),
    /// An I/O failure a later attempt might not see: retried with backoff.
    Transient(String),
    /// The bytes decoded as garbage: surfaced for corruption handling,
    /// never retried.
    Decode(CheckpointError),
}

/// What probing the on-disk registry for one key produced.
enum DiskProbe {
    /// Loaded and registered: the recall is served.
    Loaded(Arc<ModelState>),
    /// The hub has no directory or no checkpoint file for the key.
    Absent,
    /// The checkpoint decoded as garbage and was quarantined; the key is
    /// now effectively absent on disk. `recall` surfaces this once as
    /// [`HubError::Corrupt`]; `recall_or_pretrain` trains a replacement.
    Quarantined(CheckpointError),
}

impl ModelHub {
    /// A process-local hub with no persistence.
    pub fn in_memory() -> Self {
        Self {
            dir: None,
            finetuned_capacity: DEFAULT_FINETUNED_CAPACITY,
            recall_mode: RecallMode::default(),
            pretrained: Mutex::new(HashMap::new()),
            misses: Mutex::new(HashMap::new()),
            finetuned: Mutex::new(FineTunedLru {
                entries: Vec::new(),
                tick: 0,
            }),
            metrics: HubMetrics::default(),
        }
    }

    /// A hub backed by an on-disk checkpoint directory (created if absent).
    /// Two instances pointed at the same directory — across restarts or
    /// processes — share the pretrained registry.
    pub fn at(dir: impl Into<PathBuf>) -> Result<Self, HubError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| HubError::Checkpoint(CheckpointError::Io(e.to_string())))?;
        let mut hub = Self::in_memory();
        hub.dir = Some(dir);
        Ok(hub)
    }

    /// Sets the fine-tuned-descendant LRU capacity (builder style).
    pub fn with_finetuned_capacity(mut self, capacity: usize) -> Self {
        self.finetuned_capacity = capacity.max(1);
        self
    }

    /// Sets how disk recalls materialize checkpoints (builder style). The
    /// default is [`RecallMode::Mmap`]; [`RecallMode::Deserialize`] forces
    /// the classic owned-copy path.
    pub fn with_recall_mode(mut self, mode: RecallMode) -> Self {
        self.recall_mode = mode;
        self
    }

    /// The configured disk-recall mode.
    pub fn recall_mode(&self) -> RecallMode {
        self.recall_mode
    }

    /// Operation counters.
    pub fn stats(&self) -> HubStats {
        HubStats {
            memory_recalls: self.metrics.memory_recalls.get(),
            disk_recalls: self.metrics.disk_recalls.get(),
            pretrains: self.metrics.pretrains.get(),
            finetune_hits: self.metrics.finetune_hits.get(),
            finetunes: self.metrics.finetunes.get(),
            disk_retries: self.metrics.disk_retries.get(),
            quarantined: self.metrics.quarantined.get(),
        }
    }

    /// Contributes the hub's metrics to a telemetry snapshot.
    pub(crate) fn collect_telemetry(&self, snap: &mut TelemetrySnapshot) {
        let m = &self.metrics;
        snap.push_counter(
            "bellamy_hub_memory_recalls_total",
            Vec::new(),
            "recalls",
            "Recalls served from the in-memory registry.",
            m.memory_recalls.get(),
        );
        snap.push_counter(
            "bellamy_hub_disk_recalls_total",
            Vec::new(),
            "recalls",
            "Recalls served from an on-disk checkpoint.",
            m.disk_recalls.get(),
        );
        snap.push_counter(
            "bellamy_hub_pretrains_total",
            Vec::new(),
            "trainings",
            "Models pre-trained because both registries missed.",
            m.pretrains.get(),
        );
        snap.push_counter(
            "bellamy_hub_finetune_hits_total",
            Vec::new(),
            "recalls",
            "Fine-tuned descendants served from the LRU cache.",
            m.finetune_hits.get(),
        );
        snap.push_counter(
            "bellamy_hub_finetunes_total",
            Vec::new(),
            "trainings",
            "Fine-tuning runs executed.",
            m.finetunes.get(),
        );
        snap.push_counter(
            "bellamy_hub_disk_retries_total",
            Vec::new(),
            "retries",
            "Checkpoint-read attempts retried after a transient I/O failure.",
            m.disk_retries.get(),
        );
        snap.push_counter(
            "bellamy_hub_quarantined_total",
            Vec::new(),
            "checkpoints",
            "Corrupt checkpoints renamed out of the registry.",
            m.quarantined.get(),
        );
        for mode in [RecallMode::Deserialize, RecallMode::Mmap] {
            snap.push_histogram(
                "bellamy_hub_recall_latency_seconds",
                vec![("mode", mode.as_str().to_string())],
                "seconds",
                "Wall time of successful disk recalls, by recall mode.",
                m.recall_latency(mode).snapshot(),
            );
        }
    }

    /// Number of fine-tuned descendants currently cached.
    pub fn finetuned_len(&self) -> usize {
        self.finetuned.lock().entries.len()
    }

    fn checkpoint_path(&self, key: &ModelKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.blmy", key.id())))
    }

    /// Publishes an externally trained model under `key`: snapshots it with
    /// registry lineage, persists it when the hub has a directory, and
    /// registers it in memory. Returns the shared snapshot.
    ///
    /// The snapshot build and checkpoint write happen outside the registry
    /// lock — concurrent recalls (even pure memory hits) never wait on a
    /// publisher's disk I/O.
    pub fn publish(&self, key: &ModelKey, model: &Bellamy) -> Result<Arc<ModelState>, HubError> {
        let mut state = model
            .build_state()
            .map_err(|_| HubError::Unfitted(key.id().to_string()))?;
        state.set_lineage(Some(key.id().to_string()), None);
        let state = Arc::new(state);
        if let Some(path) = self.checkpoint_path(key) {
            match faults::HUB_DISK_PERSIST.check() {
                // A crash mid-write, as the atomic writer would leave it: a
                // torn temp file next to the (untouched) published path.
                // Recalls must keep serving the previous checkpoint.
                Some(Injected::Error) => {
                    let mut tmp = path.as_os_str().to_os_string();
                    tmp.push(".tmp");
                    let _ = std::fs::write(PathBuf::from(tmp), b"BLMY\x02\x00\x00\x00torn");
                    return Err(HubError::Checkpoint(CheckpointError::Io(
                        "injected persist fault".to_string(),
                    )));
                }
                // A crash mid-write, as a later recall will find it:
                // garbage bytes land where the checkpoint should be.
                Some(Injected::Corrupt) => {
                    std::fs::write(&path, b"BLMY\x7f\x7f\x7f\x7finjected-corruption")
                        .map_err(|e| HubError::Checkpoint(CheckpointError::Io(e.to_string())))?;
                }
                None => state.save(path)?,
            }
        }
        self.pretrained
            .lock()
            .insert(key.id().to_string(), Arc::clone(&state));
        Ok(state)
    }

    /// The pure in-memory lookup: registry lock only, bump the hit counter.
    fn recall_memory(&self, key: &ModelKey) -> Option<Arc<ModelState>> {
        let registry = self.pretrained.lock();
        let state = registry.get(key.id())?;
        self.metrics.memory_recalls.inc();
        Some(Arc::clone(state))
    }

    /// The miss guard for `key`. The miss-map mutex is only ever held to
    /// clone or remove an `Arc` — never while waiting on a key guard or the
    /// registry — so no hold-and-wait cycle can form.
    fn miss_guard(&self, key: &ModelKey) -> Arc<Mutex<()>> {
        let mut misses = self.misses.lock();
        Arc::clone(misses.entry(key.id().to_string()).or_default())
    }

    /// Drops the miss guard entry once the key is registered (waiters
    /// already holding the `Arc` re-check the registry and hit in memory).
    fn clear_miss_guard(&self, key: &ModelKey) {
        self.misses.lock().remove(key.id());
    }

    /// Loads the checkpoint at `path` in the configured [`RecallMode`],
    /// retrying transient I/O failures with bounded backoff (a flaky
    /// network disk should not fail a recall that a millisecond-later
    /// attempt would serve). Both modes share one loop, so the retry
    /// budget, the `NotFound` short-circuit (the file vanished between the
    /// existence probe and the open — a concurrent quarantine or cleanup,
    /// permanent for this recall), and the `disk_retries` counter behave
    /// identically whether the bytes are read or mapped.
    ///
    /// Decode failures (corrupt content) are returned for the caller to
    /// classify — corruption is never retried here.
    fn load_checkpoint(&self, path: &Path) -> Result<Checkpoint, HubError> {
        let mut attempt = 1usize;
        loop {
            let result: Result<Checkpoint, AttemptError> = match faults::HUB_DISK_PROBE.check() {
                Some(Injected::Error) => {
                    Err(AttemptError::Transient("injected read fault".to_string()))
                }
                Some(Injected::Corrupt) => {
                    Checkpoint::from_bytes(b"BLMY\x7f\x7f\x7f\x7finjected-corruption")
                        .map_err(AttemptError::Decode)
                }
                None => self.load_checkpoint_once(path),
            };
            match result {
                Ok(ck) => return Ok(ck),
                Err(AttemptError::Decode(e)) => return Err(e.into()),
                Err(AttemptError::Vanished(msg)) => {
                    return Err(HubError::Checkpoint(CheckpointError::Io(msg)))
                }
                Err(AttemptError::Transient(_)) if attempt < DISK_READ_ATTEMPTS => {
                    self.metrics.disk_retries.inc();
                    std::thread::sleep(DISK_RETRY_BACKOFF * attempt as u32);
                    attempt += 1;
                }
                Err(AttemptError::Transient(msg)) => {
                    return Err(HubError::Checkpoint(CheckpointError::Io(msg)))
                }
            }
        }
    }

    /// One load attempt in the configured mode.
    fn load_checkpoint_once(&self, path: &Path) -> Result<Checkpoint, AttemptError> {
        match self.recall_mode {
            RecallMode::Deserialize => match std::fs::read(path) {
                Ok(bytes) => Checkpoint::from_bytes(&bytes).map_err(AttemptError::Decode),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    Err(AttemptError::Vanished(e.to_string()))
                }
                Err(e) => Err(AttemptError::Transient(e.to_string())),
            },
            RecallMode::Mmap => match std::fs::File::open(path) {
                Ok(file) => match Checkpoint::map_file(&file) {
                    Ok(ck) => Ok(ck),
                    // `map_file` surfaces OS mapping failures as `Io` —
                    // transient, same retry budget as a failed read.
                    Err(CheckpointError::Io(msg)) => Err(AttemptError::Transient(msg)),
                    Err(e) => Err(AttemptError::Decode(e)),
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    Err(AttemptError::Vanished(e.to_string()))
                }
                Err(e) => Err(AttemptError::Transient(e.to_string())),
            },
        }
    }

    /// Renames a corrupt checkpoint to `<file>.corrupt` so it stops
    /// resolving for its key: one bad file fails one recall (typed as
    /// [`HubError::Corrupt`]), not every future recall of that key. The
    /// quarantined bytes stay on disk for forensics. Best-effort — if the
    /// rename itself fails the poison file survives, but the recall error
    /// still surfaces.
    fn quarantine(&self, path: &Path) {
        self.metrics.quarantined.inc();
        telemetry::events().record(
            event_kind::CHECKPOINT_QUARANTINED,
            format!("corrupt checkpoint quarantined: {}", path.display()),
        );
        let mut quarantine_name = path.as_os_str().to_os_string();
        quarantine_name.push(".corrupt");
        let _ = std::fs::rename(path, PathBuf::from(quarantine_name));
    }

    /// Probes the on-disk registry for `key`: loads, decodes, and registers
    /// its snapshot, quarantining the file when the bytes are corrupt. Must
    /// be called with the key's miss guard held.
    fn recall_disk_locked(&self, key: &ModelKey) -> Result<DiskProbe, HubError> {
        let path = match self.checkpoint_path(key) {
            Some(p) if p.exists() => p,
            _ => return Ok(DiskProbe::Absent),
        };
        let recall_started = std::time::Instant::now();
        let loaded = self.load_checkpoint(&path);
        let loaded = match faults::CHECKPOINT_DECODE.check() {
            // Mangle the magic: the decoder sees garbage where a
            // checkpoint should be.
            Some(Injected::Corrupt) => {
                Checkpoint::from_bytes(b"XXXX-injected-decode-corruption").map_err(HubError::from)
            }
            Some(Injected::Error) => Err(HubError::Checkpoint(CheckpointError::Io(
                "injected decode fault".to_string(),
            ))),
            None => loaded,
        };
        let ck = match loaded {
            Ok(ck) => ck,
            Err(HubError::Checkpoint(e)) if e.is_corruption() => {
                self.quarantine(&path);
                return Ok(DiskProbe::Quarantined(e));
            }
            Err(e) => return Err(e),
        };
        // Zero-copy: the state takes ownership of the decoded tensors —
        // mapped views for a mapped v2 checkpoint — instead of copying
        // them into a fresh model.
        let mut state = ModelState::from_checkpoint(ck).map_err(|e| match e {
            StateFromCheckpointError::Unfitted => HubError::Unfitted(key.id().to_string()),
            StateFromCheckpointError::Invalid(e) => HubError::Checkpoint(e),
        })?;
        state.set_lineage(Some(key.id().to_string()), None);
        let state = Arc::new(state);
        self.pretrained
            .lock()
            .insert(key.id().to_string(), Arc::clone(&state));
        self.metrics.disk_recalls.inc();
        self.metrics
            .recall_latency(self.recall_mode)
            .record_duration(recall_started.elapsed());
        Ok(DiskProbe::Loaded(state))
    }

    /// Recalls a pretrained model: in-memory registry first, then the
    /// on-disk checkpoint directory. Never trains.
    ///
    /// The registry mutex is only held for the map lookup/insert. A cold
    /// disk recall runs under the key's *miss guard*: same-key racers
    /// coalesce on a single checkpoint load (the losers re-check the
    /// registry and hit in memory), while distinct keys load from disk
    /// fully in parallel — and neither ever stalls a memory hit.
    pub fn recall(&self, key: &ModelKey) -> Result<Arc<ModelState>, HubError> {
        if let Some(state) = self.recall_memory(key) {
            return Ok(state);
        }
        if self.dir.is_none() {
            return Err(HubError::UnknownModel(key.id().to_string()));
        }
        let guard = self.miss_guard(key);
        let _token = guard.lock();
        // A same-key racer may have loaded while we waited on the guard.
        if let Some(state) = self.recall_memory(key) {
            return Ok(state);
        }
        // Clear the guard entry whatever the outcome — pure recalls never
        // train, so an unknown or unreadable key must not leave a map
        // entry behind (a prober polling for a yet-unpublished key would
        // otherwise grow the miss map without bound). Racers holding the
        // guard `Arc` still serialize; the next miss re-inserts.
        let outcome = self.recall_disk_locked(key);
        self.clear_miss_guard(key);
        match outcome? {
            DiskProbe::Loaded(state) => Ok(state),
            DiskProbe::Absent => Err(HubError::UnknownModel(key.id().to_string())),
            DiskProbe::Quarantined(source) => Err(HubError::Corrupt {
                id: key.id().to_string(),
                source,
            }),
        }
    }

    /// The heart of the reuse workflow: recall the model registered under
    /// `key`, or — when both the in-memory and on-disk registries miss —
    /// pre-train it on `samples()` (the closure is only invoked on a miss,
    /// so callers do not materialize training corpora for recalls), persist
    /// the checkpoint, and register the snapshot.
    ///
    /// The whole miss path (disk probe *and* training) runs under the
    /// per-key miss guard: concurrent requests for the same key serialize
    /// on that key alone (one disk load, one pre-training — no duplicated
    /// work), while misses for different keys probe the disk and pre-train
    /// fully in parallel — the shape the evaluation harness fans out.
    ///
    /// Training is deterministic in `(key.config(), cfg, seed, samples)`:
    /// the trained model is bit-identical to a hand-wired
    /// `Bellamy::new(config, seed)` + [`pretrain`] with the same arguments.
    /// An empty corpus is [`HubError::NoSamples`].
    pub fn recall_or_pretrain(
        &self,
        key: &ModelKey,
        cfg: &PretrainConfig,
        seed: u64,
        samples: impl FnOnce() -> Vec<TrainingSample>,
    ) -> Result<Arc<ModelState>, HubError> {
        // Fast path: memory hit, registry lock only.
        if let Some(state) = self.recall_memory(key) {
            return Ok(state);
        }

        let guard = self.miss_guard(key);
        let _token = guard.lock();

        // A same-key racer may have resolved the miss while we waited.
        if let Some(state) = self.recall_memory(key) {
            return Ok(state);
        }
        match self.recall_disk_locked(key) {
            Ok(DiskProbe::Loaded(state)) => {
                self.clear_miss_guard(key);
                return Ok(state);
            }
            // Absent: nothing on disk, fall through to pre-training. A
            // quarantined checkpoint is the same thing with a rename — the
            // poison file is out of the way, so train the replacement now
            // instead of failing this and every future request.
            Ok(DiskProbe::Absent) | Ok(DiskProbe::Quarantined(_)) => {}
            Err(e) => {
                // An unreadable checkpoint must not leave a stale guard
                // entry behind (mirrors `recall`): repeated failing probes
                // of distinct keys would otherwise grow the miss map
                // without bound. Racers holding the guard `Arc` still
                // serialize; the next miss re-inserts.
                self.clear_miss_guard(key);
                return Err(e);
            }
        }

        let corpus = samples();
        if corpus.is_empty() {
            // Like an unreadable checkpoint, this must not leave a guard
            // entry behind.
            self.clear_miss_guard(key);
            return Err(HubError::NoSamples(key.id().to_string()));
        }
        let mut model = Bellamy::new(key.config().clone(), seed);
        let report = pretrain(&mut model, &corpus, cfg, seed);
        if report.diverged {
            // Leave the guard entry in place: the next requester for this
            // key recreates or reuses it and may retry with another budget.
            return Err(HubError::Diverged(key.id().to_string()));
        }
        self.metrics.pretrains.inc();
        let published = self.publish(key, &model);
        // The key is registered; its guard will never be needed again.
        self.clear_miss_guard(key);
        published
    }

    /// Recalls (or derives) the fine-tuned descendant of `key` for one
    /// concrete context: on an LRU miss the parent is recalled, a trainer
    /// handle is derived from its snapshot, fine-tuned on `samples` under
    /// `strategy`, and the resulting snapshot — carrying the parent key as
    /// provenance — is cached. The LRU is keyed by (parent, `context`,
    /// samples, strategy, seed, budget), so identical requests share one
    /// descendant and anything else trains its own.
    ///
    /// The returned snapshot's predictions are bit-identical to a
    /// hand-wired [`Bellamy::from_state`] + [`fine_tune`] with the same
    /// arguments. Empty `samples` are [`HubError::NoSamples`], before any
    /// recall or training.
    pub fn fine_tuned_for(
        &self,
        key: &ModelKey,
        context: &str,
        samples: &[TrainingSample],
        cfg: &FinetuneConfig,
        strategy: ReuseStrategy,
        seed: u64,
    ) -> Result<Arc<ModelState>, HubError> {
        let parent_id = key.id().to_string();
        if samples.is_empty() {
            return Err(HubError::NoSamples(parent_id));
        }
        let fingerprint = finetune_fingerprint(samples, cfg, strategy, seed);
        {
            let mut lru = self.finetuned.lock();
            lru.tick += 1;
            let tick = lru.tick;
            if let Some(entry) = lru.entries.iter_mut().find(|e| {
                e.parent_id == parent_id && e.context == context && e.fingerprint == fingerprint
            }) {
                entry.last_used = tick;
                self.metrics.finetune_hits.inc();
                return Ok(Arc::clone(&entry.state));
            }
        }

        let parent = self.recall(key)?;
        let mut trainer = Bellamy::from_state(&parent);
        fine_tune(&mut trainer, samples, cfg, strategy, seed);
        // fine_tune restores the best-MAE parameter state, which is finite
        // in every normal run; a non-finite outcome means the whole
        // trajectory diverged and the descendant must not be served.
        if !trainer.params().values_all_finite() {
            return Err(HubError::Diverged(parent_id));
        }
        self.metrics.finetunes.inc();
        let mut state = trainer
            .build_state()
            .map_err(|_| HubError::Unfitted(parent_id.clone()))?;
        state.set_lineage(
            Some(format!("{parent_id}@{}", sanitize(context))),
            Some(parent_id.clone()),
        );
        let state = Arc::new(state);

        let mut lru = self.finetuned.lock();
        lru.tick += 1;
        let tick = lru.tick;
        // A racer may have derived the same descendant while we trained
        // (training is deterministic, so the results are interchangeable);
        // keep its entry instead of inserting a duplicate.
        if let Some(entry) = lru.entries.iter_mut().find(|e| {
            e.parent_id == parent_id && e.context == context && e.fingerprint == fingerprint
        }) {
            entry.last_used = tick;
            return Ok(Arc::clone(&entry.state));
        }
        if lru.entries.len() >= self.finetuned_capacity {
            // Evict the least-recently-used descendant (parents stay: they
            // live in the pretrained registry).
            if let Some(pos) = lru
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                lru.entries.swap_remove(pos);
            }
        }
        lru.entries.push(FineTunedEntry {
            parent_id,
            context: context.to_string(),
            fingerprint,
            state: Arc::clone(&state),
            last_used: tick,
        });
        Ok(state)
    }
}

/// Fingerprint of everything besides the parent/context label that changes
/// what a fine-tuned descendant *is*: the samples (exact bits), the reuse
/// strategy, the seed, and the fine-tuning budget.
fn finetune_fingerprint(
    samples: &[TrainingSample],
    cfg: &FinetuneConfig,
    strategy: ReuseStrategy,
    seed: u64,
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    mix(strategy.name().as_bytes());
    mix(&seed.to_le_bytes());
    mix(&(cfg.max_epochs as u64).to_le_bytes());
    mix(&cfg.target_mae.to_bits().to_le_bytes());
    mix(&(cfg.patience as u64).to_le_bytes());
    mix(&cfg.max_lr.to_bits().to_le_bytes());
    mix(&cfg.min_lr.to_bits().to_le_bytes());
    mix(&(cfg.lr_period as u64).to_le_bytes());
    mix(&cfg.weight_decay.to_bits().to_le_bytes());
    mix(&(cfg.unfreeze_budget as u64).to_le_bytes());
    mix(format!("{:?}", cfg.optimizer).as_bytes());
    // Samples are mixed with explicit structure — counts, per-list
    // lengths, a variant tag and length prefix per property — so distinct
    // sample sets cannot collide by concatenation ambiguity (e.g.
    // ["ab"] vs ["a", "b"], or Number(5) vs Text("5")).
    mix(&(samples.len() as u64).to_le_bytes());
    let mut mix_props = |props: &[bellamy_encoding::PropertyValue]| {
        mix(&(props.len() as u64).to_le_bytes());
        for p in props {
            match p {
                bellamy_encoding::PropertyValue::Number(n) => {
                    mix(&[0u8]);
                    mix(&n.to_le_bytes());
                }
                bellamy_encoding::PropertyValue::Text(t) => {
                    mix(&[1u8]);
                    mix(&(t.len() as u64).to_le_bytes());
                    mix(t.as_bytes());
                }
            }
        }
    };
    for s in samples {
        mix_props(&s.props.essential);
        mix_props(&s.props.optional);
    }
    for s in samples {
        mix(&s.scale_out.to_bits().to_le_bytes());
        mix(&s.runtime_s.to_bits().to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_identity_is_algorithm_objective_config() {
        let cfg = BellamyConfig::default();
        let a = ModelKey::new("SGD", "runtime", &cfg);
        let b = ModelKey::new("SGD", "runtime", &cfg);
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_ne!(a, ModelKey::new("Grep", "runtime", &cfg));
        assert_ne!(a, ModelKey::new("SGD", "latency", &cfg));
        let other_cfg = BellamyConfig {
            property_dim: 20,
            ..BellamyConfig::default()
        };
        let c = ModelKey::new("SGD", "runtime", &other_cfg);
        assert_ne!(a, c, "encoder config must be part of the identity");
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn keys_that_sanitize_identically_keep_distinct_ids() {
        // The sanitizer flattens "K Means" and "k-means" to the same stem;
        // the identity fingerprint over the raw strings must keep the ids
        // (and so the registry/disk entries) apart.
        let cfg = BellamyConfig::default();
        let a = ModelKey::new("K Means", "runtime", &cfg);
        let b = ModelKey::new("k-means", "runtime", &cfg);
        assert_ne!(a, b);
        assert_ne!(a.id(), b.id(), "sanitization must not alias keys");
        // Concatenation ambiguity across the algorithm/objective boundary.
        let c = ModelKey::new("sgd-run", "time", &cfg);
        let d = ModelKey::new("sgd", "run-time", &cfg);
        assert_ne!(c.id(), d.id());
    }

    #[test]
    fn finetune_fingerprints_distinguish_structurally_close_samples() {
        use crate::features::{ContextProperties, TrainingSample};
        use bellamy_encoding::PropertyValue;
        let cfg = FinetuneConfig::default();
        let sample = |essential: Vec<PropertyValue>| TrainingSample {
            scale_out: 4.0,
            runtime_s: 100.0,
            props: ContextProperties {
                essential,
                optional: vec![],
            },
        };
        let ab = [sample(vec![PropertyValue::text("ab")])];
        let a_b = [sample(vec![
            PropertyValue::text("a"),
            PropertyValue::text("b"),
        ])];
        let num = [sample(vec![PropertyValue::Number(5)])];
        let txt = [sample(vec![PropertyValue::text("5")])];
        let strategy = ReuseStrategy::PartialUnfreeze;
        assert_ne!(
            finetune_fingerprint(&ab, &cfg, strategy, 0),
            finetune_fingerprint(&a_b, &cfg, strategy, 0),
            "list splits must not collide"
        );
        assert_ne!(
            finetune_fingerprint(&num, &cfg, strategy, 0),
            finetune_fingerprint(&txt, &cfg, strategy, 0),
            "variant tags must separate Number(5) from Text(\"5\")"
        );
    }

    #[test]
    fn key_id_is_filename_safe() {
        let key = ModelKey::new("K-Means", "runtime / §IV", &BellamyConfig::default());
        let id = key.id();
        assert!(id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_'));
        assert!(id.starts_with("k-means--runtime"));
        assert_eq!(key.to_string(), id);
    }

    #[test]
    fn recall_of_unknown_key_errors() {
        let hub = ModelHub::in_memory();
        let key = ModelKey::new("sgd", "runtime", &BellamyConfig::default());
        match hub.recall(&key) {
            Err(HubError::UnknownModel(id)) => assert_eq!(id, key.id()),
            other => panic!("expected UnknownModel, got {other:?}"),
        }
        assert!(hub
            .recall(&key)
            .unwrap_err()
            .to_string()
            .contains("no model"));
    }

    #[test]
    fn unknown_key_probes_do_not_grow_the_miss_guard_map() {
        // A client polling for a yet-unpublished key takes the per-key
        // miss guard on every probe; failed recalls must remove the map
        // entry again or the map grows without bound.
        let dir = std::env::temp_dir().join(format!("bellamy-missmap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let hub = ModelHub::at(&dir).unwrap();
        for i in 0..10 {
            let key = ModelKey::new(format!("algo-{i}"), "runtime", &BellamyConfig::default());
            assert!(matches!(hub.recall(&key), Err(HubError::UnknownModel(_))));
        }
        assert_eq!(
            hub.misses.lock().len(),
            0,
            "failed recalls must clear their miss-guard entries"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failing_disk_recalls_through_recall_or_pretrain_clear_the_miss_guard() {
        // An unreadable checkpoint (here: the path is a directory, an I/O
        // error that is not NotFound and not corruption, so no quarantine
        // rescues it) makes the disk probe inside `recall_or_pretrain`
        // error before training; the per-key guard entry must still be
        // removed, or repeated failing probes of distinct keys grow the
        // miss map without bound.
        let dir = std::env::temp_dir().join(format!("bellamy-badck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let hub = ModelHub::at(&dir).unwrap();
        for i in 0..4 {
            let key = ModelKey::new(format!("bad-{i}"), "runtime", &BellamyConfig::default());
            std::fs::create_dir_all(dir.join(format!("{}.blmy", key.id()))).unwrap();
            assert!(
                hub.recall_or_pretrain(&key, &PretrainConfig::default(), 0, Vec::new)
                    .is_err(),
                "unreadable checkpoint must surface as an error, not train"
            );
        }
        assert_eq!(
            hub.misses.lock().len(),
            0,
            "erroring disk recalls must clear their miss-guard entries"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn publish_rejects_unfitted_models() {
        let hub = ModelHub::in_memory();
        let key = ModelKey::new("sgd", "runtime", &BellamyConfig::default());
        let unfitted = Bellamy::new(BellamyConfig::default(), 0);
        assert!(matches!(
            hub.publish(&key, &unfitted),
            Err(HubError::Unfitted(_))
        ));
    }
}
