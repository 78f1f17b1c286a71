//! Quickstart: the Bellamy reuse workflow end to end, through the serving
//! front door.
//!
//! 1. Load (here: generate) historical execution data.
//! 2. Build a [`Service`] and ask it for a **client** of the general model
//!    for an algorithm (`client_or_pretrain`: trained once per key, shared
//!    thereafter).
//! 3. **Fine-tune** through the service on a handful of runs from a *new*
//!    context (the descendant records its parent for provenance).
//! 4. **Serve**: predict runtimes at unseen scale-outs through the client —
//!    any number of threads can share it, each predicting on its own arena.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bellamy::prelude::*;

fn main() {
    // --- 1. Historical data -------------------------------------------------
    let data = generate_c3o(&GeneratorConfig::seeded(42));
    println!(
        "historical traces: {} contexts, {} runs across {:?}",
        data.contexts.len(),
        data.runs.len(),
        data.algorithms()
            .iter()
            .map(|a| a.name())
            .collect::<Vec<_>>()
    );

    // The "new" context we pretend to encounter for the first time.
    let target = data.contexts_for(Algorithm::KMeans)[3];
    println!(
        "\ntarget context: {} | {} MB | {} | {}",
        target.node_type.name,
        target.dataset_size_mb,
        target.dataset_characteristics,
        target.job_parameters
    );

    // --- 2. A serving client for the general K-Means model ------------------
    let service = Service::builder().build().expect("in-memory service");
    let key = ModelKey::new("kmeans", "runtime", &BellamyConfig::default());
    let start = std::time::Instant::now();
    let general = service
        .client_or_pretrain(
            &key,
            &PretrainConfig {
                epochs: 300,
                ..PretrainConfig::default()
            },
            7,
            || {
                data.runs_for_algorithm_excluding(Algorithm::KMeans, Some(target.id))
                    .iter()
                    .map(|r| TrainingSample::from_run(&data.contexts[r.context_id], r))
                    .collect()
            },
        )
        .expect("pre-training converges");
    println!(
        "\nclient_or_pretrain({key}): trained + registered in {:.1}s",
        start.elapsed().as_secs_f64()
    );

    // A second request is a pure recall — same shared snapshot, no training.
    let start = std::time::Instant::now();
    let recalled = service.client(&key).expect("recall");
    println!(
        "client({key}): recalled in {:.1}us (same model: {})",
        start.elapsed().as_secs_f64() * 1e6,
        std::sync::Arc::ptr_eq(general.state(), recalled.state()),
    );

    // --- 3. Fine-tune on three observed runs of the new context ------------
    let observed: Vec<TrainingSample> = data
        .runs_for_context(target.id)
        .iter()
        .filter(|r| [2, 6, 10].contains(&r.scale_out) && r.repeat == 0)
        .map(|r| TrainingSample::from_run(target, r))
        .collect();
    let start = std::time::Instant::now();
    let tuned = service
        .finetuned_client_with(
            &key,
            "kmeans-new-context",
            &observed,
            &FinetuneConfig::default(),
            ReuseStrategy::PartialUnfreeze,
            7,
        )
        .expect("fine-tuning succeeds");
    println!(
        "finetuned_client: {} points in {:.1}ms (parent: {})",
        observed.len(),
        start.elapsed().as_secs_f64() * 1e3,
        tuned.state().parent_key().unwrap_or("-")
    );

    // --- 4. Serve: predict at unseen scale-outs -----------------------------
    let props = context_properties(target);
    println!(
        "\n{:<10} {:>12} {:>12} {:>8}",
        "scale-out", "predicted", "actual", "error"
    );
    for x in [4u32, 8, 12] {
        let actual: Vec<f64> = data
            .runs_for_context(target.id)
            .iter()
            .filter(|r| r.scale_out == x)
            .map(|r| r.runtime_s)
            .collect();
        let actual_mean = actual.iter().sum::<f64>() / actual.len() as f64;
        // A single query runs on this thread's predictor arena.
        let predicted = tuned.predict(x as f64, &props).expect("no panic");
        println!(
            "{:<10} {:>10.1}s {:>10.1}s {:>7.1}%",
            x,
            predicted,
            actual_mean,
            100.0 * (predicted - actual_mean).abs() / actual_mean
        );
    }
    let stats = tuned.batcher_stats();
    println!(
        "\n(served {} queries, {} panics)",
        stats.queries, stats.panics
    );
}
