//! A seeded benchmark of the Bellamy `Service` / `ModelHub` API around the
//! paper's recall → fine-tune → decide workflow. `perfbench --workload
//! <serve|plan|onboard|restart> --seed <n> --seconds <s> --trace <0|1>`
//! prints the end-to-end metrics (untraced) or the per-layer metrics
//! (traced) as its last stdout line; `compare` judges two sets of runs.

pub mod compare;
pub mod report;
pub mod run;
pub mod sets;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workloads;
