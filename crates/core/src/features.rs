//! Feature assembly: scale-out features, context properties, and training
//! samples.

use bellamy_data::{JobContext, JobRun};
use bellamy_encoding::PropertyValue;

/// The Ernest-inspired scale-out feature vector `[1/x, log x, x]` (§III-B).
pub fn scale_out_features(x: f64) -> [f64; 3] {
    assert!(x >= 1.0, "scale-out must be at least 1");
    [1.0 / x, x.ln(), x]
}

/// The descriptive properties of one execution context, split into the
/// paper's essential and optional groups (§IV-B): essential are dataset
/// size, dataset characteristics, job parameters and node type; optional are
/// memory (MB), CPU cores, and the job name.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextProperties {
    /// Always-available properties, order-sensitive (each position has its
    /// own code slot in `r`).
    pub essential: Vec<PropertyValue>,
    /// Sometimes-available properties, mean-pooled into one code (Eq. 6).
    pub optional: Vec<PropertyValue>,
}

impl ContextProperties {
    /// The property in position `k` of a model with `essential` essential
    /// positions (essential first, then optional), or `None` for a position
    /// this context leaves empty — limited knowledge is allowed (§III-C),
    /// and the model encodes an empty position as a zero vector.
    pub(crate) fn slot(&self, essential: usize, k: usize) -> Option<&PropertyValue> {
        if k < essential {
            self.essential.get(k)
        } else {
            self.optional.get(k - essential)
        }
    }
}

/// Extracts the paper's property assignment from a [`JobContext`].
pub fn context_properties(ctx: &JobContext) -> ContextProperties {
    ContextProperties {
        essential: vec![
            PropertyValue::Number(ctx.dataset_size_mb),
            PropertyValue::text(&ctx.dataset_characteristics),
            PropertyValue::text(&ctx.job_parameters),
            PropertyValue::text(&ctx.node_type.name),
        ],
        optional: vec![
            PropertyValue::Number(ctx.node_type.memory_mb),
            PropertyValue::Number(ctx.node_type.cores as u64),
            PropertyValue::text(ctx.algorithm.name()),
        ],
    }
}

/// One training observation: a scale-out, its measured runtime, and the
/// context it ran in.
#[derive(Debug, Clone)]
pub struct TrainingSample {
    /// Number of machines.
    pub scale_out: f64,
    /// Measured runtime in seconds.
    pub runtime_s: f64,
    /// Context description.
    pub props: ContextProperties,
}

impl TrainingSample {
    /// Builds a sample from a run and its context.
    pub fn from_run(ctx: &JobContext, run: &JobRun) -> Self {
        Self {
            scale_out: run.scale_out as f64,
            runtime_s: run.runtime_s,
            props: context_properties(ctx),
        }
    }
}

/// Converts a set of runs (with their dataset for context lookup) into
/// training samples.
pub fn samples_from_runs(dataset: &bellamy_data::Dataset, runs: &[&JobRun]) -> Vec<TrainingSample> {
    runs.iter()
        .map(|r| TrainingSample::from_run(&dataset.contexts[r.context_id], r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bellamy_data::{generate_c3o, GeneratorConfig};

    #[test]
    fn scale_out_features_values() {
        let f = scale_out_features(4.0);
        assert_eq!(f[0], 0.25);
        assert!((f[1] - 4.0f64.ln()).abs() < 1e-12);
        assert_eq!(f[2], 4.0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_scale_out_rejected() {
        let _ = scale_out_features(0.0);
    }

    #[test]
    fn context_properties_assignment() {
        let ds = generate_c3o(&GeneratorConfig::default());
        let ctx = &ds.contexts[0];
        let props = context_properties(ctx);
        assert_eq!(props.essential.len(), 4);
        assert_eq!(props.optional.len(), 3);
        assert_eq!(
            props.essential[0],
            PropertyValue::Number(ctx.dataset_size_mb)
        );
        assert_eq!(props.essential[3], PropertyValue::text(&ctx.node_type.name));
        assert_eq!(props.optional[2], PropertyValue::text(ctx.algorithm.name()));
    }

    #[test]
    fn samples_from_runs_align() {
        let ds = generate_c3o(&GeneratorConfig::default());
        let runs = ds.runs_for_context(0);
        let samples = samples_from_runs(&ds, &runs);
        assert_eq!(samples.len(), runs.len());
        assert_eq!(samples[0].scale_out, runs[0].scale_out as f64);
        assert_eq!(samples[0].runtime_s, runs[0].runtime_s);
        // Every sample of one context carries identical properties.
        for s in &samples {
            assert_eq!(s.props, samples[0].props);
        }
    }
}
