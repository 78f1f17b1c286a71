//! The unified error type of the serving front door.
//!
//! The subsystems each have a precise local error — [`PredictError`] for
//! inference on unfitted models, [`HubError`] for registry operations,
//! [`SearchError`] for hyperparameter search — and keep them, because their
//! callers match on the specific cases. The [`crate::serve`] API sits above
//! all three, so it speaks one language: [`BellamyError`], with `From`
//! conversions from every local error (the `?` operator just works) and
//! `source()` preserving the original for callers that want to drill down.

use crate::hub::HubError;
use crate::model::PredictError;
use crate::search::SearchError;

/// Any error the Bellamy serving stack can surface: the union of the
/// per-subsystem errors plus a panicked query.
#[derive(Debug)]
pub enum BellamyError {
    /// Inference was requested from an unfitted model.
    Predict(PredictError),
    /// A model-hub operation failed (unknown key, divergence, disk I/O).
    Hub(HubError),
    /// Hyperparameter search could not produce a usable model.
    Search(SearchError),
    /// The forward pass of this query panicked on the caller's thread.
    /// Only this query failed; the thread's next query is served normally.
    /// Safe to retry.
    BatchPanicked,
}

impl std::fmt::Display for BellamyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BellamyError::Predict(e) => write!(f, "predict: {e}"),
            BellamyError::Hub(e) => write!(f, "hub: {e}"),
            BellamyError::Search(e) => write!(f, "search: {e}"),
            BellamyError::BatchPanicked => {
                write!(
                    f,
                    "the forward pass of this query panicked; the query is safe to retry"
                )
            }
        }
    }
}

impl std::error::Error for BellamyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BellamyError::Predict(e) => Some(e),
            BellamyError::Hub(e) => Some(e),
            BellamyError::Search(e) => Some(e),
            BellamyError::BatchPanicked => None,
        }
    }
}

impl From<PredictError> for BellamyError {
    fn from(e: PredictError) -> Self {
        BellamyError::Predict(e)
    }
}

impl From<HubError> for BellamyError {
    fn from(e: HubError) -> Self {
        BellamyError::Hub(e)
    }
}

impl From<SearchError> for BellamyError {
    fn from(e: SearchError) -> Self {
        BellamyError::Search(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: BellamyError = PredictError::NotFitted.into();
        assert!(e.to_string().contains("not fitted"));
        let e: BellamyError = HubError::UnknownModel("k".into()).into();
        assert!(e.to_string().contains("no model registered"));
        let e: BellamyError = SearchError::AllTrialsDiverged { trials: 3 }.into();
        assert!(e.to_string().contains("diverged"));
        assert!(BellamyError::BatchPanicked.to_string().contains("retry"));
    }

    #[test]
    fn source_preserves_the_wrapped_error() {
        use std::error::Error;
        let e: BellamyError = PredictError::NotFitted.into();
        assert!(e.source().is_some());
        assert!(BellamyError::BatchPanicked.source().is_none());
    }

    #[test]
    fn question_mark_operator_converts() {
        fn recall() -> Result<(), BellamyError> {
            Err(HubError::UnknownModel("missing".into()))?
        }
        assert!(matches!(recall(), Err(BellamyError::Hub(_))));
    }
}
