//! The query planning pass: metadata-driven segment skipping and cost-based
//! cascade ordering.
//!
//! Both behaviours are **off by default** — [`PlanOptions::default`] makes
//! [`QueryEngine::execute_planned`](crate::QueryEngine::execute_planned)
//! byte-identical to [`QueryEngine::execute`](crate::QueryEngine::execute) —
//! because the skip is approximate: the ingest-time change scores (see
//! [`vstore_codec::meta`]) bound frame-to-frame change, but the cascade's
//! first stage flags the first frame of every clip regardless of content, so
//! a skipped segment may drop positives an exact scan would report. Callers
//! opt in per query (or per session through `RuntimeOptions`) when that
//! trade is acceptable — the EKO-style "don't decode what the first stage
//! would discard" acceleration.

use vstore_types::{Result, VStoreError};

/// Skip threshold matching [`vstore_ops`]'s diff operator: a segment whose
/// largest sampled frame-to-frame change stays below the change the diff
/// stage needs to flag a frame is one that stage would discard.
pub const DEFAULT_SKIP_THRESHOLD: f64 = 1.5;

/// Planner configuration for one query execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanOptions {
    /// Master switch. `false` (the default) disables both the metadata skip
    /// and the stage reordering: execution is byte-identical to the
    /// unplanned engine.
    pub enabled: bool,
    /// Segments whose
    /// [`SegmentMeta::max_sampled_change`](vstore_codec::SegmentMeta::max_sampled_change)
    /// falls below this threshold are skipped without being fetched or
    /// decoded. Raise it to skip more aggressively, lower it towards 0 to
    /// skip only perfectly static segments. Only consulted when `enabled`
    /// is `true`.
    pub skip_threshold: f64,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            enabled: false,
            skip_threshold: DEFAULT_SKIP_THRESHOLD,
        }
    }
}

impl PlanOptions {
    /// Planning enabled at the default skip threshold.
    pub fn planned() -> Self {
        PlanOptions {
            enabled: true,
            ..PlanOptions::default()
        }
    }

    /// Set the skip threshold (validated by [`validate`](Self::validate)).
    pub fn with_skip_threshold(mut self, threshold: f64) -> Self {
        self.skip_threshold = threshold;
        self
    }

    /// Reject thresholds that cannot express a skip decision.
    pub fn validate(&self) -> Result<()> {
        if !self.skip_threshold.is_finite() || self.skip_threshold < 0.0 {
            return Err(VStoreError::invalid_argument(format!(
                "PlanOptions::skip_threshold must be finite and >= 0, got {}",
                self.skip_threshold
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_exact_mode() {
        let plan = PlanOptions::default();
        assert!(!plan.enabled);
        assert_eq!(plan.skip_threshold, DEFAULT_SKIP_THRESHOLD);
        assert!(plan.validate().is_ok());
        assert!(PlanOptions::planned().enabled);
    }

    #[test]
    fn validate_rejects_unusable_thresholds() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            let plan = PlanOptions::planned().with_skip_threshold(bad);
            assert!(
                matches!(plan.validate(), Err(VStoreError::InvalidArgument(_))),
                "{bad} accepted"
            );
        }
        assert!(PlanOptions::planned()
            .with_skip_threshold(0.0)
            .validate()
            .is_ok());
    }
}
