//! Typed request builders for the [`VStore`](crate::VStore) service handle.
//!
//! Every runtime operation of the facade takes one of these requests instead
//! of a positional argument list: the builder names each parameter at the
//! call site, carries defaults for the common case, and **validates before
//! the request touches the runtime** — a malformed request is rejected as
//! [`VStoreError::InvalidArgument`] without acquiring a single store lock.

use vstore_datasets::VideoSource;
use vstore_query::QuerySpec;
use vstore_types::{Result, VStoreError};

/// Validate one contiguous segment range shared by ingest and query
/// requests.
fn validate_range(what: &str, first_segment: u64, count: u64) -> Result<()> {
    if count == 0 {
        return Err(VStoreError::invalid_argument(format!(
            "{what} covers zero segments (set .segments(n) with n >= 1)"
        )));
    }
    if first_segment.checked_add(count).is_none() {
        return Err(VStoreError::invalid_argument(format!(
            "{what} segment range {first_segment}+{count} overflows u64"
        )));
    }
    Ok(())
}

/// A request to ingest a contiguous range of 8-second segments of one video
/// source into every storage format of the active configuration.
///
/// ```
/// use vstore::IngestRequest;
/// use vstore::datasets::{Dataset, VideoSource};
///
/// let source = VideoSource::new(Dataset::Jackson);
/// // Segments [8, 12) of the jackson stream.
/// let request = IngestRequest::new(&source).starting_at(8).segments(4);
/// ```
#[derive(Debug, Clone)]
pub struct IngestRequest {
    pub(crate) source: VideoSource,
    pub(crate) first_segment: u64,
    pub(crate) count: u64,
}

impl IngestRequest {
    /// A request to ingest segment 0 of `source`. Adjust the range with
    /// [`starting_at`](Self::starting_at) and [`segments`](Self::segments).
    pub fn new(source: &VideoSource) -> Self {
        IngestRequest {
            source: source.clone(),
            first_segment: 0,
            count: 1,
        }
    }

    /// First segment index of the range (default 0).
    pub fn starting_at(mut self, first_segment: u64) -> Self {
        self.first_segment = first_segment;
        self
    }

    /// Number of consecutive segments to ingest (default 1).
    pub fn segments(mut self, count: u64) -> Self {
        self.count = count;
        self
    }

    /// Check the request before it touches the runtime.
    pub fn validate(&self) -> Result<()> {
        self.source.validate()?;
        validate_range("ingest request", self.first_segment, self.count)
    }
}

/// A request to execute an operator-cascade query over stored segments of
/// one stream.
///
/// ```
/// use vstore::{QueryRequest, QuerySpec};
///
/// // Query A (Diff → specialised NN → full NN) at F1 >= 0.9 over
/// // segments [0, 4) of the jackson stream.
/// let request = QueryRequest::new("jackson", &QuerySpec::query_a(0.9)).segments(4);
/// assert!(request.validate().is_ok());
/// assert!(QueryRequest::new("", &QuerySpec::query_a(0.9)).validate().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct QueryRequest {
    pub(crate) stream: String,
    pub(crate) spec: QuerySpec,
    pub(crate) first_segment: u64,
    pub(crate) count: u64,
    /// Per-request planner override: `None` follows the session's
    /// `RuntimeOptions::query_planner` default.
    pub(crate) planner: Option<bool>,
    /// Metadata-skip threshold used when the planner runs this query.
    pub(crate) skip_threshold: f64,
}

impl QueryRequest {
    /// A request to run `spec` over segment 0 of `stream`. Adjust the range
    /// with [`starting_at`](Self::starting_at) and
    /// [`segments`](Self::segments).
    pub fn new(stream: impl Into<String>, spec: &QuerySpec) -> Self {
        QueryRequest {
            stream: stream.into(),
            spec: spec.clone(),
            first_segment: 0,
            count: 1,
            planner: None,
            skip_threshold: vstore_query::DEFAULT_SKIP_THRESHOLD,
        }
    }

    /// First segment index of the range (default 0).
    pub fn starting_at(mut self, first_segment: u64) -> Self {
        self.first_segment = first_segment;
        self
    }

    /// Number of consecutive segments to query (default 1).
    pub fn segments(mut self, count: u64) -> Self {
        self.count = count;
        self
    }

    /// Force the query planner on (`true`) or off (`false`) for this query,
    /// overriding the session's `RuntimeOptions::query_planner` default.
    /// With the planner off the query is an exact scan. See the README's
    /// query-planner section for the accuracy trade.
    pub fn with_planner(mut self, enabled: bool) -> Self {
        self.planner = Some(enabled);
        self
    }

    /// Metadata-skip threshold for planned execution (default: the diff
    /// operator's change threshold). Segments whose recorded change stays
    /// below it are skipped without being fetched; `0.0` skips only
    /// perfectly static segments. Ignored when the planner is off.
    pub fn skip_threshold(mut self, threshold: f64) -> Self {
        self.skip_threshold = threshold;
        self
    }

    /// Check the request before it touches the runtime.
    pub fn validate(&self) -> Result<()> {
        if self.stream.is_empty() {
            return Err(VStoreError::invalid_argument(
                "query request has an empty stream name",
            ));
        }
        if !self.skip_threshold.is_finite() || self.skip_threshold < 0.0 {
            return Err(VStoreError::invalid_argument(format!(
                "query request skip threshold must be finite and >= 0, got {}",
                self.skip_threshold
            )));
        }
        validate_range("query request", self.first_segment, self.count)
    }
}

/// A request to apply the active configuration's erosion plan to one stream
/// at a given video age (§4.4): the planned fraction of that age's segments
/// is deleted from every non-golden storage format.
///
/// ```
/// use vstore::ErodeRequest;
///
/// let request = ErodeRequest::new("jackson").at_age_days(3);
/// assert!(request.validate().is_ok());
/// assert!(ErodeRequest::new("").validate().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ErodeRequest {
    pub(crate) stream: String,
    pub(crate) age_days: u32,
}

impl ErodeRequest {
    /// A request to erode `stream` at age 0 days (usually a planned no-op).
    /// Set the age with [`at_age_days`](Self::at_age_days).
    pub fn new(stream: impl Into<String>) -> Self {
        ErodeRequest {
            stream: stream.into(),
            age_days: 0,
        }
    }

    /// The video age, in days, whose erosion step should be applied.
    pub fn at_age_days(mut self, age_days: u32) -> Self {
        self.age_days = age_days;
        self
    }

    /// Check the request before it touches the runtime.
    pub fn validate(&self) -> Result<()> {
        if self.stream.is_empty() {
            return Err(VStoreError::invalid_argument(
                "erode request has an empty stream name",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vstore_datasets::Dataset;

    #[test]
    fn ingest_request_defaults_and_validation() {
        let source = VideoSource::new(Dataset::Jackson);
        let req = IngestRequest::new(&source);
        assert_eq!(req.first_segment, 0);
        assert_eq!(req.count, 1);
        assert!(req.validate().is_ok());

        assert!(IngestRequest::new(&source).segments(0).validate().is_err());
        assert!(IngestRequest::new(&source)
            .starting_at(u64::MAX)
            .segments(2)
            .validate()
            .is_err());
        assert!(IngestRequest::new(&source)
            .starting_at(100)
            .segments(50)
            .validate()
            .is_ok());

        // A hand-built source is checked like one off the wire.
        let profile = Dataset::Jackson.profile();
        let unnamed = VideoSource::from_profile("", profile);
        let exploding = VideoSource::from_profile(
            "cam",
            vstore_datasets::DatasetProfile {
                object_arrivals_per_minute: 1e300,
                ..profile
            },
        );
        for bad in [unnamed, exploding] {
            let err = IngestRequest::new(&bad).validate().unwrap_err();
            assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");
        }
    }

    #[test]
    fn query_request_defaults_and_validation() {
        let spec = QuerySpec::query_a(0.9);
        let req = QueryRequest::new("jackson", &spec);
        assert_eq!(req.first_segment, 0);
        assert_eq!(req.count, 1);
        assert!(req.validate().is_ok());

        assert!(QueryRequest::new("", &spec).validate().is_err());
        assert!(QueryRequest::new("jackson", &spec)
            .segments(0)
            .validate()
            .is_err());
        assert!(QueryRequest::new("jackson", &spec)
            .starting_at(u64::MAX)
            .segments(1)
            .validate()
            .is_err());
    }

    #[test]
    fn query_request_planner_knobs() {
        let spec = QuerySpec::query_a(0.9);
        let req = QueryRequest::new("jackson", &spec);
        assert_eq!(req.planner, None);
        assert_eq!(req.skip_threshold, vstore_query::DEFAULT_SKIP_THRESHOLD);

        let req = QueryRequest::new("jackson", &spec)
            .with_planner(true)
            .skip_threshold(0.25);
        assert_eq!(req.planner, Some(true));
        assert!(req.validate().is_ok());
        assert!(QueryRequest::new("jackson", &spec)
            .with_planner(false)
            .validate()
            .is_ok());

        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(
                QueryRequest::new("jackson", &spec)
                    .skip_threshold(bad)
                    .validate()
                    .is_err(),
                "{bad} accepted"
            );
        }
    }

    #[test]
    fn erode_request_defaults_and_validation() {
        let req = ErodeRequest::new("park").at_age_days(7);
        assert_eq!(req.age_days, 7);
        assert!(req.validate().is_ok());
        assert_eq!(ErodeRequest::new("park").age_days, 0);
        assert!(ErodeRequest::new("").at_age_days(1).validate().is_err());
    }
}
