//! Typed requests/responses of the serving front end, plus their binary
//! wire codec.
//!
//! A frame is a magic, the version byte and one payload, laid out over
//! `vstore-codec`'s [`ByteWriter`]/[`ByteReader`]. Every type that crosses
//! the wire implements the crate-local [`Wire`] trait exactly once —
//! encoder and decoder side by side — and composes structurally: scalars,
//! `bool`, `String`, `Option`, `Vec`, `BTreeMap`, pairs and `Box` have one
//! impl each, payload structs list their fields, enums list their
//! variants under their tag bytes. Integers and counts are varints, `f64`s are eight little-endian
//! bytes. A malformed frame surfaces as [`VStoreError::Corruption`], never
//! a panic, and the one rule about hostile lengths — a declared element
//! count may never reserve more than the bytes left in the frame can hold
//! — is written once, in the `Vec` and `BTreeMap` impls.
//!
//! Requests validate with the same rules as the facade's
//! `IngestRequest`/`QueryRequest`/`ErodeRequest` builders, so a request
//! rejected at the handle is rejected identically at the wire.

use std::collections::BTreeMap;
use std::mem::size_of;
use vstore_codec::wire::{ByteReader, ByteWriter};
use vstore_datasets::{DatasetProfile, VideoSource};
use vstore_ingest::{ErodeReport, IngestReport, LiveStats};
use vstore_obs::metrics::{HistogramSnapshot, Metric, MetricValue, MetricsSnapshot};
use vstore_obs::trace::{TraceDump, TraceRecord, TraceSpan};
use vstore_query::{QueryResult, QuerySpec, StageReport};
use vstore_types::cast::usize_from_u64;
use vstore_types::{
    AccuracyLevel, ByteSize, CoreSeconds, FormatId, LatencyHistogram, OperatorKind, Result, Speed,
    VStoreError, VideoSeconds, HISTOGRAM_BUCKETS,
};

/// Magic of a serialized request frame ("VSRQ").
pub const REQUEST_MAGIC: u32 = 0x5653_5251;
/// Magic of a serialized response frame ("VSRS").
pub const RESPONSE_MAGIC: u32 = 0x5653_5253;
/// The one wire protocol version this build speaks. Encoders emit it and
/// the decoder accepts exactly it: this reproduction has no deployed peer
/// to stay compatible with, so a frame of any other version is rejected
/// with the typed [`VStoreError::UnsupportedVersion`] — distinguishable
/// from corruption, so a mismatched peer can say so instead of reporting
/// damaged bytes. (v6 normalised the payload layout — every integer and
/// count a varint — and retired the net-stats pair, whose tags stay
/// unassigned.)
pub const WIRE_VERSION: u8 = 6;

/// The kind of a serve request (used for routing and per-kind latency
/// accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Transcode + persist a segment range of a source.
    Ingest,
    /// Execute an operator cascade over stored segments.
    Query,
    /// Apply the erosion plan to a stream at an age.
    Erode,
    /// Fetch the aggregate live-ingest statistics.
    LiveStats,
    /// Fetch the unified metrics snapshot.
    MetricsSnapshot,
    /// Drain the request tracer's rings.
    TraceDump,
}

impl RequestKind {
    /// All kinds, in [`index`](Self::index) order.
    pub const ALL: [RequestKind; 6] = [
        RequestKind::Ingest,
        RequestKind::Query,
        RequestKind::Erode,
        RequestKind::LiveStats,
        RequestKind::MetricsSnapshot,
        RequestKind::TraceDump,
    ];

    /// This kind's position in [`Self::ALL`] — the index of its latency
    /// histogram in the server state.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            RequestKind::Ingest => "ingest",
            RequestKind::Query => "query",
            RequestKind::Erode => "erode",
            RequestKind::LiveStats => "live-stats",
            RequestKind::MetricsSnapshot => "metrics",
            RequestKind::TraceDump => "trace-dump",
        }
    }
}

/// One typed request accepted by the serving front end. The variants mirror
/// the facade's request builders one-to-one.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// Ingest `count` segments of `source` starting at `first_segment`.
    Ingest {
        /// The video source to ingest.
        source: VideoSource,
        /// First segment index of the range.
        first_segment: u64,
        /// Number of consecutive segments.
        count: u64,
    },
    /// Run `spec` over `count` segments of `stream` starting at
    /// `first_segment`.
    Query {
        /// The stream to query.
        stream: String,
        /// The operator cascade and target accuracy.
        spec: QuerySpec,
        /// First segment index of the range.
        first_segment: u64,
        /// Number of consecutive segments.
        count: u64,
    },
    /// Apply the active erosion plan to `stream` at `age_days`.
    Erode {
        /// The stream to erode.
        stream: String,
        /// The video age whose erosion step applies.
        age_days: u32,
    },
    /// Fetch the aggregate live-ingest statistics of the store (an idle
    /// default when no live ingestor has been started). The same counters
    /// travel as `vstore_live_*` rows of the metrics snapshot, which is how
    /// the net-stats pair was retired; this pair stays because `e2e_bench`
    /// — frozen by `BENCHMARK.json` — uses it as its cheapest request for
    /// the net ping. Retiring it is a benchmark change.
    LiveStats,
    /// Fetch the unified metrics snapshot: every registered stats source
    /// rendered as typed counter/gauge/histogram rows.
    MetricsSnapshot,
    /// Drain the request tracer's rings, newest `max_traces` committed
    /// traces (0 = all).
    TraceDump {
        /// Cap on returned traces; 0 returns everything in the rings.
        max_traces: u64,
    },
}

/// One typed response produced by the serving front end.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResponse {
    /// A successful ingest.
    Ingest(IngestReport),
    /// A successful query.
    Query(QueryResult),
    /// A successful erosion: what the step deleted vs demoted.
    Erode(ErodeReport),
    /// The request failed; the error crossed the wire as a [`RemoteError`].
    Error(RemoteError),
    /// The store's aggregate live-ingest statistics (boxed: the lag
    /// histogram makes this by far the largest variant).
    LiveStats(Box<LiveStats>),
    /// The unified metrics snapshot.
    Metrics(MetricsSnapshot),
    /// The request tracer's drained rings.
    TraceDump(Box<TraceDump>),
}

impl ServeResponse {
    /// `true` when the response carries an error.
    #[must_use]
    pub fn is_error(&self) -> bool {
        matches!(self, ServeResponse::Error(_))
    }
}

/// The error classes a [`RemoteError`] distinguishes: every
/// [`VStoreError`] variant plus [`Panicked`](ErrorCode::Panicked) for a
/// request whose worker panicked (the connection's request failed; the
/// server kept serving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ErrorCode {
    Io,
    Corruption,
    NotFound,
    FidelityUnsatisfiable,
    BudgetUnsatisfiable,
    AccuracyUnreachable,
    InvalidArgument,
    InvalidState,
    Busy,
    Panicked,
}

impl ErrorCode {
    /// This code's wire tag — its position in [`Self::ALL`].
    pub fn wire_tag(self) -> u8 {
        self as u8
    }

    /// All codes, indexed by their wire tag.
    pub const ALL: [ErrorCode; 10] = [
        ErrorCode::Io,
        ErrorCode::Corruption,
        ErrorCode::NotFound,
        ErrorCode::FidelityUnsatisfiable,
        ErrorCode::BudgetUnsatisfiable,
        ErrorCode::AccuracyUnreachable,
        ErrorCode::InvalidArgument,
        ErrorCode::InvalidState,
        ErrorCode::Busy,
        ErrorCode::Panicked,
    ];
}

/// A [`VStoreError`] as it crosses the wire: the error class plus its
/// message. `PartialEq` so parity tests can compare error responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteError {
    /// The error class.
    pub code: ErrorCode,
    /// The error message.
    pub message: String,
}

impl RemoteError {
    /// Wrap a request-execution error for the wire.
    pub fn from_error(err: &VStoreError) -> Self {
        let code = match err {
            VStoreError::Io(_) => ErrorCode::Io,
            VStoreError::Corruption(_) => ErrorCode::Corruption,
            VStoreError::NotFound(_) => ErrorCode::NotFound,
            VStoreError::FidelityUnsatisfiable(_) => ErrorCode::FidelityUnsatisfiable,
            VStoreError::BudgetUnsatisfiable(_) => ErrorCode::BudgetUnsatisfiable,
            VStoreError::AccuracyUnreachable(_) => ErrorCode::AccuracyUnreachable,
            VStoreError::InvalidArgument(_) => ErrorCode::InvalidArgument,
            VStoreError::InvalidState(_) => ErrorCode::InvalidState,
            VStoreError::Busy(_) => ErrorCode::Busy,
            // A version mismatch reaching request execution means the
            // frame's bytes cannot be interpreted — corruption-class on
            // the wire, with the version detail kept in the message.
            VStoreError::UnsupportedVersion { .. } => ErrorCode::Corruption,
        };
        RemoteError {
            code,
            message: err.to_string(),
        }
    }

    /// Record a caught worker panic.
    pub fn from_panic(message: &str) -> Self {
        RemoteError {
            code: ErrorCode::Panicked,
            message: format!("request worker panicked: {message}"),
        }
    }

    /// Rebuild a client-side [`VStoreError`] (a panic surfaces as
    /// [`VStoreError::InvalidState`]).
    pub fn into_error(self) -> VStoreError {
        match self.code {
            ErrorCode::Io => VStoreError::Io(std::io::Error::other(self.message)),
            ErrorCode::Corruption => VStoreError::Corruption(self.message),
            ErrorCode::NotFound => VStoreError::NotFound(self.message),
            ErrorCode::FidelityUnsatisfiable => VStoreError::FidelityUnsatisfiable(self.message),
            ErrorCode::BudgetUnsatisfiable => VStoreError::BudgetUnsatisfiable(self.message),
            ErrorCode::AccuracyUnreachable => VStoreError::AccuracyUnreachable(self.message),
            ErrorCode::InvalidArgument => VStoreError::InvalidArgument(self.message),
            ErrorCode::InvalidState | ErrorCode::Panicked => {
                VStoreError::InvalidState(self.message)
            }
            ErrorCode::Busy => VStoreError::Busy(self.message),
        }
    }
}

impl ServeRequest {
    /// The request's kind.
    #[must_use]
    pub fn kind(&self) -> RequestKind {
        match self {
            ServeRequest::Ingest { .. } => RequestKind::Ingest,
            ServeRequest::Query { .. } => RequestKind::Query,
            ServeRequest::Erode { .. } => RequestKind::Erode,
            ServeRequest::LiveStats => RequestKind::LiveStats,
            ServeRequest::MetricsSnapshot => RequestKind::MetricsSnapshot,
            ServeRequest::TraceDump { .. } => RequestKind::TraceDump,
        }
    }

    /// Validate the request with the facade builders' rules, **before** it
    /// touches the queue: a malformed request is rejected at submission,
    /// without spending a queue slot or a worker.
    pub fn validate(&self) -> Result<()> {
        let range = |what: &str, first: u64, count: u64| {
            if count == 0 {
                return Err(VStoreError::invalid_argument(format!(
                    "{what} covers zero segments"
                )));
            }
            if first.checked_add(count).is_none() {
                return Err(VStoreError::invalid_argument(format!(
                    "{what} segment range {first}+{count} overflows u64"
                )));
            }
            Ok(())
        };
        match self {
            ServeRequest::Ingest {
                source,
                first_segment,
                count,
            } => {
                source.validate()?;
                range("ingest request", *first_segment, *count)
            }
            ServeRequest::Query {
                stream,
                first_segment,
                count,
                ..
            } => {
                if stream.is_empty() {
                    return Err(VStoreError::invalid_argument(
                        "query request has an empty stream name",
                    ));
                }
                range("query request", *first_segment, *count)
            }
            ServeRequest::Erode { stream, .. } => {
                if stream.is_empty() {
                    return Err(VStoreError::invalid_argument(
                        "erode request has an empty stream name",
                    ));
                }
                Ok(())
            }
            ServeRequest::LiveStats
            | ServeRequest::MetricsSnapshot
            | ServeRequest::TraceDump { .. } => Ok(()),
        }
    }

    /// Serialize the request to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(64);
        self.write_wire(&mut w);
        w.into_bytes()
    }

    /// Serialize the request into a caller-supplied writer — the pooled
    /// (zero-allocation) encode path of the socket front end. Byte-for-byte
    /// identical to [`to_wire`](Self::to_wire).
    pub fn write_wire(&self, w: &mut ByteWriter) {
        write_frame(w, REQUEST_MAGIC, self);
    }

    /// Deserialize a request from wire bytes.
    pub fn from_wire(bytes: &[u8]) -> Result<ServeRequest> {
        read_frame(bytes, REQUEST_MAGIC, "request")
    }
}

impl ServeResponse {
    /// Serialize the response to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(64);
        self.write_wire(&mut w);
        w.into_bytes()
    }

    /// Serialize the response into a caller-supplied writer — the pooled
    /// (zero-allocation) encode path of the socket front end. Byte-for-byte
    /// identical to [`to_wire`](Self::to_wire).
    pub fn write_wire(&self, w: &mut ByteWriter) {
        write_frame(w, RESPONSE_MAGIC, self);
    }

    /// Deserialize a response from wire bytes.
    pub fn from_wire(bytes: &[u8]) -> Result<ServeResponse> {
        read_frame(bytes, RESPONSE_MAGIC, "response")
    }
}

// ---------------------------------------------------------------------
// The frame: magic, version, one payload, nothing after it
// ---------------------------------------------------------------------

fn write_frame<T: Wire>(w: &mut ByteWriter, magic: u32, payload: &T) {
    w.put_u32(magic);
    w.put_u8(WIRE_VERSION);
    payload.put(w);
}

fn read_frame<T: Wire>(bytes: &[u8], magic: u32, what: &str) -> Result<T> {
    let mut r = ByteReader::new(bytes);
    let found = r.get_u32()?;
    if found != magic {
        return Err(VStoreError::corruption(format!(
            "bad serve {what} magic {found:#x}"
        )));
    }
    // Not corruption: the frame may be perfectly well-formed, just written
    // by a build that speaks another version.
    let version = r.get_u8()?;
    if version != WIRE_VERSION {
        return Err(VStoreError::unsupported_version(version, WIRE_VERSION));
    }
    let payload = T::get(&mut r)?;
    if !r.is_exhausted() {
        return Err(VStoreError::corruption(format!(
            "trailing garbage after serve {what} ({} bytes)",
            r.remaining()
        )));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------
// The codec idiom
// ---------------------------------------------------------------------

/// A type that crosses the serve wire: its encoder and its decoder, in one
/// place. `get(put(x)) == x` for every value, consuming exactly the bytes
/// `put` wrote (pinned per type by the round-trip properties below), and
/// `get` on arbitrary bytes returns a typed error, never panics.
trait Wire: Sized {
    /// Append this value's encoding.
    fn put(&self, w: &mut ByteWriter);

    /// Decode one value from the front of `r`.
    fn get(r: &mut ByteReader<'_>) -> Result<Self>;
}

/// Read a container's element count. No impl encodes to nothing, so more
/// elements than bytes left is a lie ([`ByteReader::get_count`]).
fn bounded_len(r: &mut ByteReader<'_>) -> Result<usize> {
    r.get_count(1, "element")
}

impl Wire for u64 {
    fn put(&self, w: &mut ByteWriter) {
        w.put_varint(*self);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_varint()
    }
}

impl Wire for u32 {
    fn put(&self, w: &mut ByteWriter) {
        w.put_varint(u64::from(*self));
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let value = r.get_varint()?;
        u32::try_from(value)
            .map_err(|_| VStoreError::corruption(format!("serve frame u32 field holds {value}")))
    }
}

impl Wire for usize {
    fn put(&self, w: &mut ByteWriter) {
        w.put_varint(*self as u64);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        usize_from_u64(r.get_varint()?, "serve frame count field")
    }
}

impl Wire for f64 {
    fn put(&self, w: &mut ByteWriter) {
        w.put_f64(*self);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_f64()
    }
}

impl Wire for bool {
    fn put(&self, w: &mut ByteWriter) {
        w.put_u8(u8::from(*self));
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(VStoreError::corruption(format!("bad bool byte {tag}"))),
        }
    }
}

impl Wire for String {
    fn put(&self, w: &mut ByteWriter) {
        w.put_bytes(self.as_bytes());
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        // `get_bytes` checks the declared length against what remains.
        String::from_utf8(r.get_bytes()?.to_vec())
            .map_err(|_| VStoreError::corruption("serve frame string is not UTF-8"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(value) => {
                w.put_u8(1);
                value.put(w);
            }
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            tag => Err(VStoreError::corruption(format!("bad option byte {tag}"))),
        }
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut ByteWriter) {
        (**self).put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        T::get(r).map(Box::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut ByteWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let len = bounded_len(r)?;
        // Reserve no more bytes than the frame has left; a vector of
        // elements smaller on the wire than in memory grows as it fills.
        let mut items = Vec::with_capacity(len.min(r.remaining() / size_of::<T>().max(1)));
        for _ in 0..len {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, w: &mut ByteWriter) {
        w.put_varint(self.len() as u64);
        for (key, value) in self {
            key.put(w);
            value.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let len = bounded_len(r)?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            map.insert(K::get(r)?, V::get(r)?);
        }
        Ok(map)
    }
}

/// `impl Wire` for a struct whose fields all are `Wire`: the fields, in
/// wire order. Naming every field in the constructor is what keeps the
/// list complete — a field added to the struct does not compile until it
/// is given its place here. The same list drives the type's generator in
/// the round-trip properties (`tests::Arb`), so a field is never encoded
/// without being exercised.
macro_rules! wire_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, w: &mut ByteWriter) {
                $(self.$field.put(w);)+
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self> {
                Ok(Self { $($field: Wire::get(r)?),+ })
            }
        }
        #[cfg(test)]
        impl tests::Arb for $ty {
            fn arb(g: &mut tests::Gen) -> Self {
                Self { $($field: tests::Arb::arb(g)),+ }
            }
        }
    };
}

/// `impl Wire` for a unit newtype (`struct Meters(pub f64)`): its content.
macro_rules! wire_newtype {
    ($($ty:ident($inner:ty)),+ $(,)?) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut ByteWriter) {
                self.0.put(w);
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self> {
                <$inner>::get(r).map($ty)
            }
        }
        #[cfg(test)]
        impl tests::Arb for $ty {
            fn arb(g: &mut tests::Gen) -> Self {
                $ty(tests::Arb::arb(g))
            }
        }
    )+};
}

/// `impl Wire` for a fieldless enum with an `ALL` table: its position
/// there, as one byte.
macro_rules! wire_enum {
    ($ty:ty, $what:literal) => {
        impl Wire for $ty {
            fn put(&self, w: &mut ByteWriter) {
                // A value missing from its own table encodes as a tag the
                // decoder rejects.
                let tag = <$ty>::ALL.iter().position(|v| v == self);
                w.put_u8(tag.and_then(|t| u8::try_from(t).ok()).unwrap_or(u8::MAX));
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self> {
                let tag = r.get_u8()?;
                <$ty>::ALL.get(usize::from(tag)).copied().ok_or_else(|| {
                    VStoreError::corruption(format!(concat!("unknown ", $what, " tag {}"), tag))
                })
            }
        }
        #[cfg(test)]
        impl tests::Arb for $ty {
            fn arb(g: &mut tests::Gen) -> Self {
                g.pick(&<$ty>::ALL)
            }
        }
    };
}

/// `impl Wire` for an enum whose variants carry `Wire` fields: a table of
/// `tag => Variant { fields in wire order }` (`{ 0 }` for a tuple variant's
/// payload, `{}` for a unit variant). The tag `match` is exhaustive, so a
/// variant missing from the table does not compile, and the table also
/// drives the generators (`tests::Arb`, `tests::EachVariant`), so a
/// variant is never encoded without being exercised.
macro_rules! wire_variants {
    ($ty:ident, $what:literal, {
        $($tag:literal => $variant:ident { $($field:tt),* }),+ $(,)?
    }) => {
        impl Wire for $ty {
            fn put(&self, w: &mut ByteWriter) {
                w.put_u8(match self {
                    $($ty::$variant { .. } => $tag,)+
                });
                // One variant's patterns match; its fields go out in order.
                $($(if let $ty::$variant { $field: field, .. } = self {
                    field.put(w);
                })*)+
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self> {
                match r.get_u8()? {
                    $($tag => Ok($ty::$variant { $($field: Wire::get(r)?),* }),)+
                    tag => Err(VStoreError::corruption(format!(
                        concat!("unknown ", $what, " tag {}"),
                        tag
                    ))),
                }
            }
        }
        #[cfg(test)]
        impl tests::EachVariant for $ty {
            fn each_variant(g: &mut tests::Gen) -> Vec<Self> {
                vec![$($ty::$variant { $($field: tests::Arb::arb(g)),* }),+]
            }
        }
    };
}

// ---------------------------------------------------------------------
// The payload types, one impl each
// ---------------------------------------------------------------------

wire_newtype!(
    VideoSeconds(f64),
    CoreSeconds(f64),
    Speed(f64),
    ByteSize(u64),
    FormatId(u32),
);
wire_enum!(OperatorKind, "operator");
wire_enum!(ErrorCode, "serve error code");

impl Wire for AccuracyLevel {
    fn put(&self, w: &mut ByteWriter) {
        self.value().put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        // AccuracyLevel stores thousandths, so value() → new() round-trips
        // exactly.
        f64::get(r).map(AccuracyLevel::new)
    }
}

impl Wire for LatencyHistogram {
    fn put(&self, w: &mut ByteWriter) {
        let (buckets, count, total_us, max_us) = self.to_parts();
        for bucket in buckets {
            bucket.put(w);
        }
        count.put(w);
        total_us.put(w);
        max_us.put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for bucket in &mut buckets {
            *bucket = u64::get(r)?;
        }
        Ok(LatencyHistogram::from_parts(
            buckets,
            u64::get(r)?,
            u64::get(r)?,
            u64::get(r)?,
        ))
    }
}

wire_struct!(DatasetProfile {
    seed,
    motion_intensity,
    object_arrivals_per_minute,
    mean_object_height,
    object_height_spread,
    vehicle_fraction,
    plate_visible_fraction,
    background_texture,
    mean_dwell_seconds,
});

impl Wire for VideoSource {
    fn put(&self, w: &mut ByteWriter) {
        w.put_bytes(self.name().as_bytes());
        self.profile().put(w);
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self> {
        let name = String::get(r)?;
        Ok(VideoSource::from_profile(name, DatasetProfile::get(r)?))
    }
}

wire_struct!(QuerySpec {
    name,
    cascade,
    accuracy
});
wire_struct!(IngestReport {
    video,
    segments_written,
    transcode_work,
    modeled_bytes,
    actual_bytes,
});
wire_struct!(ErodeReport {
    age_days,
    segments_deleted,
    deleted_bytes,
    segments_demoted,
    demoted_bytes,
});
wire_struct!(StageReport {
    op,
    segments_processed,
    segments_passed,
    frames_consumed,
    processing_seconds,
    fallback_segments,
    planned_selectivity,
});
wire_struct!(QueryResult {
    query,
    video,
    speed,
    positive_frames,
    stages,
    bytes_read,
    segments_skipped,
});
wire_struct!(LiveStats {
    workers,
    queue_capacity,
    queue_depth,
    peak_queue_depth,
    offered,
    accepted,
    shed,
    completed,
    failed,
    panics,
    current_level,
    max_level,
    step_downs,
    step_ups,
    degraded_segments,
    video,
    lag,
    per_source,
});
wire_struct!(HistogramSnapshot {
    bounds,
    counts,
    count,
    sum,
    max
});
wire_struct!(Metric {
    name,
    help,
    labels,
    value
});
wire_struct!(MetricsSnapshot { metrics });
wire_struct!(TraceSpan {
    name,
    detail,
    start_us,
    dur_us,
    tid
});
wire_struct!(TraceRecord {
    trace_id,
    root,
    start_us,
    dur_us,
    sampled,
    slow,
    spans,
});
wire_struct!(TraceDump {
    records,
    dropped_spans
});
wire_struct!(RemoteError { code, message });

wire_variants!(MetricValue, "metric value", {
    0 => Counter { 0 },
    1 => Gauge { 0 },
    2 => Histogram { 0 },
});
wire_variants!(ServeRequest, "serve request", {
    0 => Ingest { source, first_segment, count },
    1 => Query { stream, spec, first_segment, count },
    2 => Erode { stream, age_days },
    3 => LiveStats {},
    // 4 was the net-stats request, retired in v6. A tag keeps meaning what
    // it always meant, so it stays unassigned.
    5 => MetricsSnapshot {},
    6 => TraceDump { max_traces },
});
wire_variants!(ServeResponse, "serve response", {
    0 => Ingest { 0 },
    1 => Query { 0 },
    2 => Erode { 0 },
    3 => Error { 0 },
    4 => LiveStats { 0 },
    // 5 was the net-stats response.
    6 => Metrics { 0 },
    7 => TraceDump { 0 },
});

#[cfg(test)]
mod tests {
    use super::*;
    use vstore_datasets::Dataset;
    use vstore_types::check::check;
    pub(super) use vstore_types::check::Gen;

    // -----------------------------------------------------------------
    // Generators: the test-side twin of `Wire`
    // -----------------------------------------------------------------

    /// An arbitrary value of a wire type. Composes the way [`Wire`] does,
    /// and the `wire_*!` macros emit it from the same field lists, so the
    /// properties below exercise exactly what the codec encodes.
    pub(super) trait Arb: Sized {
        fn arb(g: &mut Gen) -> Self;
    }

    impl Arb for u64 {
        /// Both ends of the varint: one-byte values and full-width ones.
        fn arb(g: &mut Gen) -> Self {
            if bool::arb(g) {
                g.below(300)
            } else {
                g.next_u64()
            }
        }
    }
    impl Arb for u32 {
        fn arb(g: &mut Gen) -> Self {
            u64::arb(g) as u32
        }
    }
    impl Arb for usize {
        fn arb(g: &mut Gen) -> Self {
            u64::arb(g) as usize
        }
    }
    impl Arb for f64 {
        /// Finite, so that `==` can judge the round trip.
        fn arb(g: &mut Gen) -> Self {
            (g.unit() - 0.5) * 2e12
        }
    }
    impl Arb for bool {
        fn arb(g: &mut Gen) -> Self {
            g.below(2) == 1
        }
    }
    impl Arb for String {
        /// One- to three-byte characters, empty strings included.
        fn arb(g: &mut Gen) -> Self {
            (0..g.len(8))
                .map(|_| g.pick(&['a', 'z', '_', 'é', '☃']))
                .collect()
        }
    }
    impl<T: Arb> Arb for Option<T> {
        fn arb(g: &mut Gen) -> Self {
            bool::arb(g).then(|| T::arb(g))
        }
    }
    impl<T: Arb> Arb for Box<T> {
        fn arb(g: &mut Gen) -> Self {
            Box::new(T::arb(g))
        }
    }
    impl<A: Arb, B: Arb> Arb for (A, B) {
        fn arb(g: &mut Gen) -> Self {
            (A::arb(g), B::arb(g))
        }
    }
    impl<T: Arb> Arb for Vec<T> {
        fn arb(g: &mut Gen) -> Self {
            (0..g.len(4)).map(|_| T::arb(g)).collect()
        }
    }
    impl<K: Arb + Ord, V: Arb> Arb for BTreeMap<K, V> {
        fn arb(g: &mut Gen) -> Self {
            Vec::arb(g).into_iter().collect()
        }
    }

    impl Arb for AccuracyLevel {
        fn arb(g: &mut Gen) -> Self {
            AccuracyLevel::new((1 + g.below(1000)) as f64 / 1000.0)
        }
    }
    impl Arb for LatencyHistogram {
        fn arb(g: &mut Gen) -> Self {
            let buckets = std::array::from_fn(|_| u64::arb(g));
            LatencyHistogram::from_parts(buckets, u64::arb(g), u64::arb(g), u64::arb(g))
        }
    }
    impl Arb for VideoSource {
        fn arb(g: &mut Gen) -> Self {
            VideoSource::from_profile(String::arb(g), DatasetProfile::arb(g))
        }
    }

    /// One value of every variant of an enum, in tag order — emitted by
    /// `wire_variants!` from the codec's own table.
    pub(super) trait EachVariant: Sized {
        fn each_variant(g: &mut Gen) -> Vec<Self>;
    }

    impl Arb for MetricValue {
        fn arb(g: &mut Gen) -> Self {
            let mut all = Self::each_variant(g);
            all.swap_remove(g.below(all.len() as u64) as usize)
        }
    }

    // -----------------------------------------------------------------
    // Round trips
    // -----------------------------------------------------------------

    /// `get(put(x)) == x`, consuming exactly what `put` wrote.
    fn round_trips<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let mut w = ByteWriter::new();
        value.put(&mut w);
        let bytes = w.into_bytes();
        assert!(!bytes.is_empty(), "{value:?} encodes to nothing");
        let mut r = ByteReader::new(&bytes);
        assert_eq!(&T::get(&mut r).unwrap(), value);
        assert!(r.is_exhausted(), "{} bytes left over", r.remaining());
    }

    #[test]
    fn structural_impls_round_trip() {
        let gen = |g: &mut Gen| {
            (
                <(u32, (u64, usize))>::arb(g),
                <(f64, (bool, String))>::arb(g),
                <Option<Box<String>>>::arb(g),
                <Vec<(String, f64)>>::arb(g),
                <BTreeMap<String, Vec<u64>>>::arb(g),
            )
        };
        check(64, 1, gen, |(ints, scalars, option, vec, map)| {
            round_trips(&ints);
            round_trips(&scalars);
            round_trips(&option);
            round_trips(&vec);
            round_trips(&map);
        });
    }

    /// One 64-case round-trip property per payload type, each on its own
    /// seed.
    macro_rules! round_trip_properties {
        ($($name:ident: $ty:ty = $seed:literal),+ $(,)?) => {$(
            #[test]
            fn $name() {
                check(64, $seed, <$ty>::arb, |x| round_trips(&x));
            }
        )+};
    }

    round_trip_properties! {
        video_source_round_trips: VideoSource = 2,
        query_spec_round_trips: QuerySpec = 3,
        ingest_report_round_trips: IngestReport = 4,
        erode_report_round_trips: ErodeReport = 5,
        stage_report_round_trips: StageReport = 6,
        query_result_round_trips: QueryResult = 7,
        latency_histogram_round_trips: LatencyHistogram = 8,
        live_stats_round_trips: LiveStats = 9,
        metric_value_round_trips: MetricValue = 10,
        metric_round_trips: Metric = 11,
        metrics_snapshot_round_trips: MetricsSnapshot = 12,
        trace_span_round_trips: TraceSpan = 13,
        trace_record_round_trips: TraceRecord = 14,
        trace_dump_round_trips: TraceDump = 15,
        remote_error_round_trips: RemoteError = 16,
    }

    /// Every request kind: as a payload, as a frame, and byte-identical
    /// when the decoded request is encoded again.
    #[test]
    fn requests_round_trip() {
        check(64, 17, ServeRequest::each_variant, |requests| {
            for request in requests {
                round_trips(&request);
                let bytes = request.to_wire();
                let decoded = ServeRequest::from_wire(&bytes).unwrap();
                assert_eq!(decoded, request);
                assert_eq!(decoded.to_wire(), bytes);
            }
        });
    }

    /// Every response variant, likewise.
    #[test]
    fn responses_round_trip() {
        check(64, 18, ServeResponse::each_variant, |responses| {
            for response in responses {
                round_trips(&response);
                let bytes = response.to_wire();
                let decoded = ServeResponse::from_wire(&bytes).unwrap();
                assert_eq!(decoded, response);
                assert_eq!(decoded.to_wire(), bytes);
            }
        });
    }

    /// One of every request and response variant.
    fn every_variant(g: &mut Gen) -> (Vec<ServeRequest>, Vec<ServeResponse>) {
        (
            ServeRequest::each_variant(g),
            ServeResponse::each_variant(g),
        )
    }

    /// `write_wire` into a recycled buffer is byte-identical to
    /// `to_wire`, for every variant.
    #[test]
    fn write_wire_matches_to_wire_on_a_recycled_buffer() {
        check(64, 19, every_variant, |(requests, responses)| {
            for request in requests {
                let mut w = ByteWriter::from_vec(vec![0xAA; 256]);
                request.write_wire(&mut w);
                assert_eq!(w.into_bytes(), request.to_wire());
            }
            for response in responses {
                let mut w = ByteWriter::from_vec(vec![0xAA; 256]);
                response.write_wire(&mut w);
                assert_eq!(w.into_bytes(), response.to_wire());
            }
        });
    }

    /// The table generates every variant once, under the tag it always had
    /// (4 and 5 were the net-stats pair), and every request kind is there.
    #[test]
    fn every_variant_is_generated_under_its_tag() {
        check(1, 1, every_variant, |(requests, responses)| {
            let kinds: Vec<RequestKind> = requests.iter().map(ServeRequest::kind).collect();
            assert_eq!(kinds, RequestKind::ALL);
            let tags: Vec<u8> = requests.iter().map(|r| r.to_wire()[5]).collect();
            assert_eq!(tags, [0, 1, 2, 3, 5, 6]);
            let tags: Vec<u8> = responses.iter().map(|r| r.to_wire()[5]).collect();
            assert_eq!(tags, [0, 1, 2, 3, 4, 6, 7]);
        });
    }

    // -----------------------------------------------------------------
    // Hostile bytes
    // -----------------------------------------------------------------

    /// What a decoder may say about bytes it does not like.
    fn typed<T: std::fmt::Debug>(result: Result<T>) {
        if let Err(err) = result {
            assert!(
                matches!(
                    err,
                    VStoreError::Corruption(_) | VStoreError::UnsupportedVersion { .. }
                ),
                "{err}"
            );
        }
    }

    /// Every proper prefix of a valid frame is an error; every single-byte
    /// mutation is `Ok` or a typed error. Neither panics.
    fn survives_damage<T: std::fmt::Debug>(frame: &[u8], decode: fn(&[u8]) -> Result<T>) {
        for cut in 0..frame.len() {
            assert!(decode(&frame[..cut]).is_err(), "prefix {cut} decoded");
            typed(decode(&frame[..cut]));
        }
        let mut bad = frame.to_vec();
        for at in 0..frame.len() {
            for delta in 1..=u8::MAX {
                bad[at] = frame[at].wrapping_add(delta);
                typed(decode(&bad));
            }
            bad[at] = frame[at];
        }
    }

    #[test]
    fn damaged_frames_of_every_variant_never_panic() {
        check(4, 20, every_variant, |(requests, responses)| {
            for request in requests {
                survives_damage(&request.to_wire(), ServeRequest::from_wire);
            }
            for response in responses {
                survives_damage(&response.to_wire(), ServeResponse::from_wire);
            }
        });
    }

    /// Arbitrary bytes, bare and behind a valid header and tag (so the
    /// payload decoders are reached, not just the magic check).
    #[test]
    fn arbitrary_bytes_never_panic() {
        let gen = |g: &mut Gen| {
            let tag = g.below(9) as u8;
            let bytes: Vec<u8> = (0..g.len(95)).map(|_| g.next_u64() as u8).collect();
            (tag, bytes)
        };
        check(2048, 21, gen, |(tag, bytes)| {
            typed(ServeRequest::from_wire(&bytes));
            typed(ServeResponse::from_wire(&bytes));
            for (magic, is_request) in [(REQUEST_MAGIC, true), (RESPONSE_MAGIC, false)] {
                let mut w = ByteWriter::new();
                w.put_u32(magic);
                w.put_u8(WIRE_VERSION);
                w.put_u8(tag);
                w.put_raw(&bytes);
                let frame = w.into_bytes();
                if is_request {
                    typed(ServeRequest::from_wire(&frame));
                } else {
                    typed(ServeResponse::from_wire(&frame));
                }
            }
        });
    }

    /// A frame of at most 64 bytes may declare any count it likes: every
    /// container refuses it on what the frame can hold, before reserving
    /// (a `with_capacity` on these counts would abort the test) and before
    /// looping.
    #[test]
    fn huge_declared_counts_fail_fast_without_a_reservation() {
        fn refuses<T: Wire + std::fmt::Debug>(declared: u64) {
            let mut w = ByteWriter::new();
            w.put_varint(declared);
            w.put_raw(&[0u8; 50]);
            let bytes = w.into_bytes();
            assert!(bytes.len() <= 64);
            let err = T::get(&mut ByteReader::new(&bytes)).unwrap_err();
            assert!(err.to_string().contains("declares"), "{err}");
        }
        for declared in [51, 1 << 20, 1 << 40, 1 << 60, u64::MAX] {
            refuses::<Vec<u64>>(declared);
            refuses::<Vec<OperatorKind>>(declared);
            refuses::<Vec<(String, String)>>(declared);
            refuses::<Vec<TraceRecord>>(declared);
            refuses::<BTreeMap<String, u64>>(declared);
            // Payloads whose first field is the container.
            refuses::<MetricsSnapshot>(declared);
            refuses::<TraceDump>(declared);
        }
        // Fifty elements do fit in fifty bytes.
        let mut bytes = vec![50u8];
        bytes.extend([0u8; 50]);
        assert_eq!(
            Vec::<u64>::get(&mut ByteReader::new(&bytes)).unwrap(),
            [0; 50]
        );
        // The same through the front door: a query request whose cascade
        // declares 2^60 operators.
        let mut w = ByteWriter::new();
        w.put_u32(REQUEST_MAGIC);
        w.put_raw(&[WIRE_VERSION, 1, 0, 0]); // version, tag, stream "", spec name ""
        w.put_varint(1 << 60);
        assert!(is_corruption(ServeRequest::from_wire(&w.into_bytes())));
    }

    // -----------------------------------------------------------------
    // The frame
    // -----------------------------------------------------------------

    /// One protocol version: every other version byte — older, newer — is
    /// the typed mismatch, carrying what was found and what this build
    /// speaks.
    #[test]
    fn only_the_current_version_decodes() {
        assert_eq!(WIRE_VERSION, 6);
        let request = ServeRequest::Query {
            stream: "jackson".into(),
            spec: QuerySpec::query_a(0.8),
            first_segment: 2,
            count: 4,
        };
        let response = ServeResponse::LiveStats(Box::default());
        let (mut request_bytes, mut response_bytes) = (request.to_wire(), response.to_wire());
        assert_eq!(request_bytes[4], WIRE_VERSION);
        for version in (0..=u8::MAX).filter(|&v| v != WIRE_VERSION) {
            request_bytes[4] = version;
            response_bytes[4] = version;
            for err in [
                ServeRequest::from_wire(&request_bytes).unwrap_err(),
                ServeResponse::from_wire(&response_bytes).unwrap_err(),
            ] {
                assert!(
                    matches!(
                        err,
                        VStoreError::UnsupportedVersion { got, expected: WIRE_VERSION }
                            if got == version
                    ),
                    "version {version}: {err}"
                );
            }
        }
        request_bytes[4] = WIRE_VERSION;
        assert_eq!(ServeRequest::from_wire(&request_bytes).unwrap(), request);
    }

    fn is_corruption<T>(result: Result<T>) -> bool {
        matches!(result, Err(VStoreError::Corruption(_)))
    }

    #[test]
    fn malformed_frames_are_corruption_not_panics() {
        let request = ServeRequest::Erode {
            stream: "x".into(),
            age_days: 1,
        };
        let good = request.to_wire();
        let damaged = |damage: fn(&mut Vec<u8>)| {
            let mut bad = good.clone();
            damage(&mut bad);
            ServeRequest::from_wire(&bad)
        };
        assert!(is_corruption(damaged(|bad| bad[0] ^= 0xFF)), "bad magic");
        assert!(
            is_corruption(damaged(|bad| bad.truncate(bad.len() - 1))),
            "truncated"
        );
        assert!(
            is_corruption(damaged(|bad| bad.push(0))),
            "trailing garbage"
        );
        // Unknown tags, the retired net-stats pair's included.
        assert!(is_corruption(damaged(|bad| bad[5] = 4)));
        assert!(is_corruption(damaged(|bad| bad[5] = 7)));
        assert!(is_corruption(damaged(|bad| bad[5] = 255)));
        let mut bad = ServeResponse::Erode(ErodeReport::default()).to_wire();
        bad[5] = 5;
        assert!(is_corruption(ServeResponse::from_wire(&bad)));
        // A request frame is not a response frame.
        assert!(is_corruption(ServeResponse::from_wire(&good)));
    }

    #[test]
    fn unknown_operator_and_error_tags_are_rejected() {
        let first_unknown = |known: usize| u8::try_from(known).unwrap();
        for tag in [first_unknown(OperatorKind::ALL.len()), 200, u8::MAX] {
            assert!(is_corruption(OperatorKind::get(&mut ByteReader::new(&[
                tag
            ]))));
        }
        for tag in [first_unknown(ErrorCode::ALL.len()), 250, u8::MAX] {
            assert!(is_corruption(ErrorCode::get(&mut ByteReader::new(&[tag]))));
        }
        // And inside a frame: an error response's code byte follows its tag.
        let mut bad = ServeResponse::Error(RemoteError::from_panic("m")).to_wire();
        assert_eq!(bad[6], ErrorCode::Panicked.wire_tag());
        bad[6] = 250;
        assert!(is_corruption(ServeResponse::from_wire(&bad)));
    }

    // -----------------------------------------------------------------
    // Validation and error mapping
    // -----------------------------------------------------------------

    #[test]
    fn validation_mirrors_the_facade_builders() {
        let source = VideoSource::new(Dataset::Jackson);
        let ingest = |source: VideoSource, first_segment, count| ServeRequest::Ingest {
            source,
            first_segment,
            count,
        };
        assert!(ingest(source.clone(), 0, 0).validate().is_err());
        assert!(ingest(source.clone(), u64::MAX, 2).validate().is_err());
        assert!(ServeRequest::Query {
            stream: String::new(),
            spec: QuerySpec::query_a(0.9),
            first_segment: 0,
            count: 1,
        }
        .validate()
        .is_err());
        assert!(ServeRequest::Erode {
            stream: String::new(),
            age_days: 0,
        }
        .validate()
        .is_err());
        assert!(ServeRequest::Erode {
            stream: "ok".into(),
            age_days: 3,
        }
        .validate()
        .is_ok());

        // The source is the one structured value a stranger chooses: every
        // shipped profile (and the bench's renamed camera) passes, an
        // unnamed stream or a profile that is not finite, out of range or
        // slot-exploding is refused before the queue — also when it arrives
        // as wire bytes.
        for dataset in Dataset::ALL {
            assert!(ingest(VideoSource::new(dataset), 0, 1).validate().is_ok());
        }
        let camera = |name: &str, damage: fn(&mut DatasetProfile)| {
            let mut profile = Dataset::Jackson.profile();
            damage(&mut profile);
            ingest(VideoSource::from_profile(name, profile), 0, 1)
        };
        assert!(camera("cam0", |_| ()).validate().is_ok());
        let hostile = [
            camera("", |_| ()),
            camera("cam", |p| p.motion_intensity = f64::NAN),
            camera("cam", |p| p.vehicle_fraction = 2.0),
            camera("cam", |p| p.object_arrivals_per_minute = 1e300),
            camera("cam", |p| p.object_arrivals_per_minute = 6e7),
        ];
        for request in hostile {
            let decoded = ServeRequest::from_wire(&request.to_wire()).unwrap();
            for request in [request, decoded] {
                let err = request.validate().unwrap_err();
                assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");
            }
        }
    }

    #[test]
    fn remote_errors_map_to_and_from_vstore_errors() {
        let original = VStoreError::not_found("segment 9");
        let remote = RemoteError::from_error(&original);
        assert_eq!(remote.code, ErrorCode::NotFound);
        let back = remote.into_error();
        assert!(back.is_not_found());
        assert!(back.to_string().contains("segment 9"));

        let busy = RemoteError::from_error(&VStoreError::busy("queue full"));
        assert_eq!(busy.code, ErrorCode::Busy);
        assert!(busy.into_error().is_busy());

        let panic = RemoteError::from_panic("kaboom");
        assert_eq!(panic.code, ErrorCode::Panicked);
        let err = panic.into_error();
        assert!(matches!(err, VStoreError::InvalidState(_)));
        assert!(err.to_string().contains("kaboom"));
    }
}
