//! # vstore-ingest
//!
//! The ingestion pipeline (§2.2, Figure 1 left): incoming 720p/30 fps video
//! is transcoded into every storage format of the active configuration and
//! written, as 8-second segments, into the segment store.
//!
//! What an ingest cost is in its [`IngestReport`]: the modelled
//! CPU-core-seconds spent transcoding and the modelled and actual bytes
//! written, from which experiments report the paper's per-stream figures
//! (cores of transcoding, GB/day of new video) regardless of the host
//! machine.
//!
//! The [`live`] module layers a live streaming ingestor on top: a bounded,
//! back-pressured queue of camera segments drained by background transcode
//! workers, degrading fidelity along a declared ladder when transcoding
//! cannot keep up instead of stalling the camera.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod live;
pub mod pipeline;

pub use live::{
    DegradationLadder, LiveIngestHandle, LiveIngestor, LiveProbe, LiveStats, OfferOutcome,
};
pub use pipeline::{ErodeReport, IngestReport, IngestionPipeline};
