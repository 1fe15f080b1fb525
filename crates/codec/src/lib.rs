//! # vstore-codec
//!
//! The video coding substrate: materialised frames, fidelity degradation,
//! a real block codec with GOP structure (keyframe interval, chunk-skipping
//! decode, RAW bypass), a binary segment container, and the transcoder that
//! converts ingestion-fidelity frames into arbitrary storage formats.
//!
//! The codec genuinely compresses the synthetic block planes (delta
//! prediction + literal-run entropy coding), so compression ratios, GOP
//! skipping and RAW bypass are
//! real behaviours, not constants. Throughput numbers reported by
//! experiments, however, come from the calibrated
//! [`CodingCostModel`](vstore_sim::CodingCostModel) — see "Substitutions" in
//! the repository README for the rationale.
//!
//! ## Data flow
//!
//! ```text
//! SceneFrame (datasets, ingestion fidelity)
//!                                  │ PlaneKernel: crop + box resize +
//!                                  │ quantise table, one pass, built once
//!                                  │ per clip, into one reused plane
//!                                  ▼
//!                   plane (storage fidelity)
//!                                  │ encode at once: delta against the
//!                                  │ GOP's previous frame, then literal/
//!                                  │ repeat runs; score the VSMETA entry
//!                                  │ from the same deltas
//!                                  ▼       SegmentMeta ──▶ VSMETA sidecar
//!                   SegmentData ──to_bytes──▶ VSSEG2 bytes (vstore-storage)
//!                        │ decode_sampled          │ decode_bytes (in place)
//!                        ▼                         ▼
//!         expand runs (literals: one copy; repeats: splat or fill),
//!         add the predecessor, emit the sampled frames
//!                                  ▼
//!                   VideoFrame (storage fidelity, sampled)
//!                                  │ convert_frames (by value)
//!                                  ▼
//!                   VideoFrame (consumption fidelity)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

pub mod codec;
pub mod container;
pub mod frame;
pub mod meta;
#[cfg(test)]
mod reference;
pub mod transcode;
pub mod wire;

pub use codec::{decode_segment, decode_segment_sampled, encode_segment, EncodedSegment};
pub use container::SegmentData;
pub use frame::VideoFrame;
pub use meta::SegmentMeta;
pub use transcode::{convert_frames, TranscodeOutput, Transcoder};
