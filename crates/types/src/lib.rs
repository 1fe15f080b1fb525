//! # vstore-types
//!
//! Foundational types shared by every VStore crate: the video format *knobs*
//! (Table 1 of the paper), fidelity and coding options, the *richer-than*
//! partial order, consumption/storage formats, consumers, knob spaces, and
//! the configuration data model produced by backward derivation.
//!
//! The knob vocabulary follows Table 1 of the paper:
//!
//! | Fidelity knob | Values |
//! |---|---|
//! | Image quality | worst, bad, good, best (x264 CRF 50, 40, 23, 0) |
//! | Crop factor   | 50 %, 75 %, 100 % |
//! | Resolution    | 60×60 … 720p (10 values) |
//! | Frame sampling| 1/30, 1/6, 1/2, 2/3, 1 |
//!
//! | Coding knob | Values |
//! |---|---|
//! | Speed step        | slowest, slow, medium, fast, fastest |
//! | Keyframe interval | 5, 10, 50, 100, 250 |
//! | Bypass            | encoded or RAW frames |
//!
//! This gives `4 × 3 × 10 × 5 = 600` fidelity options and
//! `600 × (5 × 5) = 15 000` storage formats — the "15K possible combinations"
//! quoted by the paper.
//!
//! Beside the vocabulary sit the few std-only runtime pieces every layer of
//! the data path runs on: [`pool`] (the scoped, order-preserving parallel
//! map), [`queue`] (the bounded, closeable job queue), [`sync`] (the
//! poison-recovery lock helpers) and [`hash`] (deterministic hashing — the
//! synthetic content's pseudo-randomness *and* the store's shard routing).
//! [`check`] is the seeded, shrinking property driver every crate's tests
//! share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cast;
pub mod check;
pub mod config;
pub mod consumer;
pub mod crc;
pub mod error;
pub mod fidelity;
pub mod format;
pub mod hash;
pub mod hist;
pub mod knobs;
pub mod live;
pub mod net;
pub mod pool;
pub mod queue;
pub mod runtime;
pub mod serve;
pub mod space;
pub mod sync;
pub mod units;

pub use config::{power_law_target, Configuration, ErosionPlan, ErosionStep, Subscription};
pub use consumer::{AccuracyLevel, Consumer, OperatorKind, DEFAULT_ACCURACY_LEVELS};
pub use crc::{crc32, crc32_parts};
pub use error::{at_least, Result, VStoreError};
pub use fidelity::{Fidelity, Richness};
pub use format::{CodingOption, ConsumptionFormat, FormatId, StorageFormat};
pub use hash::DeterministicHasher;
pub use hist::{LatencyHistogram, HISTOGRAM_BUCKETS};
pub use knobs::{CropFactor, FrameSampling, ImageQuality, KeyframeInterval, Resolution, SpeedStep};
pub use live::{LiveIngestOptions, DEFAULT_MAX_LAG_SEGMENTS};
pub use net::{NetOptions, DEFAULT_MAX_CONNECTIONS, DEFAULT_MAX_FRAME_BYTES};
pub use pool::{catch_panic, panic_message, scoped_map, PanicPayload};
pub use queue::{BoundedQueue, PushError};
pub use runtime::{available_workers, RuntimeOptions, DEFAULT_SHARDS, MIN_CACHE_BYTES_PER_SHARD};
pub use serve::{QueueFullPolicy, ServeOptions, DEFAULT_QUEUE_DEPTH};
pub use space::{CodingSpace, FidelitySpace};
pub use units::{ByteSize, CoreSeconds, Fraction, Speed, VideoSeconds};
