//! # vstore-sim
//!
//! The simulation substrate that stands in for the paper's hardware:
//!
//! * [`hash`] — deterministic splittable hashing used wherever the synthetic
//!   substrate needs reproducible pseudo-randomness (content generation,
//!   detection draws) without threading RNG state everywhere;
//! * [`machine`] — the machine model (CPU cores, decoder, disk bandwidth)
//!   mirroring the paper's evaluation platform;
//! * [`resources`] — resource usage accounting (CPU-core-seconds, decoder
//!   seconds, disk bytes) and a virtual clock, so experiments report costs in
//!   the paper's units (×realtime, cores, GB/day) independent of the host;
//! * [`coding_cost`] — the calibrated encode/decode/size model for the block
//!   codec, shaped on Figure 3 and Table 3(b) of the paper;
//! * [`pool`] — a scoped worker pool (order-preserving parallel map) backing
//!   the sharded store's compaction, the ingest fan-out, the query
//!   prefetch stage and cold-tier demotion;
//! * [`queue`] — the bounded, closeable job queue behind every
//!   back-pressured subsystem (serve requests, live ingest).
//!
//! See "Substitutions" in the repository README for why each model exists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coding_cost;
pub mod hash;
pub mod machine;
pub mod pool;
pub mod queue;
pub mod resources;
pub mod sync;

pub use coding_cost::CodingCostModel;
pub use hash::DeterministicHasher;
pub use machine::MachineSpec;
pub use pool::{catch_panic, panic_message, scoped_map, PanicPayload};
pub use queue::{BoundedQueue, PushError};
pub use resources::{ResourceKind, ResourceUsage, VirtualClock};
