//! # vstore-sim
//!
//! The paper's testbed as a model (§4: the profiled costs backward
//! derivation runs on), and nothing the data path executes:
//!
//! * [`machine`] — the machine model (CPU cores, decoder, disk bandwidth)
//!   mirroring the paper's evaluation platform;
//! * [`coding_cost`] — the calibrated encode/decode/size model for the block
//!   codec, shaped on Figure 3 and Table 3(b) of the paper.
//!
//! What a request actually cost is in its report (`QueryResult`,
//! `IngestReport`, `ErodeReport`) and in the store's counters and spans;
//! the worker pool, job queue, lock helpers and routing hash the store runs
//! on live in `vstore-types`. See "Substitutions" in the repository README
//! for why each model exists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coding_cost;
pub mod machine;

pub use coding_cost::CodingCostModel;
pub use machine::MachineSpec;
