//! # vstore-profiler
//!
//! The profiling harness VStore's configuration engine drives (§4.1, §4.2).
//!
//! VStore periodically profiles, per ingested stream, (a) each operator's
//! accuracy and consumption speed as a function of fidelity, and (b) the
//! coding cost (size, encode cost, retrieval speed) of candidate storage
//! formats. Profiling is the dominant configuration overhead, so the
//! profiler:
//!
//! * memoises every profiled `(operator, fidelity)` and storage format — the
//!   memoisation the paper credits with eliminating 92 % of would-be
//!   profiling runs during coalescing;
//! * counts profiling runs and models the wall-clock delay each run would
//!   take on the paper's testbed (sample-clip duration ÷ consumption speed,
//!   plus fixed setup), which is what Figure 14 and §6.4 report.
//!
//! Operator accuracy is *measured* by running the real operator library over
//! a 10-second profiling clip at the candidate fidelity and scoring it
//! against the ingestion-fidelity run; speeds and sizes come from the
//! calibrated cost models (see "Substitutions" in the repository README).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod profiler;

pub use profiler::{ConsumerProfile, Profiler, ProfilerConfig, ProfilingStats, StorageProfile};
