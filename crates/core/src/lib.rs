//! # vstore-core
//!
//! The paper's primary contribution: **backward derivation of the video
//! format configuration** (§4). In the direction opposite to the video data
//! path, the engine:
//!
//! 1. derives a **consumption format** for every `<operator, accuracy>`
//!    consumer, by searching the 4-D fidelity space with the monotone
//!    2-D boundary walk of §4.2 ([`cf_search`]);
//! 2. derives the **storage formats** by iteratively coalescing the
//!    consumption formats — satisfiable fidelity, adequate retrieval speed,
//!    ingestion under budget — always keeping a *golden* format
//!    ([`coalesce`]);
//! 3. derives an **age-based data erosion plan** that decays overall
//!    operator speed along a power law, with max-min fairness across
//!    consumers, until the storage budget is met ([`erosion`]);
//! 4. adapts coding knobs when the ingestion budget shrinks ([`budget`]).
//!
//! Every step prices its candidates through the memoised [`profiler`] (§4.1–4.2).
//!
//! [`engine::ConfigurationEngine`] ties the steps together and also produces
//! the alternative configurations (1→1, 1→N, N→N) the paper compares
//! against in §6.2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod cf_search;
pub mod coalesce;
pub mod engine;
pub mod erosion;
pub mod profiler;

pub use budget::adapt_to_ingest_budget;
pub use cf_search::{CfSearch, DerivedCf};
pub use coalesce::{CoalesceResult, CoalesceStrategy, Coalescer, DerivedSf};
pub use engine::{Alternative, ConfigurationEngine, EngineOptions};
pub use erosion::{plan_erosion, ErosionInputs};
pub use profiler::{ConsumerProfile, Profiler, ProfilerConfig, ProfilingStats, StorageProfile};
