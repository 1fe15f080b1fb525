//! # vstore-query
//!
//! The query engine ported onto VStore (§5): operator cascades executed over
//! video segments retrieved from the segment store, decoded, converted to
//! each operator's consumption format, and consumed.
//!
//! The two end-to-end queries of the paper are provided:
//!
//! * **Query A** (NoScope-style car detection): Diff → S-NN → NN;
//! * **Query B** (OpenALPR-style plate recognition): Motion → License → OCR.
//!
//! Early operators scan every segment of the queried timespan; later
//! operators only touch the segments their predecessor flagged. Per-stage
//! time is charged as `video processed ÷ min(retrieval speed, consumption
//! speed)` on the calibrated models, which is how the paper's ×realtime
//! query speeds are measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

pub mod cascade;
pub mod engine;
pub mod planner;

pub use cascade::{QuerySpec, STAGE_A, STAGE_B};
pub use engine::{QueryEngine, QueryResult, StageReport};
pub use planner::{PlanOptions, DEFAULT_SKIP_THRESHOLD};
