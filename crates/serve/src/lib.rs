//! # vstore-serve
//!
//! The connection-serving front end of VStore: the piece that turns the
//! `Clone + Send + Sync` service handle into a **servable system** for many
//! concurrent analytics clients (paper §3: queries arrive continuously
//! while ingestion competes for the same resources).
//!
//! The crate provides three layers:
//!
//! * **Typed requests and a wire codec** ([`ServeRequest`],
//!   [`ServeResponse`]): the facade's request-builder vocabulary as an
//!   enum, plus a wire format at one protocol version, every payload
//!   type encoded and decoded by one `Wire` impl — malformed frames
//!   surface as typed corruption errors, never panics.
//! * **A bounded request queue with back-pressure** ([`Server`],
//!   [`Connection`]): requests beyond `ServeOptions::queue_depth` are shed
//!   with `VStoreError::Busy` or block the client, per
//!   `QueueFullPolicy` — the server can never be ballooned out of memory
//!   by fast clients.
//! * **A thread-per-core executor pool** ([`ServerHandle`]): workers drain
//!   the queue driving cloned service handles, isolate per-request panics
//!   via the scoped pool's panic capture, shut down gracefully (drain,
//!   then join) and report [`ServeStats`] — queue depth, lag and per-kind
//!   latency histograms — shown as the `vstore_serve_*` rows of
//!   `VStore::metrics_snapshot`.
//!
//! * **A pipelined TCP front end** ([`NetServer`], [`NetClient`]): a real
//!   socket listener that serves each connection with a blocking reader
//!   thread and a blocking writer thread over the same bounded queue — a
//!   transport envelope of length-prefixed frames with per-frame
//!   correlation ids, responses that completed together written together,
//!   and pooled buffers so the steady-state request path allocates
//!   nothing. [`NetStats`] reports connection, frame, batching and pool
//!   behaviour.
//!
//! The front end is generic over [`VideoService`], implemented by `VStore`
//! in the facade crate; tests drive it with deterministic mocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

mod client;
mod conn;
mod net;
mod server;
mod stats;
mod wire;

pub use client::NetClient;
pub use net::{NetProbe, NetServer, NetServerHandle};
pub use server::{Connection, Connector, ServeProbe, Server, ServerHandle, VideoService};
pub use stats::{LatencyHistogram, NetStats, ServeStats};
// Re-exported so wire-level clients can name the live-stats payload without
// depending on the ingest crate directly.
pub use vstore_ingest::LiveStats;
// Same for the observability payloads.
pub use vstore_obs::{MetricsSnapshot, TraceDump};
pub use wire::{
    ErrorCode, RemoteError, RequestKind, ServeRequest, ServeResponse, REQUEST_MAGIC,
    RESPONSE_MAGIC, WIRE_VERSION,
};
