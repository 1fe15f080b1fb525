//! A synchronous, pipelining TCP client for the socket front end.
//!
//! [`NetClient`] speaks the transport envelope (see
//! [`crate::conn`]): submit any number of requests without waiting, then
//! collect responses in whatever order the server finishes them — each
//! response carries the correlation id of the request it answers. Submits
//! coalesce into one outgoing buffer that is pushed to the socket by
//! [`NetClient::flush`] (or automatically, by `recv` before it blocks and
//! whenever the buffer crosses a size threshold), so a pipelined burst
//! costs one write syscall, not one per request. All buffers (encode,
//! outbox, inbox) are owned by the client and reused, so a steady
//! request/response loop allocates nothing per call.

use crate::conn::{encode_frame, FrameReader};
use crate::wire::{ServeRequest, ServeResponse};
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Instant;
use vstore_types::hist::LatencyHistogram;
use vstore_types::{Result, VStoreError, DEFAULT_MAX_FRAME_BYTES};

/// Coalesced submits are pushed to the socket once the outbox grows past
/// this, even without an explicit [`NetClient::flush`].
const OUTBOX_FLUSH_BYTES: usize = 64 * 1024;

/// One blocking, pipelined connection to a [`crate::NetServer`].
pub struct NetClient {
    stream: TcpStream,
    next_corr: u64,
    /// Submission instants of requests not yet answered, by correlation id.
    sent_at: HashMap<u64, Instant>,
    /// Responses received while waiting for a different correlation id.
    buffered: HashMap<u64, ServeResponse>,
    /// Encoded frames not yet pushed to the socket.
    outbox: Vec<u8>,
    /// Correlation ids of the frames in the outbox, in order. On a failed
    /// flush these are un-tracked from `sent_at` — they never hit the wire.
    outbox_ids: Vec<u64>,
    /// Unparsed response bytes and the response-frame size cap.
    frames: FrameReader,
    encode_buf: Vec<u8>,
    /// End-to-end latency (submit to response decoded) of every answered
    /// request.
    latency: LatencyHistogram,
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient")
            .field("pending", &self.pending())
            .finish()
    }
}

impl NetClient {
    /// Connect to a serving address. The socket is blocking with Nagle
    /// disabled — a flushed burst reaches the server immediately; the
    /// client does its own coalescing instead of leaning on the kernel's.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(VStoreError::Io)?;
        stream.set_nodelay(true).map_err(VStoreError::Io)?;
        Ok(NetClient {
            stream,
            next_corr: 0,
            sent_at: HashMap::new(),
            buffered: HashMap::new(),
            outbox: Vec::new(),
            outbox_ids: Vec::new(),
            frames: FrameReader::new(DEFAULT_MAX_FRAME_BYTES),
            encode_buf: Vec::new(),
            latency: LatencyHistogram::default(),
        })
    }

    /// Raise (or lower) the response-frame size this client accepts.
    /// Must match the server's `NetOptions::max_frame_bytes` when that is
    /// configured above the default — otherwise a legitimate large
    /// response is rejected as corruption.
    #[must_use]
    pub fn with_max_frame_bytes(mut self, max_frame_bytes: usize) -> Self {
        self.frames.max_payload_bytes = max_frame_bytes;
        self
    }

    /// Queue a request without waiting; returns its correlation id. The
    /// encoded frame coalesces with other pending submits and reaches the
    /// wire on the next [`flush`](Self::flush) (`recv` flushes before it
    /// blocks; a full outbox flushes on its own).
    pub fn submit(&mut self, request: &ServeRequest) -> Result<u64> {
        request.validate()?;
        let corr_id = self.next_corr;
        self.next_corr += 1;
        let buf = std::mem::take(&mut self.encode_buf);
        let buf = encode_frame(buf, corr_id, |w| request.write_wire(w));
        self.outbox.extend_from_slice(&buf);
        self.encode_buf = buf;
        self.outbox_ids.push(corr_id);
        self.sent_at.insert(corr_id, Instant::now());
        if self.outbox.len() >= OUTBOX_FLUSH_BYTES {
            self.flush()?;
        }
        Ok(corr_id)
    }

    /// Push every coalesced submit onto the wire in one write. Call this
    /// when the server must see the requests before you are ready to
    /// `recv` — e.g. fire-and-forget bursts, or tests that watch
    /// server-side counters.
    ///
    /// On a write error the undelivered requests are dropped from the
    /// outstanding set (a partial write leaves the stream mid-frame, so
    /// they can never be answered) and the error is returned.
    pub fn flush(&mut self) -> Result<()> {
        if self.outbox.is_empty() {
            return Ok(());
        }
        let outcome = self.stream.write_all(&self.outbox).map_err(VStoreError::Io);
        self.outbox.clear();
        if outcome.is_err() {
            for corr_id in self.outbox_ids.drain(..) {
                self.sent_at.remove(&corr_id);
            }
        } else {
            self.outbox_ids.clear();
        }
        outcome
    }

    /// Block until the next response arrives (any correlation id).
    pub fn recv(&mut self) -> Result<(u64, ServeResponse)> {
        if let Some(&corr_id) = self.buffered.keys().next() {
            #[expect(clippy::expect_used, reason = "the key was just seen")]
            let response = self.buffered.remove(&corr_id).expect("key just seen");
            return Ok((corr_id, response));
        }
        self.recv_from_wire()
    }

    /// Block until the next response arrives **off the socket**, ignoring
    /// the `buffered` set. `recv_response` loops on this so a buffered
    /// non-matching response can never starve the socket read.
    fn recv_from_wire(&mut self) -> Result<(u64, ServeResponse)> {
        if self.sent_at.is_empty() {
            return Err(VStoreError::InvalidState("no requests outstanding".into()));
        }
        self.flush()?;
        let Some((corr_id, payload)) = self.frames.next_frame(&mut &self.stream)? else {
            return Err(VStoreError::InvalidState(format!(
                "server closed the connection with {} responses outstanding",
                self.sent_at.len()
            )));
        };
        let response = ServeResponse::from_wire(payload)?;
        if let Some(sent) = self.sent_at.remove(&corr_id) {
            let micros = u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.latency.record(micros);
        }
        Ok((corr_id, response))
    }

    /// Block until the response for `corr_id` arrives, buffering any
    /// other responses that land first.
    pub fn recv_response(&mut self, corr_id: u64) -> Result<ServeResponse> {
        if let Some(response) = self.buffered.remove(&corr_id) {
            return Ok(response);
        }
        loop {
            let (got, response) = self.recv_from_wire()?;
            if got == corr_id {
                return Ok(response);
            }
            self.buffered.insert(got, response);
        }
    }

    /// Submit one request and wait for its response (no pipelining).
    pub fn call(&mut self, request: &ServeRequest) -> Result<ServeResponse> {
        let corr_id = self.submit(request)?;
        self.recv_response(corr_id)
    }

    /// Requests submitted but not yet returned by `recv`/`recv_response`
    /// (including responses already buffered internally).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.sent_at.len() + self.buffered.len()
    }

    /// End-to-end latency of every answered request on this connection.
    #[must_use]
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }
}
