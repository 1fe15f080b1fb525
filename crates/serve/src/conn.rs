//! Per-connection machinery of the socket front end: the transport frame
//! envelope, the recycled buffer pool, and the state machine that turns
//! non-blocking socket bytes into queue submissions and batched vectored
//! writes.
//!
//! ## Transport envelope
//!
//! ```text
//! ┌───────────────┬─────────────────────┬─────────────────────────────┐
//! │ u32 frame_len │ u64 correlation_id  │ payload (ServeRequest /     │
//! │ (little-end.) │ (little-endian)     │  ServeResponse wire bytes)  │
//! └───────────────┴─────────────────────┴─────────────────────────────┘
//! ```
//!
//! `frame_len` counts everything after itself (correlation id + payload).
//! The correlation id is transport-level: a client may pipeline any number
//! of requests on one connection; the server answers in completion order,
//! echoing each request's id on its response frame so the client can pair
//! them back up. The payload inside the envelope is the ordinary
//! [`ServeRequest`]/[`ServeResponse`] wire frame — parity with the
//! in-process path is therefore byte-exact modulo the envelope.
//!
//! ## Zero per-request allocation
//!
//! Steady state allocates nothing per request: the inbox (unparsed read
//! bytes) and every response frame are encoded into buffers taken from the
//! shared [`BufferPool`] and returned after the write completes, and the
//! read syscall lands in an event-loop-owned scratch buffer. A declared
//! frame length is validated against `NetOptions::max_frame_bytes` **at
//! header-parse time** — buffers only ever hold bytes actually received,
//! so a hostile length prefix never drives an allocation.

use crate::net::NetShared;
use crate::server::Connection;
use crate::wire::{RemoteError, ServeRequest, ServeResponse};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use vstore_codec::wire::ByteWriter;
use vstore_obs::Tracer;
use vstore_sim::sync::lock_unpoisoned;
use vstore_types::cast::usize_from_u32;

/// Bytes of the transport header: u32 length + u64 correlation id.
pub(crate) const FRAME_HEADER_BYTES: usize = 12;
/// Bytes of the correlation id inside the declared length.
pub(crate) const CORR_ID_BYTES: usize = 8;
/// Most frames coalesced into one vectored write.
const MAX_WRITE_BATCH: usize = 64;

/// Encode one frame into a recycled buffer: header, correlation id, then
/// the payload via `encode`, with the length back-patched once known.
pub(crate) fn encode_frame(
    buf: Vec<u8>,
    corr_id: u64,
    encode: impl FnOnce(&mut ByteWriter),
) -> Vec<u8> {
    let mut w = ByteWriter::from_vec(buf);
    w.put_u32(0);
    w.put_u64(corr_id);
    encode(&mut w);
    let len = u32::try_from(w.len() - 4).expect("frame length fits u32 by max_frame_bytes"); // vstore-lint: allow(no-unwrap)
    w.patch_u32(0, len);
    w.into_bytes()
}

/// Why a buffered byte stream cannot continue as frames.
#[derive(Debug)]
pub(crate) enum FrameError {
    /// The declared length exceeds the configured cap. Rejected before any
    /// allocation; the stream cannot be re-synchronised.
    Oversized {
        /// The length the header declared.
        declared: usize,
    },
    /// The declared length cannot hold even the correlation id.
    Malformed {
        /// The length the header declared.
        declared: usize,
    },
}

/// One step of frame extraction from a buffered byte stream.
pub(crate) enum FrameStep {
    /// Not enough bytes buffered for the next frame yet.
    Incomplete,
    /// One complete frame: its correlation id, the payload's byte range
    /// inside the buffer, and how many buffered bytes the frame spans.
    Frame {
        corr_id: u64,
        payload: Range<usize>,
        spans: usize,
    },
}

/// Try to extract the next frame from `buf`. The declared length is
/// checked against `max_payload_bytes` **before** it influences anything —
/// rejection costs no allocation (see the module docs).
pub(crate) fn parse_frame(
    buf: &[u8],
    max_payload_bytes: usize,
) -> std::result::Result<FrameStep, FrameError> {
    if buf.len() < 4 {
        return Ok(FrameStep::Incomplete);
    }
    // vstore-lint: allow(no-unwrap, checked-cast) — length checked above; u32 widens to usize
    let declared = usize_from_u32(u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")));
    if declared < CORR_ID_BYTES {
        return Err(FrameError::Malformed { declared });
    }
    if declared - CORR_ID_BYTES > max_payload_bytes {
        return Err(FrameError::Oversized { declared });
    }
    let spans = 4 + declared;
    if buf.len() < spans {
        return Ok(FrameStep::Incomplete);
    }
    let corr_id = u64::from_le_bytes(buf[4..12].try_into().expect("8 bytes")); // vstore-lint: allow(no-unwrap) — declared >= CORR_ID_BYTES checked above
    Ok(FrameStep::Frame {
        corr_id,
        payload: FRAME_HEADER_BYTES..spans,
        spans,
    })
}

/// A bounded pool of recycled byte buffers shared by every event loop.
/// `take`/`give` are a short mutex hold; hit/miss counters feed
/// `NetStats::pool_hit_rate` — the observable proof that the steady-state
/// request path allocates nothing per request.
pub(crate) struct BufferPool {
    bufs: Mutex<Vec<Vec<u8>>>,
    capacity: usize,
    /// Buffers grown past this capacity are dropped instead of pooled, so
    /// a burst of jumbo responses cannot pin `capacity` ×
    /// `max_frame_bytes` of memory indefinitely.
    retain_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BufferPool {
    /// A pool retaining at most `capacity` idle buffers, each of at most
    /// `retain_bytes` capacity.
    pub(crate) fn new(capacity: usize, retain_bytes: usize) -> Self {
        BufferPool {
            bufs: Mutex::new(Vec::new()),
            capacity,
            retain_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Take a cleared buffer, recycling one if available.
    pub(crate) fn take(&self) -> Vec<u8> {
        let recycled = lock_unpoisoned(&self.bufs).pop();
        match recycled {
            Some(mut buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Return a buffer for recycling (dropped if the pool is full or the
    /// buffer has grown past the retention threshold).
    pub(crate) fn give(&self, buf: Vec<u8>) {
        if buf.capacity() > self.retain_bytes {
            return;
        }
        let mut bufs = lock_unpoisoned(&self.bufs);
        if bufs.len() < self.capacity {
            bufs.push(buf);
        }
    }

    /// Takes served without allocating.
    pub(crate) fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Takes that allocated a fresh buffer.
    pub(crate) fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// One encoded response awaiting its turn in a batched write.
struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

/// Why a connection left its event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseReason {
    /// Everything submitted was answered and flushed; the peer closed (or
    /// the server drained) cleanly.
    Finished,
    /// The peer vanished (EOF or socket error) with work still in flight
    /// or responses still queued.
    Disconnect,
    /// The byte stream became undecodable; the peer was answered with a
    /// corruption error where possible, then cut off.
    Corrupt,
    /// A frame declared a length beyond the cap; cut off immediately.
    Oversized,
}

/// What one `pump` pass decided.
pub(crate) enum PumpOutcome {
    /// Keep the connection; `progress` says whether any byte or response
    /// moved (the loop sleeps only when nothing did).
    Continue { progress: bool },
    /// Remove the connection; the loop calls [`NetConn::finish`].
    Close(CloseReason),
}

/// The per-connection state machine: socket, inbox, in-flight requests
/// and the batched write queue. Owned by exactly one event loop — no
/// locking on any per-connection state.
pub(crate) struct NetConn {
    stream: TcpStream,
    conn: Connection,
    /// The service's request tracer: each decoded frame begins its trace
    /// here, at the socket boundary.
    tracer: Arc<Tracer>,
    /// Queue job id → transport correlation id of each in-flight request.
    in_flight: HashMap<u64, u64>,
    /// Unparsed bytes read off the socket (pooled).
    inbox: Vec<u8>,
    /// Encoded responses not yet fully written (pooled buffers).
    pending: VecDeque<WriteBuf>,
    pending_bytes: usize,
    oldest_pending: Option<Instant>,
    peak_backlog: u64,
    /// Undecodable stream: stop reading, flush what is queued, then close.
    poisoned: bool,
    /// Peer half-closed its write side: no more requests, but keep
    /// answering and flushing what is already in flight.
    eof: bool,
}

impl NetConn {
    pub(crate) fn new(stream: TcpStream, conn: Connection, shared: &NetShared) -> Self {
        NetConn {
            stream,
            tracer: conn.tracer(),
            conn,
            in_flight: HashMap::new(),
            inbox: shared.pool.take(),
            pending: VecDeque::new(),
            pending_bytes: 0,
            oldest_pending: None,
            peak_backlog: 0,
            poisoned: false,
            eof: false,
        }
    }

    /// One multiplexing pass: read what the socket has, decode and submit
    /// complete frames (stamped at decode time), drain completed
    /// responses into the write queue, and flush per the adaptive policy —
    /// immediately when nothing more is imminent, batched by
    /// size/latency threshold while responses are still streaming out.
    pub(crate) fn pump(
        &mut self,
        shared: &NetShared,
        scratch: &mut [u8],
        draining: bool,
    ) -> PumpOutcome {
        let mut progress = false;

        // 1. Read. Skipped while draining (no new work accepted), after
        //    EOF, or once the stream is poisoned.
        if !(draining || self.eof || self.poisoned) {
            loop {
                match self.stream.read(scratch) {
                    Ok(0) => {
                        self.eof = true;
                        break;
                    }
                    Ok(n) => {
                        progress = true;
                        self.inbox.extend_from_slice(&scratch[..n]);
                        shared.add_bytes_in(n as u64);
                        if n < scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return PumpOutcome::Close(CloseReason::Disconnect),
                }
            }
        }

        // 2. Decode complete frames and submit them. The lag stamp is
        //    taken here, at decode time, so the queue-wait histogram is
        //    comparable with the in-process submit path.
        let mut consumed = 0usize;
        let mut frames_in = 0u64;
        let mut fatal: Option<CloseReason> = None;
        while !self.poisoned {
            match parse_frame(&self.inbox[consumed..], shared.options.max_frame_bytes) {
                Ok(FrameStep::Incomplete) => break,
                Ok(FrameStep::Frame {
                    corr_id,
                    payload,
                    spans,
                }) => {
                    frames_in += 1;
                    progress = true;
                    let decoded_at = Instant::now();
                    // The trace begins here, at the socket boundary: the
                    // decode below is its first span, and the context rides
                    // the job through queue, worker and engines.
                    let trace = self.tracer.begin("request");
                    let decode_span = trace.span("net.decode");
                    let bytes = &self.inbox[consumed + payload.start..consumed + payload.end];
                    match ServeRequest::from_wire(bytes) {
                        Ok(request) => {
                            drop(decode_span);
                            trace.set_root(request.kind().name());
                            match self.conn.submit_traced(request, decoded_at, trace) {
                                Ok(job_id) => {
                                    self.in_flight.insert(job_id, corr_id);
                                    self.peak_backlog =
                                        self.peak_backlog.max(self.in_flight.len() as u64);
                                }
                                // Shed (Busy) or shutting down: the error
                                // IS the response; the connection lives on.
                                Err(err) => self.queue_response(
                                    shared,
                                    corr_id,
                                    &ServeResponse::Error(RemoteError::from_error(&err)),
                                ),
                            }
                        }
                        Err(err) => {
                            // Undecodable payload: answer this frame with
                            // the typed error, then isolate the peer — a
                            // stream that framed garbage cannot be
                            // trusted for re-synchronisation.
                            shared.count_corrupt_frame();
                            self.queue_response(
                                shared,
                                corr_id,
                                &ServeResponse::Error(RemoteError::from_error(&err)),
                            );
                            self.poisoned = true;
                        }
                    }
                    consumed += spans;
                }
                Err(FrameError::Oversized { .. }) => {
                    shared.count_oversized_frame();
                    fatal = Some(CloseReason::Oversized);
                    break;
                }
                Err(FrameError::Malformed { .. }) => {
                    shared.count_corrupt_frame();
                    fatal = Some(CloseReason::Corrupt);
                    break;
                }
            }
        }
        if consumed > 0 {
            // Compact in place: the inbox keeps its pooled allocation.
            self.inbox.copy_within(consumed.., 0);
            self.inbox.truncate(self.inbox.len() - consumed);
        }
        if frames_in > 0 {
            shared.add_frames_in(frames_in);
        }
        if let Some(reason) = fatal {
            // Best-effort flush of anything already queued, then cut off.
            let _ = self.flush(shared);
            return PumpOutcome::Close(reason);
        }

        // 3. Drain completions into the write queue.
        while let Some((job_id, response)) = self.conn.try_recv() {
            progress = true;
            if let Some(corr_id) = self.in_flight.remove(&job_id) {
                self.queue_response(shared, corr_id, &response);
            }
        }

        // 4. Adaptive flush. With nothing left in flight no further
        //    response can join the batch, so flush immediately (light
        //    load → minimal latency). Otherwise coalesce until the batch
        //    crosses the size threshold or the oldest pending response
        //    has waited its latency bound (heavy pipelining → few large
        //    vectored writes).
        if !self.pending.is_empty() {
            let opts = &shared.options;
            let idle = self.in_flight.is_empty();
            let over_size = self.pending_bytes >= opts.batch_max_bytes;
            let over_delay = self
                .oldest_pending
                .is_some_and(|t| t.elapsed() >= Duration::from_micros(opts.batch_max_delay_us));
            if idle || over_size || over_delay || draining || self.poisoned || self.eof {
                match self.flush(shared) {
                    Ok(wrote) => progress |= wrote,
                    Err(()) => return PumpOutcome::Close(CloseReason::Disconnect),
                }
            }
        }

        // 5. Close when no more work can arrive and everything queued has
        //    been written.
        let settled = self.in_flight.is_empty() && self.pending.is_empty();
        if settled && self.poisoned {
            return PumpOutcome::Close(CloseReason::Corrupt);
        }
        if settled && (self.eof || draining) {
            return PumpOutcome::Close(CloseReason::Finished);
        }
        PumpOutcome::Continue { progress }
    }

    /// Encode `response` into a pooled buffer and queue it for the next
    /// batched write.
    fn queue_response(&mut self, shared: &NetShared, corr_id: u64, response: &ServeResponse) {
        let buf = encode_frame(shared.pool.take(), corr_id, |w| response.write_wire(w));
        self.pending_bytes += buf.len();
        if self.pending.is_empty() {
            self.oldest_pending = Some(Instant::now());
        }
        self.pending.push_back(WriteBuf { buf, pos: 0 });
    }

    /// One vectored write of up to [`MAX_WRITE_BATCH`] pending frames.
    /// Returns whether bytes moved; `Err(())` means the peer is gone.
    fn flush(&mut self, shared: &NetShared) -> std::result::Result<bool, ()> {
        if self.pending.is_empty() {
            return Ok(false);
        }
        // Stack-allocated gather list: the write path allocates nothing.
        let mut slices = [IoSlice::new(&[]); MAX_WRITE_BATCH];
        let batch = self.pending.len().min(MAX_WRITE_BATCH);
        for (slot, w) in slices.iter_mut().zip(self.pending.iter()) {
            *slot = IoSlice::new(&w.buf[w.pos..]);
        }
        let written = loop {
            match self.stream.write_vectored(&slices[..batch]) {
                Ok(0) => return Err(()),
                Ok(n) => break n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        };
        // Advance the queue past what the kernel took; completed frames
        // return their buffers to the pool.
        let mut remaining = written;
        let mut completed = 0u64;
        while remaining > 0 {
            // remaining > 0 means the writev above consumed bytes from a
            // frame still queued here.
            let front = self
                .pending
                .front_mut()
                .expect("written bytes imply pending frames"); // vstore-lint: allow(no-unwrap)
            let left = front.buf.len() - front.pos;
            if remaining >= left {
                remaining -= left;
                completed += 1;
                let done = self.pending.pop_front().expect("front exists"); // vstore-lint: allow(no-unwrap)
                shared.pool.give(done.buf);
            } else {
                front.pos += remaining;
                remaining = 0;
            }
        }
        self.pending_bytes -= written;
        // After a partial flush the remaining frames have already waited;
        // keeping the timestamp preserves the batch_max_delay_us bound
        // under sustained partial writes.
        if self.pending.is_empty() {
            self.oldest_pending = None;
        }
        shared.record_write(written as u64, completed);
        Ok(true)
    }

    /// Tear the connection down: recycle its buffers and record its
    /// closing statistics under `reason`.
    pub(crate) fn finish(mut self, shared: &NetShared, reason: CloseReason) {
        let inbox = std::mem::take(&mut self.inbox);
        shared.pool.give(inbox);
        while let Some(w) = self.pending.pop_front() {
            shared.pool.give(w.buf);
        }
        let abandoned = !self.in_flight.is_empty();
        shared.close_connection(reason, self.peak_backlog, abandoned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_envelope() {
        let request = ServeRequest::Erode {
            stream: "jackson".into(),
            age_days: 3,
        };
        let frame = encode_frame(Vec::new(), 77, |w| request.write_wire(w));
        assert_eq!(
            u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize,
            frame.len() - 4
        );
        match parse_frame(&frame, 1 << 20).unwrap() {
            FrameStep::Frame {
                corr_id,
                payload,
                spans,
            } => {
                assert_eq!(corr_id, 77);
                assert_eq!(spans, frame.len());
                assert_eq!(ServeRequest::from_wire(&frame[payload]).unwrap(), request);
            }
            FrameStep::Incomplete => panic!("complete frame not recognised"),
        }
        // Every strict prefix is incomplete, never an error.
        for cut in 0..frame.len() {
            assert!(matches!(
                parse_frame(&frame[..cut], 1 << 20),
                Ok(FrameStep::Incomplete)
            ));
        }
    }

    #[test]
    fn hostile_lengths_are_rejected_at_header_parse_time() {
        // Oversized: declares 256 MiB with only 4 bytes on the wire.
        let mut header = Vec::new();
        header.extend_from_slice(&(256u32 << 20).to_le_bytes());
        assert!(matches!(
            parse_frame(&header, 4 * 1024 * 1024),
            Err(FrameError::Oversized { .. })
        ));
        // Malformed: too short to even carry the correlation id.
        let mut header = Vec::new();
        header.extend_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            parse_frame(&header, 4 * 1024 * 1024),
            Err(FrameError::Malformed { declared: 3 })
        ));
    }

    #[test]
    fn buffer_pool_recycles_and_counts() {
        let pool = BufferPool::new(2, 1024);
        let a = pool.take();
        assert_eq!(pool.miss_count(), 1);
        pool.give(a);
        let b = pool.take();
        assert_eq!(pool.hit_count(), 1);
        pool.give(b);
        pool.give(Vec::new());
        pool.give(Vec::new()); // beyond capacity: dropped silently
        assert_eq!(pool.bufs.lock().unwrap().len(), 2);
    }

    #[test]
    fn buffer_pool_drops_jumbo_buffers() {
        let pool = BufferPool::new(8, 1024);
        pool.give(Vec::with_capacity(4096)); // over retention: not pooled
        assert_eq!(pool.bufs.lock().unwrap().len(), 0);
        pool.give(Vec::with_capacity(512));
        assert_eq!(pool.bufs.lock().unwrap().len(), 1);
    }
}
