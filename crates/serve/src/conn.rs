//! Per-connection machinery of the socket front end: the transport frame
//! envelope, the blocking frame reader both ends of the socket share, the
//! recycled buffer pool, and the reader/writer thread pair that serves one
//! accepted connection.
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
//! ## One connection, two blocking threads
//!
//! The reader thread blocks in `read`, decodes whole frames, stamps them
//! **at decode time** and submits them without ever blocking on the queue
//! (a full queue is answered with a `Busy` error *response*). The writer
//! thread blocks on the connection's reply channel, takes whatever else
//! has already completed, and puts the batch on the socket with one
//! `write_all` — a lone response leaves the instant it exists, pipelined
//! responses coalesce, and nothing is tuned. The channel disconnects when
//! the reader has stopped and every request it queued is answered, which
//! is how the writer knows it is done.
//!
//! ## No per-request allocation
//!
//! The reader's inbox and the writer's frame scratch live as long as the
//! connection, and each write batch is assembled in a buffer taken from
//! the shared [`BufferPool`] and returned after the write. A declared
//! frame length is validated against `NetOptions::max_frame_bytes` **at
//! header-parse time** — the inbox only ever grows by bytes actually
//! received (one fixed read window at a time), so a hostile length prefix
//! never drives an allocation.

use crate::net::NetShared;
use crate::server::{Connector, Submitter};
use crate::wire::{RemoteError, ServeRequest, ServeResponse};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use vstore_codec::wire::ByteWriter;
use vstore_types::cast::usize_from_u32;
use vstore_types::catch_panic;
use vstore_types::sync::lock_unpoisoned;
use vstore_types::{QueueFullPolicy, VStoreError};

/// Bytes of the transport header: u32 length + u64 correlation id.
pub(crate) const FRAME_HEADER_BYTES: usize = 12;
/// Bytes of the correlation id inside the declared length.
pub(crate) const CORR_ID_BYTES: usize = 8;
/// How far one blocking read may grow the inbox.
const READ_WINDOW_BYTES: usize = 16 * 1024;
/// Most already-completed responses one write coalesces, so a deep
/// pipeline cannot grow a batch buffer without bound.
const MAX_COALESCED_RESPONSES: usize = 64;
/// Stack of each connection thread: they decode, encode and block, and
/// never run a request.
const CONN_STACK_BYTES: usize = 256 * 1024;

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
    #[expect(
        clippy::expect_used,
        reason = "max_frame_bytes bounds every frame far inside u32"
    )]
    let len = u32::try_from(w.len() - 4).expect("frame length fits u32 by max_frame_bytes");
    w.patch_u32(0, len);
    w.into_bytes()
}

/// Why a byte stream cannot continue as frames.
#[derive(Debug)]
pub(crate) enum FrameError {
    /// The socket failed.
    Io(std::io::Error),
    /// The declared length exceeds the configured cap. Rejected before any
    /// allocation; the stream cannot be re-synchronised.
    Oversized {
        /// The length the header declared.
        declared: usize,
        /// The payload cap it was checked against.
        cap: usize,
    },
    /// The declared length cannot hold even the correlation id.
    Malformed {
        /// The length the header declared.
        declared: usize,
    },
}

impl From<FrameError> for VStoreError {
    fn from(err: FrameError) -> Self {
        match err {
            FrameError::Io(e) => VStoreError::Io(e),
            FrameError::Oversized { declared, cap } => VStoreError::corruption(format!(
                "frame declares {declared} bytes, over the {cap}-byte cap"
            )),
            FrameError::Malformed { declared } => VStoreError::corruption(format!(
                "frame declares {declared} bytes, below the envelope minimum"
            )),
        }
    }
}

/// Try to extract the next frame from `buf`: its correlation id and the
/// payload's byte range (the frame spans `buf` up to the range's end), or
/// `None` while too few bytes are buffered. The declared length is checked
/// against `max_payload_bytes` **before** it influences anything —
/// rejection costs no allocation (see the module docs).
pub(crate) fn parse_frame(
    buf: &[u8],
    max_payload_bytes: usize,
) -> std::result::Result<Option<(u64, Range<usize>)>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    #[expect(clippy::expect_used, reason = "length checked above")]
    let declared = usize_from_u32(u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")));
    if declared < CORR_ID_BYTES {
        return Err(FrameError::Malformed { declared });
    }
    if declared - CORR_ID_BYTES > max_payload_bytes {
        return Err(FrameError::Oversized {
            declared,
            cap: max_payload_bytes,
        });
    }
    let spans = 4 + declared;
    if buf.len() < spans {
        return Ok(None);
    }
    #[expect(
        clippy::expect_used,
        reason = "declared >= CORR_ID_BYTES checked above"
    )]
    let corr_id = u64::from_le_bytes(buf[4..12].try_into().expect("8 bytes"));
    Ok(Some((corr_id, FRAME_HEADER_BYTES..spans)))
}

/// The blocking frame reader both ends of the socket use (the server's
/// reader thread and [`crate::NetClient`]): the unparsed bytes of one
/// stream and the one loop that turns them into frames.
pub(crate) struct FrameReader {
    /// Bytes received and not yet reclaimed.
    inbox: Vec<u8>,
    /// Prefix of `inbox` already handed out as frames.
    consumed: usize,
    /// Cap a frame's payload may declare (see [`parse_frame`]).
    pub(crate) max_payload_bytes: usize,
}

impl FrameReader {
    pub(crate) fn new(max_payload_bytes: usize) -> Self {
        FrameReader {
            inbox: Vec::new(),
            consumed: 0,
            max_payload_bytes,
        }
    }

    /// Block until the next whole frame is buffered; returns its
    /// correlation id and payload. `Ok(None)` is end of stream (an
    /// unfinished frame's bytes are dropped with it). After an oversized
    /// or malformed header the stream cannot be re-synchronised.
    pub(crate) fn next_frame(
        &mut self,
        stream: &mut impl Read,
    ) -> Result<Option<(u64, &[u8])>, FrameError> {
        loop {
            let unparsed = &self.inbox[self.consumed..];
            if let Some((corr_id, payload)) = parse_frame(unparsed, self.max_payload_bytes)? {
                let at = self.consumed;
                self.consumed += payload.end;
                return Ok(Some((corr_id, &self.inbox[at..][payload])));
            }
            // Reclaim what was handed out (the inbox keeps its allocation),
            // then block for one read window more.
            self.inbox.drain(..self.consumed);
            self.consumed = 0;
            let len = self.inbox.len();
            self.inbox.resize(len + READ_WINDOW_BYTES, 0);
            let read = loop {
                match stream.read(&mut self.inbox[len..]) {
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    done => break done,
                }
            };
            self.inbox.truncate(len + read.as_ref().map_or(0, |n| *n));
            if read.map_err(FrameError::Io)? == 0 {
                return Ok(None);
            }
        }
    }
}

/// A bounded pool of recycled byte buffers shared by every connection.
/// `take`/`give` are a short mutex hold; the hit/miss counters
/// (`NetStats::pool_hits` / `pool_misses`) are the observable proof that
/// the steady-state request path allocates nothing per request.
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

    /// Takes served without allocating, and takes that allocated a
    /// fresh buffer.
    pub(crate) fn counts(&self) -> (u64, u64) {
        let (hits, misses) = (&self.hits, &self.misses);
        (hits.load(Ordering::Relaxed), misses.load(Ordering::Relaxed))
    }
}

/// The closing record of one connection. Dropped when its reader thread
/// ends — by return or by panic — which closes the socket and settles the
/// connection's statistics either way.
struct Closing<'a> {
    stream: &'a TcpStream,
    shared: &'a NetShared,
    /// Responses owed to the peer: raised by the reader per decoded frame,
    /// lowered by the writer per frame written.
    owed: &'a AtomicU64,
    peak_owed: u64,
    /// The peer vanished (socket error), as opposed to the stream ending.
    /// Starts `true` so a panic is accounted as a lost connection.
    lost: bool,
    /// Where the acceptor hears that connection `id` is ready to join.
    id: u64,
    done: Sender<u64>,
}

impl Drop for Closing<'_> {
    fn drop(&mut self) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the socket may already be shut"
        )]
        let _ = self.stream.shutdown(Shutdown::Both);
        // Relaxed: the writer has been joined (or never ran) by now.
        let unanswered = self.owed.load(Ordering::Relaxed) > 0;
        self.shared
            .close_connection(self.lost || unanswered, self.peak_owed);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "an acceptor that is gone joins nothing"
        )]
        let _ = self.done.send(self.id);
    }
}

/// Start the thread pair that serves `stream` to completion. The handle is
/// the reader thread's; it scopes the writer thread, so joining it joins
/// both.
pub(crate) fn spawn_connection(
    stream: Arc<TcpStream>,
    shared: Arc<NetShared>,
    connector: Connector,
    id: u64,
    done: Sender<u64>,
) -> std::io::Result<JoinHandle<()>> {
    let threads = || std::thread::Builder::new().stack_size(CONN_STACK_BYTES);
    threads().name("vstore-net-read".into()).spawn(move || {
        let (stream, shared, owed) = (&*stream, &*shared, &AtomicU64::new(0));
        let mut closing = Closing {
            stream,
            shared,
            owed,
            peak_owed: 0,
            lost: true,
            id,
            done,
        };
        let (submitter, replies) = connector.halves();
        std::thread::scope(|scope| {
            let writer = threads()
                .name("vstore-net-write".into())
                .spawn_scoped(scope, move || {
                    // A writer that stops early, for any reason, ends the
                    // connection: cutting the socket is what wakes the
                    // reader.
                    let wrote = catch_panic(|| write_responses(stream, shared, &replies, owed));
                    if !matches!(wrote, Ok(Ok(()))) {
                        #[expect(
                            clippy::let_underscore_must_use,
                            reason = "the socket may already be shut"
                        )]
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                });
            if writer.is_ok() {
                read_requests(&mut closing, submitter);
            }
        });
    })
}

/// The reader thread's body: decode frames and submit them until the
/// stream ends, turns undecodable, or the server starts draining. Consumes
/// the submitter — dropping it is what lets the writer finish.
fn read_requests(closing: &mut Closing<'_>, submitter: Submitter) {
    let (shared, mut stream) = (closing.shared, closing.stream);
    let tracer = submitter.tracer();
    let mut frames = FrameReader::new(shared.options.max_frame_bytes);
    let error_response = |err: &VStoreError| ServeResponse::Error(RemoteError::from_error(err));
    // A drain wakes a blocked read with end-of-stream; a busy reader sees
    // the flag between frames. Either way nothing new is accepted.
    while !shared.is_stopping() {
        let (corr_id, payload) = match frames.next_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            // The peer vanished: `lost` stays set.
            Err(FrameError::Io(_)) => return,
            Err(FrameError::Oversized { .. }) => {
                shared.count_oversized_frame();
                break;
            }
            Err(FrameError::Malformed { .. }) => {
                shared.count_corrupt_frame();
                break;
            }
        };
        shared.add_frame_in((FRAME_HEADER_BYTES + payload.len()) as u64);
        // The lag stamp and the trace both begin here, at the socket
        // boundary: queue-wait histograms stay comparable with the
        // in-process path, the decode is the trace's first span, and the
        // context rides the job through queue, worker and engines.
        let decoded_at = Instant::now();
        let trace = tracer.begin("request");
        let decode_span = trace.span("net.decode");
        let decoded = ServeRequest::from_wire(payload);
        drop(decode_span);
        // Relaxed: a statistic; the count is read for real only after the
        // writer is joined.
        let owed = closing.owed.fetch_add(1, Ordering::Relaxed) + 1;
        closing.peak_owed = closing.peak_owed.max(owed);
        match decoded {
            Ok(request) => {
                trace.set_root(request.kind().name());
                // Shed (Busy) or shutting down: the error IS the response;
                // the connection lives on.
                if let Err(err) =
                    submitter.submit(corr_id, request, decoded_at, trace, QueueFullPolicy::Reject)
                {
                    submitter.reply(corr_id, error_response(&err));
                }
            }
            Err(err) => {
                // Undecodable payload: answer this frame with the typed
                // error, then isolate the peer — a stream that framed
                // garbage cannot be trusted for re-synchronisation.
                shared.count_corrupt_frame();
                submitter.reply(corr_id, error_response(&err));
                break;
            }
        }
    }
    closing.lost = false;
}

/// The writer thread's body: block for the next reply, coalesce whatever
/// else has already completed, write the batch once. Returns `Ok` when
/// the reply channel disconnects (reader stopped, nothing left in flight)
/// and `Err` when the peer stops taking bytes.
fn write_responses(
    mut stream: &TcpStream,
    shared: &NetShared,
    replies: &Receiver<(u64, ServeResponse)>,
    owed: &AtomicU64,
) -> std::io::Result<()> {
    let mut frame = Vec::new();
    while let Ok(first) = replies.recv() {
        let mut batch = shared.pool.take();
        let mut frames = 0u64;
        let completed = std::iter::once(first).chain(replies.try_iter());
        for (corr_id, response) in completed.take(MAX_COALESCED_RESPONSES) {
            frame = encode_response(frame, corr_id, &response, shared.options.max_frame_bytes);
            batch.extend_from_slice(&frame);
            frames += 1;
        }
        let wrote = stream.write_all(&batch);
        let bytes = batch.len() as u64;
        shared.pool.give(batch);
        wrote?;
        shared.record_write(bytes, frames);
        owed.fetch_sub(frames, Ordering::Relaxed);
    }
    Ok(())
}

/// Encode one response frame into `buf`. A response whose encoding is
/// larger than the frame cap would be rejected by the peer's own
/// header check — poisoning its connection — so it is replaced with a
/// typed error under the same correlation id.
fn encode_response(
    buf: Vec<u8>,
    corr_id: u64,
    response: &ServeResponse,
    max_frame_bytes: usize,
) -> Vec<u8> {
    let buf = encode_frame(buf, corr_id, |w| response.write_wire(w));
    let payload_bytes = buf.len() - FRAME_HEADER_BYTES;
    if payload_bytes <= max_frame_bytes {
        return buf;
    }
    let too_large = VStoreError::invalid_argument(format!(
        "response of {payload_bytes} bytes exceeds the {max_frame_bytes}-byte frame cap"
    ));
    let error = ServeResponse::Error(RemoteError::from_error(&too_large));
    encode_frame(buf, corr_id, |w| error.write_wire(w))
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
        let (corr_id, payload) = parse_frame(&frame, 1 << 20).unwrap().unwrap();
        assert_eq!(corr_id, 77);
        assert_eq!(payload.end, frame.len());
        assert_eq!(ServeRequest::from_wire(&frame[payload]).unwrap(), request);
        // Every strict prefix is incomplete, never an error.
        for cut in 0..frame.len() {
            assert!(matches!(parse_frame(&frame[..cut], 1 << 20), Ok(None)));
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
        assert_eq!(pool.counts(), (0, 1));
        pool.give(a);
        let b = pool.take();
        assert_eq!(pool.counts(), (1, 1));
        pool.give(b);
        pool.give(Vec::new());
        pool.give(Vec::new()); // beyond capacity: dropped silently
        assert_eq!(lock_unpoisoned(&pool.bufs).len(), 2);
    }

    #[test]
    fn buffer_pool_drops_jumbo_buffers() {
        let pool = BufferPool::new(8, 1024);
        pool.give(Vec::with_capacity(4096)); // over retention: not pooled
        assert_eq!(lock_unpoisoned(&pool.bufs).len(), 0);
        pool.give(Vec::with_capacity(512));
        assert_eq!(lock_unpoisoned(&pool.bufs).len(), 1);
    }
}
