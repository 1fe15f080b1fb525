//! The serving front end: a bounded request queue drained by a
//! thread-per-core worker pool.
//!
//! ```text
//!  clients ──┐ submit()              ┌─ worker 0 ── service clone ─┐
//!  clients ──┼──► bounded queue ─────┼─ worker 1 ── service clone ─┼─► per-connection
//!  clients ──┘   (Busy / block)      └─ worker N ── service clone ─┘   response channels
//! ```
//!
//! * **Back-pressure.** The queue never grows past
//!   `ServeOptions::queue_depth`: beyond it, `submit` sheds the request
//!   with [`VStoreError::Busy`] ([`QueueFullPolicy::Reject`]) or blocks the
//!   client ([`QueueFullPolicy::Block`]). Memory stays bounded no matter
//!   how many clients connect.
//! * **Panic isolation.** Workers run each request under
//!   [`vstore_types::catch_panic`] — the same panic capture the scoped
//!   worker pool uses — so a panicking operator fails only that request
//!   (the client receives an [`ErrorCode::Panicked`](crate::ErrorCode)
//!   response) while the worker and the server keep serving.
//! * **Graceful shutdown.** [`ServerHandle::shutdown`] closes the queue to
//!   new requests, lets the workers drain everything already accepted,
//!   joins them and returns the final [`ServeStats`].
//! * **Disconnect tolerance.** Dropping a [`Connection`] mid-stream never
//!   disturbs the server: responses to a vanished client are counted and
//!   discarded.

use crate::stats::{LatencyHistogram, ServeStats};
use crate::wire::{RemoteError, RequestKind, ServeRequest, ServeResponse};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vstore_datasets::VideoSource;
use vstore_ingest::{ErodeReport, IngestReport, LiveStats};
use vstore_obs::{MetricsSnapshot, TraceContext, TraceDump, Tracer};
use vstore_query::{QueryResult, QuerySpec};
use vstore_types::sync::lock_unpoisoned;
use vstore_types::{catch_panic, panic_message, BoundedQueue, PushError};
use vstore_types::{QueueFullPolicy, Result, ServeOptions, VStoreError};

/// The store-side interface the front end drives: the three runtime
/// operations of a `VStore` service handle. Implemented by `VStore` itself
/// (in the facade crate) and by mocks in tests.
pub trait VideoService: Send + Sync + 'static {
    /// Ingest `count` segments of `source` starting at `first_segment`.
    fn ingest(&self, source: &VideoSource, first_segment: u64, count: u64) -> Result<IngestReport>;
    /// Run `spec` over `count` segments of `stream` starting at
    /// `first_segment`.
    fn query(
        &self,
        stream: &str,
        spec: &QuerySpec,
        first_segment: u64,
        count: u64,
    ) -> Result<QueryResult>;
    /// Apply the active erosion plan to `stream` at `age_days`. Reports
    /// what the step deleted and what it demoted to the cold tier.
    fn erode(&self, stream: &str, age_days: u32) -> Result<ErodeReport>;
    /// The store's aggregate live-ingest statistics. Defaults to an idle
    /// report for services with no live ingest subsystem (mocks, replayers);
    /// `VStore` overrides it with its live-ingestor registry aggregate.
    fn live_stats(&self) -> Result<LiveStats> {
        Ok(LiveStats::default())
    }
    /// The store's unified metrics snapshot. Defaults to an empty snapshot
    /// for services with no metrics registry; `VStore` overrides it with
    /// its registry's materialized rows.
    fn metrics(&self) -> Result<MetricsSnapshot> {
        Ok(MetricsSnapshot::default())
    }
    /// Drain the store's request-trace rings (the newest `max_traces`
    /// committed traces; 0 = all). Defaults to an empty dump for services
    /// with no tracer.
    fn trace_dump(&self, max_traces: u64) -> Result<TraceDump> {
        let _ = max_traces;
        Ok(TraceDump::default())
    }
    /// The store's request tracer, adopted by the front end at
    /// [`Server::start`] so queue wait and worker execution are spanned
    /// under the same traces the engines record into. Defaults to a
    /// disabled tracer (every span site on it is inert).
    fn tracer(&self) -> Arc<Tracer> {
        Tracer::off()
    }
}

/// One queued request: what to run and where to send the answer.
struct Job {
    id: u64,
    request: ServeRequest,
    reply: mpsc::Sender<(u64, ServeResponse)>,
    enqueued: Instant,
    /// The request's trace context (inert unless tracing is enabled and
    /// the boundary began a trace). The worker drops the job's clone just
    /// before it delivers the answer, which is what commits the trace.
    trace: TraceContext,
}

/// Statistics behind one short-held mutex. The queue itself lives in the
/// shared [`BoundedQueue`]; execution never happens under either lock —
/// workers pop, release, then run the request.
struct ServerState {
    submitted: u64,
    completed: u64,
    rejected_busy: u64,
    failed: u64,
    panics: u64,
    disconnects: u64,
    queue_wait: LatencyHistogram,
    latency: [LatencyHistogram; RequestKind::ALL.len()],
}

struct Shared {
    /// The bounded request queue: closing it is what shutdown means.
    queue: BoundedQueue<Job>,
    state: Mutex<ServerState>,
    options: ServeOptions,
    next_id: AtomicU64,
    /// The service's request tracer (disabled for services without one).
    tracer: Arc<Tracer>,
}

impl Shared {
    fn snapshot(&self) -> ServeStats {
        let state = lock_unpoisoned(&self.state);
        ServeStats {
            workers: self.options.workers,
            queue_capacity: self.options.queue_depth,
            queue_depth: self.queue.len(),
            peak_queue_depth: self.queue.peak_depth(),
            submitted: state.submitted,
            completed: state.completed,
            rejected_busy: state.rejected_busy,
            failed: state.failed,
            panics: state.panics,
            disconnects: state.disconnects,
            queue_wait: state.queue_wait.clone(),
            latency: state.latency.clone(),
        }
    }
}

/// Namespace for starting a serving front end; see [`Server::start`].
pub struct Server;

impl Server {
    /// Start a front end over `service`: validate `options`, then spawn
    /// `options.workers` executor threads, each driving its own clone of
    /// the service (for `VStore` a clone is an `Arc` bump onto the same
    /// store).
    pub fn start<S>(service: S, options: ServeOptions) -> Result<ServerHandle>
    where
        S: VideoService + Clone,
    {
        options.validate()?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(options.queue_depth),
            state: Mutex::new(ServerState {
                submitted: 0,
                completed: 0,
                rejected_busy: 0,
                failed: 0,
                panics: 0,
                disconnects: 0,
                queue_wait: LatencyHistogram::default(),
                latency: std::array::from_fn(|_| LatencyHistogram::default()),
            }),
            options,
            next_id: AtomicU64::new(0),
            tracer: service.tracer(),
        });
        let mut workers = Vec::with_capacity(options.workers);
        for i in 0..options.workers {
            let worker_shared = Arc::clone(&shared);
            let service = service.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("vstore-serve-{i}"))
                .spawn(move || worker_loop(&service, &worker_shared));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Wind down the workers already spawned instead of
                    // leaking them parked on the queue forever.
                    shared.queue.close();
                    for worker in workers {
                        #[expect(
                            clippy::let_underscore_must_use,
                            reason = "requests run under catch_panic"
                        )]
                        let _ = worker.join();
                    }
                    return Err(VStoreError::Io(e));
                }
            }
        }
        Ok(ServerHandle { shared, workers })
    }
}

/// A running serving front end. Dropping the handle shuts the server down
/// gracefully (close, drain, join); call [`shutdown`](Self::shutdown) to do
/// the same explicitly and receive the final statistics.
pub struct ServerHandle {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("workers", &self.shared.options.workers)
            .field("queue_depth", &self.queue_depth())
            .field("queue_capacity", &self.shared.options.queue_depth)
            .finish()
    }
}

impl ServerHandle {
    /// Open a client connection: its own response channel over the shared
    /// queue. Connections are independent — drop one mid-stream and the
    /// others (and the server) are unaffected.
    pub fn connect(&self) -> Connection {
        self.connector().connect()
    }

    /// A cheap, cloneable connection factory for threads that outlive
    /// their borrow of the handle (the socket front end's acceptor).
    pub fn connector(&self) -> Connector {
        Connector {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A cheap, cloneable probe reading this server's statistics (what
    /// `VStore::metrics_snapshot` aggregates).
    pub fn probe(&self) -> ServeProbe {
        ServeProbe {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.snapshot()
    }

    /// Requests currently waiting in the queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Graceful shutdown: refuse new submissions, drain every request
    /// already accepted, join the workers and return the final statistics.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_inner();
        self.shared.snapshot()
    }

    fn shutdown_inner(&mut self) {
        // Closing the queue wakes idle workers (to observe the close) and
        // blocked submitters (to fail with InvalidState).
        self.shared.queue.close();
        for worker in self.workers.drain(..) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "workers never unwind (requests run under catch_panic), so the join \
                          only fails if the runtime killed the thread"
            )]
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// A cloneable, read-only probe of one server's statistics.
#[derive(Clone)]
pub struct ServeProbe {
    shared: Arc<Shared>,
}

impl ServeProbe {
    /// A statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.snapshot()
    }

    /// `true` while the server is accepting requests; `false` once shutdown
    /// has begun. Registries keying reports off probes use this to retire
    /// dead servers instead of summing their (no longer provisioned)
    /// workers and queue capacity forever.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.shared.queue.is_open()
    }
}

/// A cheap, cloneable handle for opening [`Connection`]s from other
/// threads — how the socket front end attaches each accepted socket to the
/// shared request queue.
#[derive(Clone)]
pub struct Connector {
    shared: Arc<Shared>,
}

impl Connector {
    /// Open a connection; identical to [`ServerHandle::connect`].
    pub fn connect(&self) -> Connection {
        let (submitter, reply_rx) = self.halves();
        Connection {
            submitter,
            reply_rx,
            outstanding: 0,
            buffered: HashMap::new(),
        }
    }

    /// The two halves of a connection, unpaired: the socket front end
    /// keeps the [`Submitter`] on a connection's reader thread and gives
    /// the reply receiver to its writer thread.
    pub(crate) fn halves(&self) -> (Submitter, mpsc::Receiver<(u64, ServeResponse)>) {
        let (reply, reply_rx) = mpsc::channel();
        let submitter = Submitter {
            shared: Arc::clone(&self.shared),
            reply,
        };
        (submitter, reply_rx)
    }
}

/// The submitting half of a connection: queues requests whose answers
/// arrive as `(id, response)` on the reply channel it was created with.
/// The channel disconnects once this half is dropped and every request it
/// queued has been answered.
pub(crate) struct Submitter {
    shared: Arc<Shared>,
    reply: mpsc::Sender<(u64, ServeResponse)>,
}

impl Submitter {
    /// The server's request tracer (the service's, adopted at start).
    pub(crate) fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.shared.tracer)
    }

    /// Answer `id` without queueing anything — how the socket reader
    /// delivers a shed or undecodable request's error on the same channel
    /// as the workers' replies.
    pub(crate) fn reply(&self, id: u64, response: ServeResponse) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a receiver that is gone is not an error"
        )]
        let _ = self.reply.send((id, response));
    }

    /// Queue `request` to be answered under `id`; `enqueued` is the
    /// queue-lag stamp and `on_full` what a full queue does to the caller.
    pub(crate) fn submit(
        &self,
        id: u64,
        request: ServeRequest,
        enqueued: Instant,
        trace: TraceContext,
        on_full: QueueFullPolicy,
    ) -> Result<()> {
        request.validate()?;
        let job = Job {
            id,
            request,
            reply: self.reply.clone(),
            enqueued,
            trace,
        };
        let capacity = self.shared.options.queue_depth;
        match self.shared.queue.push(job, on_full) {
            Ok(()) => {}
            Err(PushError::Full(_)) => {
                let mut state = lock_unpoisoned(&self.shared.state);
                state.rejected_busy = state.rejected_busy.saturating_add(1);
                return Err(VStoreError::busy(format!(
                    "serve queue full (depth {capacity})"
                )));
            }
            Err(PushError::Closed {
                while_waiting: false,
                ..
            }) => {
                return Err(VStoreError::InvalidState(
                    "serve front end is shutting down".into(),
                ));
            }
            Err(PushError::Closed {
                while_waiting: true,
                ..
            }) => {
                return Err(VStoreError::InvalidState(
                    "serve front end shut down while awaiting a queue slot".into(),
                ));
            }
        }
        let mut state = lock_unpoisoned(&self.shared.state);
        state.submitted = state.submitted.saturating_add(1);
        Ok(())
    }
}

/// One client's connection to the server: submit typed (or wire-encoded)
/// requests, receive responses on a private channel, possibly pipelined and
/// out of submission order.
pub struct Connection {
    submitter: Submitter,
    reply_rx: mpsc::Receiver<(u64, ServeResponse)>,
    /// Requests submitted but not yet received.
    outstanding: usize,
    /// Responses received while waiting for a different request id.
    buffered: HashMap<u64, ServeResponse>,
}

impl Connection {
    /// Submit a request; returns its id (to pair with
    /// [`recv`](Self::recv)/[`recv_response`](Self::recv_response)).
    ///
    /// Fails with [`VStoreError::InvalidArgument`] before touching the
    /// queue when the request is malformed, with [`VStoreError::Busy`] when
    /// the bounded queue is full under [`QueueFullPolicy::Reject`], and
    /// with [`VStoreError::InvalidState`] once the server is shutting down.
    /// Under [`QueueFullPolicy::Block`] a full queue blocks the caller
    /// instead of shedding.
    pub fn submit(&mut self, request: ServeRequest) -> Result<u64> {
        let on_full = self.submitter.shared.options.on_full;
        // In-process callers inherit whatever trace the calling thread has
        // installed (inert when tracing is off or no trace is active).
        self.submit_inner(request, Instant::now(), vstore_obs::current(), on_full)
    }

    /// [`submit`](Self::submit) with a caller-supplied queue-lag stamp and
    /// trace context, for callers that materialise a request before they
    /// can queue it (a frame decoded off a socket): the queue-wait
    /// histogram then measures from `enqueued`, queue wait and worker
    /// execution land in `trace`, and a full queue always sheds with
    /// [`VStoreError::Busy`] regardless of `ServeOptions::on_full`.
    pub fn submit_traced(
        &mut self,
        request: ServeRequest,
        enqueued: Instant,
        trace: TraceContext,
    ) -> Result<u64> {
        self.submit_inner(request, enqueued, trace, QueueFullPolicy::Reject)
    }

    /// The server's request tracer (the service's, adopted at start).
    #[must_use]
    pub fn tracer(&self) -> Arc<Tracer> {
        self.submitter.tracer()
    }

    fn submit_inner(
        &mut self,
        request: ServeRequest,
        enqueued: Instant,
        trace: TraceContext,
        on_full: QueueFullPolicy,
    ) -> Result<u64> {
        let id = self
            .submitter
            .shared
            .next_id
            .fetch_add(1, Ordering::Relaxed);
        self.submitter
            .submit(id, request, enqueued, trace, on_full)?;
        self.outstanding += 1;
        Ok(id)
    }

    /// Requests submitted on this connection that have not been received
    /// yet.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.outstanding + self.buffered.len()
    }

    /// Receive the next response (any request id, completion order).
    ///
    /// Fails with [`VStoreError::InvalidState`] when nothing is
    /// outstanding — a well-behaved client can therefore never block
    /// forever here, because every outstanding request is eventually
    /// answered (workers drain the queue even during shutdown).
    pub fn recv(&mut self) -> Result<(u64, ServeResponse)> {
        if let Some(&id) = self.buffered.keys().next() {
            #[expect(clippy::expect_used, reason = "the key was just seen")]
            let response = self.buffered.remove(&id).expect("key just seen");
            return Ok((id, response));
        }
        if self.outstanding == 0 {
            return Err(VStoreError::InvalidState(
                "no outstanding requests on this connection".into(),
            ));
        }
        let (id, response) = self.reply_rx.recv().map_err(|_| {
            VStoreError::InvalidState("serve front end dropped the connection".into())
        })?;
        self.outstanding -= 1;
        Ok((id, response))
    }

    /// Receive the response of one specific request id, buffering any other
    /// responses that arrive first.
    pub fn recv_response(&mut self, id: u64) -> Result<ServeResponse> {
        if let Some(response) = self.buffered.remove(&id) {
            return Ok(response);
        }
        loop {
            if self.outstanding == 0 {
                return Err(VStoreError::InvalidState(format!(
                    "request {id} is not outstanding on this connection"
                )));
            }
            let (got, response) = self.reply_rx.recv().map_err(|_| {
                VStoreError::InvalidState("serve front end dropped the connection".into())
            })?;
            self.outstanding -= 1;
            if got == id {
                return Ok(response);
            }
            self.buffered.insert(got, response);
        }
    }

    /// Submit one request and wait for its response (convenience for
    /// non-pipelined clients).
    pub fn call(&mut self, request: ServeRequest) -> Result<ServeResponse> {
        let id = self.submit(request)?;
        self.recv_response(id)
    }

    /// [`call`](Self::call) at the wire level: decode the request bytes,
    /// serve them, encode the response bytes. Back-pressure and shutdown
    /// surface as client-side errors, exactly as in the typed API.
    pub fn call_wire(&mut self, request_bytes: &[u8]) -> Result<Vec<u8>> {
        let request = ServeRequest::from_wire(request_bytes)?;
        Ok(self.call(request)?.to_wire())
    }
}

/// Execute one request against the service.
fn execute<S: VideoService>(service: &S, request: &ServeRequest) -> Result<ServeResponse> {
    match request {
        ServeRequest::Ingest {
            source,
            first_segment,
            count,
        } => service
            .ingest(source, *first_segment, *count)
            .map(ServeResponse::Ingest),
        ServeRequest::Query {
            stream,
            spec,
            first_segment,
            count,
        } => service
            .query(stream, spec, *first_segment, *count)
            .map(ServeResponse::Query),
        ServeRequest::Erode { stream, age_days } => {
            service.erode(stream, *age_days).map(ServeResponse::Erode)
        }
        ServeRequest::LiveStats => service
            .live_stats()
            .map(|stats| ServeResponse::LiveStats(Box::new(stats))),
        ServeRequest::MetricsSnapshot => service.metrics().map(ServeResponse::Metrics),
        ServeRequest::TraceDump { max_traces } => service
            .trace_dump(*max_traces)
            .map(|dump| ServeResponse::TraceDump(Box::new(dump))),
    }
}

/// The executor loop of one worker thread.
fn worker_loop<S: VideoService>(service: &S, shared: &Shared) {
    loop {
        // `pop` blocks while the queue is open and returns `None` only once
        // it is closed and drained: the graceful exit.
        let Some(job) = shared.queue.pop() else {
            return;
        };

        let wait_us = u64::try_from(job.enqueued.elapsed().as_micros()).unwrap_or(u64::MAX);
        let kind = job.request.kind();
        // Span the queue wait and install the request's trace for the
        // execution: layers below (engines, storage reads) pick it up via
        // `vstore_obs::current()` on this thread.
        job.trace.record_since("queue.wait", job.enqueued);
        let installed = vstore_obs::install(&job.trace);
        let exec_span = job.trace.span("worker.execute");
        let started = Instant::now();
        // Panic isolation: a panicking handler answers this request with an
        // error; the worker survives to serve the next one.
        let outcome = catch_panic(|| execute(service, &job.request));
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        drop(exec_span);
        drop(installed);

        let (response, was_error, was_panic) = match outcome {
            Ok(Ok(response)) => (response, false, false),
            Ok(Err(err)) => (
                ServeResponse::Error(RemoteError::from_error(&err)),
                true,
                false,
            ),
            Err(payload) => (
                ServeResponse::Error(RemoteError::from_panic(panic_message(&payload))),
                true,
                true,
            ),
        };
        // Count the completion BEFORE delivering the response: a client
        // that has its answer must see it reflected in the statistics.
        {
            let mut state = lock_unpoisoned(&shared.state);
            state.completed = state.completed.saturating_add(1);
            if was_error {
                state.failed = state.failed.saturating_add(1);
            }
            if was_panic {
                state.panics = state.panics.saturating_add(1);
            }
            state.queue_wait.record(wait_us);
            state.latency[kind.index()].record(elapsed_us);
        }
        // Finish the trace before delivering too: the trace of a request
        // never outlasts what its client measured, and a client holding its
        // answer finds the trace committed.
        drop(job.trace);
        if job.reply.send((job.id, response)).is_err() {
            let mut state = lock_unpoisoned(&shared.state);
            state.disconnects = state.disconnects.saturating_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ErrorCode;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Condvar;
    use vstore_datasets::Dataset;
    use vstore_types::sync::wait_unpoisoned;
    use vstore_types::{ByteSize, Speed, VideoSeconds};

    /// A deterministic in-memory service: canned responses, an optional
    /// gate that parks handlers until opened, and a panic trigger on the
    /// stream name "panic".
    #[derive(Clone)]
    struct MockService {
        gate: Arc<(Mutex<bool>, Condvar)>,
        executed: Arc<AtomicUsize>,
    }

    impl MockService {
        fn new() -> Self {
            MockService {
                gate: Arc::new((Mutex::new(true), Condvar::new())),
                executed: Arc::new(AtomicUsize::new(0)),
            }
        }

        fn gated() -> Self {
            let service = Self::new();
            *lock_unpoisoned(&service.gate.0) = false;
            service
        }

        fn open_gate(&self) {
            *lock_unpoisoned(&self.gate.0) = true;
            self.gate.1.notify_all();
        }

        fn await_gate(&self) {
            let (lock, cvar) = &*self.gate;
            let mut open = lock_unpoisoned(lock);
            while !*open {
                open = wait_unpoisoned(cvar, open);
            }
        }

        fn canned_result(spec: &QuerySpec, count: u64) -> QueryResult {
            QueryResult {
                query: spec.clone(),
                video: VideoSeconds(count as f64 * 8.0),
                speed: Speed(100.0),
                positive_frames: vec![count],
                stages: Vec::new(),
                bytes_read: ByteSize(count * 10),
                segments_skipped: 0,
            }
        }
    }

    impl VideoService for MockService {
        fn ingest(
            &self,
            _source: &VideoSource,
            _first_segment: u64,
            count: u64,
        ) -> Result<IngestReport> {
            self.await_gate();
            self.executed.fetch_add(1, Ordering::Relaxed);
            Ok(IngestReport {
                video: VideoSeconds(count as f64 * 8.0),
                segments_written: count as usize,
                ..IngestReport::default()
            })
        }

        fn query(
            &self,
            stream: &str,
            spec: &QuerySpec,
            _first_segment: u64,
            count: u64,
        ) -> Result<QueryResult> {
            self.await_gate();
            if stream == "panic" {
                panic!("mock operator exploded");
            }
            if stream == "missing" {
                return Err(VStoreError::not_found("no such stream"));
            }
            self.executed.fetch_add(1, Ordering::Relaxed);
            Ok(Self::canned_result(spec, count))
        }

        fn erode(&self, _stream: &str, age_days: u32) -> Result<ErodeReport> {
            self.await_gate();
            self.executed.fetch_add(1, Ordering::Relaxed);
            Ok(ErodeReport {
                age_days,
                segments_deleted: age_days as usize,
                ..ErodeReport::default()
            })
        }
    }

    fn query_request(stream: &str, count: u64) -> ServeRequest {
        ServeRequest::Query {
            stream: stream.into(),
            spec: QuerySpec::query_a(0.8),
            first_segment: 0,
            count,
        }
    }

    #[test]
    fn start_validates_options() {
        let err = Server::start(MockService::new(), ServeOptions::default().with_workers(0))
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn requests_round_trip_through_the_server() {
        let server = Server::start(
            MockService::new(),
            ServeOptions::default().with_workers(2).with_queue_depth(8),
        )
        .unwrap();
        let mut conn = server.connect();
        match conn.call(query_request("jackson", 3)).unwrap() {
            ServeResponse::Query(result) => {
                assert_eq!(
                    result,
                    MockService::canned_result(&QuerySpec::query_a(0.8), 3)
                );
            }
            other => panic!("unexpected response {other:?}"),
        }
        match conn
            .call(ServeRequest::Erode {
                stream: "jackson".into(),
                age_days: 5,
            })
            .unwrap()
        {
            ServeResponse::Erode(report) => assert_eq!(report.segments_deleted, 5),
            other => panic!("unexpected response {other:?}"),
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.latency[RequestKind::Query.index()].count(), 1);
        assert_eq!(stats.latency[RequestKind::Erode.index()].count(), 1);
    }

    #[test]
    fn malformed_requests_are_rejected_before_the_queue() {
        let server = Server::start(MockService::new(), ServeOptions::sequential()).unwrap();
        let mut conn = server.connect();
        let err = conn.submit(query_request("", 1)).unwrap_err();
        assert!(matches!(err, VStoreError::InvalidArgument(_)), "{err}");
        assert_eq!(server.stats().submitted, 0);
    }

    /// Deterministic load shedding: with one gated worker and a queue of
    /// one, the third submission must be shed with `Busy` — and the shed
    /// request is never executed.
    #[test]
    fn full_queue_sheds_with_busy_under_reject() {
        let service = MockService::gated();
        let server = Server::start(service.clone(), ServeOptions::sequential()).unwrap();
        let mut conn = server.connect();
        // Job 1 is popped by the (gated) worker; wait until the queue is
        // empty again so the fill below is deterministic.
        let first = conn.submit(query_request("jackson", 1)).unwrap();
        while server.queue_depth() > 0 {
            std::thread::yield_now();
        }
        // Job 2 fills the queue's single slot; job 3 must shed.
        let second = conn.submit(query_request("jackson", 2)).unwrap();
        let err = conn.submit(query_request("jackson", 3)).unwrap_err();
        assert!(err.is_busy(), "{err}");
        assert_eq!(server.stats().rejected_busy, 1);

        service.open_gate();
        let r1 = conn.recv_response(first).unwrap();
        let r2 = conn.recv_response(second).unwrap();
        assert!(!r1.is_error() && !r2.is_error());
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.rejected_busy, 1);
        assert_eq!(stats.peak_queue_depth, 1);
    }

    /// Under the Block policy the same overload blocks the submitter until
    /// a slot frees instead of shedding.
    #[test]
    fn full_queue_blocks_under_block_policy() {
        let service = MockService::gated();
        let server = Server::start(
            service.clone(),
            ServeOptions::sequential().with_on_full(QueueFullPolicy::Block),
        )
        .unwrap();
        let mut conn = server.connect();
        let first = conn.submit(query_request("jackson", 1)).unwrap();
        while server.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let second = conn.submit(query_request("jackson", 2)).unwrap();
        // The queue slot is taken: a third submission blocks until the gate
        // opens and the worker frees the slot.
        let probe = server.probe();
        let submitter = std::thread::spawn({
            let mut conn = server.connect();
            move || {
                let id = conn.submit(query_request("jackson", 3)).unwrap();
                let response = conn.recv_response(id).unwrap();
                assert!(!response.is_error());
            }
        });
        service.open_gate();
        submitter.join().unwrap();
        let r1 = conn.recv_response(first).unwrap();
        let r2 = conn.recv_response(second).unwrap();
        assert!(!r1.is_error() && !r2.is_error());
        let stats = server.shutdown();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.rejected_busy, 0);
        assert_eq!(probe.stats().completed, 3);
    }

    /// The acceptance criterion: a worker panic fails only that request —
    /// the same connection and the server keep serving.
    #[test]
    fn worker_panic_fails_only_that_request() {
        let server = Server::start(
            MockService::new(),
            ServeOptions::default().with_workers(2).with_queue_depth(8),
        )
        .unwrap();
        let mut conn = server.connect();
        let panicking = conn.submit(query_request("panic", 1)).unwrap();
        match conn.recv_response(panicking).unwrap() {
            ServeResponse::Error(err) => {
                assert_eq!(err.code, ErrorCode::Panicked);
                assert!(
                    err.message.contains("mock operator exploded"),
                    "{}",
                    err.message
                );
            }
            other => panic!("expected a panic error, got {other:?}"),
        }
        // The same connection and server still serve.
        for round in 1..=3 {
            let response = conn.call(query_request("jackson", round)).unwrap();
            assert!(!response.is_error());
        }
        let stats = server.shutdown();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 4);
    }

    /// Service-level errors cross the wire typed; the server keeps serving.
    #[test]
    fn service_errors_become_error_responses() {
        let server = Server::start(MockService::new(), ServeOptions::sequential()).unwrap();
        let mut conn = server.connect();
        match conn.call(query_request("missing", 1)).unwrap() {
            ServeResponse::Error(err) => {
                assert_eq!(err.code, ErrorCode::NotFound);
                assert!(err.into_error().is_not_found());
            }
            other => panic!("expected an error, got {other:?}"),
        }
        let stats = server.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.panics, 0);
    }

    /// Dropping a connection with requests in flight never disturbs the
    /// server: the orphaned responses are counted and discarded.
    #[test]
    fn mid_stream_disconnect_is_tolerated() {
        let service = MockService::gated();
        let server = Server::start(
            service.clone(),
            ServeOptions::default().with_workers(1).with_queue_depth(8),
        )
        .unwrap();
        let mut doomed = server.connect();
        doomed.submit(query_request("jackson", 1)).unwrap();
        doomed.submit(query_request("jackson", 2)).unwrap();
        drop(doomed);
        let mut survivor = server.connect();
        let id = survivor.submit(query_request("jackson", 3)).unwrap();
        service.open_gate();
        assert!(!survivor.recv_response(id).unwrap().is_error());
        let stats = server.shutdown();
        assert_eq!(stats.disconnects, 2);
        assert_eq!(stats.completed, 3);
    }

    /// Graceful shutdown drains everything already accepted before the
    /// workers exit, and later submissions fail cleanly.
    #[test]
    fn shutdown_drains_accepted_requests() {
        let service = MockService::gated();
        let server = Server::start(
            service.clone(),
            ServeOptions::default().with_workers(2).with_queue_depth(16),
        )
        .unwrap();
        let mut conn = server.connect();
        let ids: Vec<u64> = (1..=6)
            .map(|i| conn.submit(query_request("jackson", i)).unwrap())
            .collect();
        service.open_gate();
        let stats = server.shutdown();
        assert_eq!(stats.completed, 6, "shutdown must drain the queue");
        for id in ids {
            assert!(!conn.recv_response(id).unwrap().is_error());
        }
        // The server is gone; submitting again fails cleanly.
        let err = conn.submit(query_request("jackson", 1)).unwrap_err();
        assert!(matches!(err, VStoreError::InvalidState(_)), "{err}");
    }

    /// Pipelined submissions on one connection may complete out of order;
    /// recv_response pairs ids correctly via buffering.
    #[test]
    fn out_of_order_completion_is_paired_by_id() {
        let server = Server::start(
            MockService::new(),
            ServeOptions::default().with_workers(4).with_queue_depth(32),
        )
        .unwrap();
        let mut conn = server.connect();
        let ids: Vec<u64> = (1..=16)
            .map(|i| conn.submit(query_request("jackson", i)).unwrap())
            .collect();
        assert_eq!(conn.pending(), 16);
        // Receive in reverse submission order to force buffering.
        for (i, &id) in ids.iter().enumerate().rev() {
            match conn.recv_response(id).unwrap() {
                ServeResponse::Query(result) => {
                    assert_eq!(result.positive_frames, vec![i as u64 + 1]);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(conn.pending(), 0);
        assert!(conn.recv().is_err(), "nothing outstanding");
    }

    /// Queue-lag regression: `submit_traced` honours the caller's stamp,
    /// so a socket frame stamped at decode time records its true lag —
    /// while the in-process path keeps stamping at submission.
    #[test]
    fn queue_wait_is_measured_from_the_callers_stamp() {
        let server = Server::start(
            MockService::new(),
            ServeOptions::default().with_workers(1).with_queue_depth(8),
        )
        .unwrap();
        let mut conn = server.connect();
        // A frame "decoded" 80 ms ago: the histogram must see >= 80 ms of
        // lag even though the worker pops it immediately.
        let decoded_at = Instant::now() - std::time::Duration::from_millis(80);
        let id = conn
            .submit_traced(
                query_request("jackson", 1),
                decoded_at,
                TraceContext::disabled(),
            )
            .unwrap();
        assert!(!conn.recv_response(id).unwrap().is_error());
        let stamped = server.stats();
        assert!(
            stamped.queue_wait.max_us() >= 80_000,
            "decode-time stamp ignored: max wait {} µs",
            stamped.queue_wait.max_us()
        );
        // The in-process path on an idle server stays far below that.
        let id = conn.submit(query_request("jackson", 1)).unwrap();
        assert!(!conn.recv_response(id).unwrap().is_error());
        let stats = server.shutdown();
        assert_eq!(stats.queue_wait.count(), 2);
    }

    /// `submit_traced` sheds a full queue non-blockingly even when the
    /// server's policy is Block: a socket reader must never park on submit.
    #[test]
    fn submit_traced_sheds_instead_of_blocking() {
        let service = MockService::gated();
        let server = Server::start(
            service.clone(),
            ServeOptions::sequential().with_on_full(QueueFullPolicy::Block),
        )
        .unwrap();
        let mut conn = server.connect();
        let mut submit = |count| {
            let request = query_request("jackson", count);
            conn.submit_traced(request, Instant::now(), TraceContext::disabled())
        };
        let first = submit(1).unwrap();
        while server.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let second = submit(2).unwrap();
        let err = submit(3).unwrap_err();
        assert!(err.is_busy(), "{err}");
        service.open_gate();
        assert!(!conn.recv_response(first).unwrap().is_error());
        assert!(!conn.recv_response(second).unwrap().is_error());
    }

    /// The default net-stats handler answers idle; mocks need no override.
    /// The wire-level API serves encoded frames end to end.
    #[test]
    fn wire_calls_round_trip() {
        let server = Server::start(MockService::new(), ServeOptions::default()).unwrap();
        let mut conn = server.connect();
        let request = ServeRequest::Ingest {
            source: VideoSource::new(Dataset::Park),
            first_segment: 0,
            count: 2,
        };
        let response_bytes = conn.call_wire(&request.to_wire()).unwrap();
        match ServeResponse::from_wire(&response_bytes).unwrap() {
            ServeResponse::Ingest(report) => assert_eq!(report.segments_written, 2),
            other => panic!("unexpected {other:?}"),
        }
        // Garbage in → typed corruption out, nothing submitted.
        assert!(conn.call_wire(b"junk").is_err());
    }
}
