//! The socket front end: a TCP listener whose acceptor gives every
//! connection a blocking reader thread and a blocking writer thread over
//! the in-process [`Server`]'s bounded queue.
//!
//! ```text
//!             accept       per connection           bounded queue
//!  clients ──► acceptor ──► reader: read, decode, ─ submit ─► worker 0
//!    (TCP)     thread               stamp                 ├─► worker 1
//!                           writer: recv, coalesce,       └─► worker …
//!                ◄───────────       write_all  ◄── reply channel ──┘
//! ```
//!
//! Nothing on the request path polls: a reader sleeps in the kernel until
//! bytes arrive, a writer sleeps on its connection's reply channel until a
//! response exists (see [`crate::conn`] for both loops). Threads are
//! `2 × active connections + 1`, bounded by `NetOptions::max_connections`.
//!
//! Shutdown is a drain: the acceptor stops accepting and shuts the read
//! half of every socket, which wakes each reader with end-of-stream; every
//! request already decoded is answered and written, then sockets close and
//! every connection thread is joined. A peer that has not taken its
//! responses by a hard deadline is cut instead of wedging the drain.

use crate::conn::{spawn_connection, BufferPool};
use crate::server::{Connector, ServeProbe, Server, ServerHandle, VideoService};
use crate::stats::{NetStats, ServeStats};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vstore_types::hist::LatencyHistogram;
use vstore_types::sync::lock_unpoisoned;
use vstore_types::{NetOptions, Result, ServeOptions, VStoreError};

/// Idle buffers the pool retains across all connections.
const POOL_CAPACITY: usize = 256;
/// Buffers grown past this are dropped rather than pooled, bounding the
/// pool's resident memory after a burst of jumbo frames.
const POOL_RETAIN_BYTES: usize = 256 * 1024;
/// Acceptor poll interval while the listen backlog is empty.
const ACCEPT_POLL: Duration = Duration::from_micros(500);
/// Hard bound on the graceful drain once shutdown begins.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Counters the acceptor and the connection threads update; one mutex,
/// short holds.
#[derive(Default)]
pub(crate) struct NetState {
    accepted: u64,
    refused: u64,
    active_connections: usize,
    frames_in: u64,
    frames_out: u64,
    bytes_in: u64,
    bytes_out: u64,
    corrupt_frames: u64,
    oversized_frames: u64,
    disconnects: u64,
    write_syscalls: u64,
    batch_sizes: LatencyHistogram,
    backlog_peaks: LatencyHistogram,
}

/// State shared between the acceptor, the connection threads and every
/// handle.
pub(crate) struct NetShared {
    pub(crate) options: NetOptions,
    state: Mutex<NetState>,
    pub(crate) pool: BufferPool,
    stop: AtomicBool,
}

impl NetShared {
    /// One request frame of `bytes` (envelope included) decoded.
    pub(crate) fn add_frame_in(&self, bytes: u64) {
        let mut state = lock_unpoisoned(&self.state);
        state.frames_in += 1;
        state.bytes_in += bytes;
    }

    pub(crate) fn count_corrupt_frame(&self) {
        lock_unpoisoned(&self.state).corrupt_frames += 1;
    }

    pub(crate) fn count_oversized_frame(&self) {
        lock_unpoisoned(&self.state).oversized_frames += 1;
    }

    /// One batch written: `bytes` moved, `frames` response frames in it.
    pub(crate) fn record_write(&self, bytes: u64, frames: u64) {
        let mut state = lock_unpoisoned(&self.state);
        state.write_syscalls += 1;
        state.bytes_out += bytes;
        state.frames_out += frames;
        state.batch_sizes.record(frames);
    }

    /// A connection closed; `lost` when its peer vanished or was cut with
    /// responses still owed.
    pub(crate) fn close_connection(&self, lost: bool, peak_backlog: u64) {
        let mut state = lock_unpoisoned(&self.state);
        state.active_connections = state.active_connections.saturating_sub(1);
        if peak_backlog > 0 {
            state.backlog_peaks.record(peak_backlog);
        }
        if lost {
            state.disconnects += 1;
        }
    }

    /// `true` once shutdown has begun: readers accept nothing new.
    pub(crate) fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    fn snapshot(&self) -> NetStats {
        let (pool_hits, pool_misses) = self.pool.counts();
        let state = lock_unpoisoned(&self.state);
        NetStats {
            accepted: state.accepted,
            refused: state.refused,
            active_connections: state.active_connections,
            frames_in: state.frames_in,
            frames_out: state.frames_out,
            bytes_in: state.bytes_in,
            bytes_out: state.bytes_out,
            corrupt_frames: state.corrupt_frames,
            oversized_frames: state.oversized_frames,
            disconnects: state.disconnects,
            write_syscalls: state.write_syscalls,
            pool_hits,
            pool_misses,
            batch_sizes: state.batch_sizes.clone(),
            backlog_peaks: state.backlog_peaks.clone(),
        }
    }
}

/// Namespace for starting the socket front end; see [`NetServer::start`].
pub struct NetServer;

impl NetServer {
    /// Bind `addr`, start an in-process [`Server`] over `service` with
    /// `serve` options, and accept connections onto it. Bind to port 0 to
    /// let the OS choose (see [`NetServerHandle::local_addr`]).
    pub fn start<S>(
        service: S,
        addr: impl ToSocketAddrs,
        net: NetOptions,
        serve: ServeOptions,
    ) -> Result<NetServerHandle>
    where
        S: VideoService + Clone,
    {
        net.validate()?;
        let inner = Server::start(service, serve)?;
        let listener = TcpListener::bind(addr).map_err(VStoreError::Io)?;
        listener.set_nonblocking(true).map_err(VStoreError::Io)?;
        let local_addr = listener.local_addr().map_err(VStoreError::Io)?;

        let shared = Arc::new(NetShared {
            options: net,
            state: Mutex::new(NetState::default()),
            pool: BufferPool::new(POOL_CAPACITY, POOL_RETAIN_BYTES),
            stop: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let connector = inner.connector();
        let acceptor = std::thread::Builder::new()
            .name("vstore-net-accept".into())
            .spawn(move || acceptor_loop(&listener, &accept_shared, &connector))
            .map_err(VStoreError::Io)?;

        Ok(NetServerHandle {
            inner: Some(inner),
            shared,
            local_addr,
            acceptor: Some(acceptor),
        })
    }
}

/// A running socket front end. Dropping the handle drains and shuts it
/// down; call [`shutdown`](Self::shutdown) to do the same explicitly and
/// receive the final statistics.
pub struct NetServerHandle {
    inner: Option<ServerHandle>,
    shared: Arc<NetShared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for NetServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServerHandle")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl NetServerHandle {
    /// The bound address — the real port when started on port 0.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A network-layer statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.shared.snapshot()
    }

    /// A request-layer statistics snapshot from the inner server.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "`inner` is Some until shutdown() consumes self"
    )]
    pub fn serve_stats(&self) -> ServeStats {
        self.inner
            .as_ref()
            .expect("inner server lives until shutdown")
            .stats()
    }

    /// A cheap probe of the network statistics.
    pub fn probe(&self) -> NetProbe {
        NetProbe {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A probe of the inner server's request statistics.
    #[expect(
        clippy::expect_used,
        reason = "`inner` is Some until shutdown() consumes self"
    )]
    pub fn serve_probe(&self) -> ServeProbe {
        self.inner
            .as_ref()
            .expect("inner server lives until shutdown")
            .probe()
    }

    /// Graceful drain: stop accepting and reading, answer and write every
    /// request already decoded (a peer still not taking its responses
    /// after 5 s is cut), close the sockets, join every connection thread,
    /// then shut the inner server down. Returns both final statistics.
    pub fn shutdown(mut self) -> (NetStats, ServeStats) {
        self.shutdown_net();
        #[expect(
            clippy::expect_used,
            reason = "`inner` is Some until this call consumes self"
        )]
        let serve = self
            .inner
            .take()
            .expect("inner server lives until shutdown")
            .shutdown();
        (self.shared.snapshot(), serve)
    }

    fn shutdown_net(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        // The acceptor drains and joins every connection before it ends.
        if let Some(acceptor) = self.acceptor.take() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a dead acceptor has nothing left to drain"
            )]
            let _ = acceptor.join();
        }
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        // Connections need the inner server's workers alive to drain, so
        // stop the network side first; the inner handle's own Drop then
        // shuts the workers down.
        self.shutdown_net();
    }
}

/// A cloneable, read-only probe of the socket front end's statistics.
#[derive(Clone)]
pub struct NetProbe {
    shared: Arc<NetShared>,
}

impl NetProbe {
    /// A statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.shared.snapshot()
    }

    /// `true` until shutdown begins; registries retire dead front ends
    /// and keep only their history.
    #[must_use]
    pub fn is_live(&self) -> bool {
        !self.shared.is_stopping()
    }
}

/// One served connection as the acceptor keeps it: the socket (shared
/// with the connection's two threads, so a drain can shut it) and the
/// reader thread's handle.
type Served = (Arc<TcpStream>, JoinHandle<()>);

fn acceptor_loop(listener: &TcpListener, shared: &Arc<NetShared>, connector: &Connector) {
    // Connections announce their end here by id, so the acceptor joins
    // exactly the threads that are done and can wait on the rest.
    let (done_tx, done_rx) = mpsc::channel();
    let mut served: HashMap<u64, Served> = HashMap::new();
    let reap = |served: &mut HashMap<u64, Served>, id| {
        if let Some((_, handle)) = served.remove(&id) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "the connection has ended either way"
            )]
            let _ = handle.join();
        }
    };
    while !shared.is_stopping() {
        while let Ok(id) = done_rx.try_recv() {
            reap(&mut served, id);
        }
        match listener.accept() {
            Ok((stream, _peer)) => served.extend(admit(stream, shared, connector, &done_tx)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    // Drain: end-of-stream wakes every blocked reader; its writer answers
    // what is in flight and the pair ends.
    for (stream, _) in served.values() {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a socket the peer already closed needs no drain"
        )]
        let _ = stream.shutdown(Shutdown::Read);
    }
    let deadline = Instant::now() + DRAIN_DEADLINE;
    while !served.is_empty() {
        match done_rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(id) => reap(&mut served, id),
            Err(_) => break,
        }
    }
    // Past the deadline a peer that will not take its responses is cut,
    // which fails its writer's blocked write.
    for (stream, handle) in served.into_values() {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the peer is being cut either way"
        )]
        let _ = stream.shutdown(Shutdown::Both);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the connection has ended either way"
        )]
        let _ = handle.join();
    }
}

/// Admit one accepted socket under the connection cap and start its
/// threads; a socket that cannot be served is dropped (closing it) and
/// counted as refused.
fn admit(
    stream: TcpStream,
    shared: &Arc<NetShared>,
    connector: &Connector,
    done: &mpsc::Sender<u64>,
) -> Option<(u64, Served)> {
    let id = {
        let mut state = lock_unpoisoned(&shared.state);
        if state.active_connections >= shared.options.max_connections {
            state.refused += 1;
            return None;
        }
        state.accepted += 1;
        state.active_connections += 1;
        state.accepted
    };
    // Both halves of the protocol are latency-sensitive and self-batching,
    // so Nagle only adds stalls.
    #[expect(
        clippy::let_underscore_must_use,
        reason = "Nagle is a latency cost, not a correctness one"
    )]
    let _ = stream.set_nodelay(true);
    let stream = Arc::new(stream);
    let spawned = stream.set_nonblocking(false).and_then(|()| {
        let (stream, shared) = (Arc::clone(&stream), Arc::clone(shared));
        spawn_connection(stream, shared, connector.clone(), id, done.clone())
    });
    match spawned {
        Ok(handle) => Some((id, (stream, handle))),
        Err(_) => {
            let mut state = lock_unpoisoned(&shared.state);
            state.active_connections -= 1;
            state.refused += 1;
            None
        }
    }
}
