//! The serving loop: an event-loop TCP front on the query engine.
//!
//! Architecture (no async runtime, no worker pool — a vendored epoll
//! reactor whose I/O threads run each request to completion; see
//! [`crate::reactor`]):
//!
//! ```text
//! acceptor thread ──► I/O threads (each: epoll + nonblocking conns)
//!                        │  reassemble frames → decode → claim tag → validate dim
//!                        │  within this turn's budget ──► engine.query ──► encoded hits
//!                        │  past it ──► Overloaded(retry-after) reply
//!                        └─► reply frames queued on the same connection
//! ```
//!
//! * **Run to completion** — the I/O thread that decodes a query answers
//!   it with one [`QueryEngine::query`] call (cache hit or miss alike) and
//!   queues the reply on the connection it came from. No queue, no
//!   hand-off, no wake-up between threads: `io_threads` queries run at
//!   once, whether they arrived on many connections or pipelined on one.
//! * **Multiplexing** — protocol v2 tags every request, so one connection
//!   may hold many requests in flight; reply routing is by tag. A tag is
//!   in flight from decode until its last reply frame is written, so a
//!   duplicate is a protocol violation even after a cache hit.
//! * **Admission control** — per loop turn (one `wait` pass): past
//!   [`ServeConfig::resolved_queue_capacity`] queries decoded in the
//!   turn, the rest are *shed* with an explicit [`Response::Overloaded`]
//!   reply carrying a retry-after hint that grows with the turn's backlog.
//! * **Backpressure** — each connection's outbound queue is bounded
//!   ([`ServeConfig::max_conn_queued_bytes`]); past it the reactor stops
//!   reading that socket until replies drain, so a slow reader throttles
//!   itself instead of ballooning server memory.
//! * **Stats bypass admission** — a health probe must answer *especially*
//!   under overload, so `Stats` requests are served inline from atomic
//!   counters and never count against the turn's budget.
//!
//! Results are bit-identical to in-process [`QueryEngine`] calls — the
//! wire moves exact `f32` bit patterns, and routing is tag-tracked, never
//! positional.

use crate::conn::ConnState;
use crate::reactor::{run_io_loop, IoHandle};
use crate::wire::{
    decode_request, encode_hits_payloads, encode_response, payload_tag, write_frame, Request,
    Response, StatsReply, WorkerStats, CONNECTION_TAG, MAX_FRAME_LEN,
};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tabbin_index::{QueryEngine, ShardedStore};

/// Construction-time options for a [`Server`]. How many shards a query
/// probes and when the WAL fsyncs are not server options: the engine's
/// `NprobePolicy` and the store's `StoreConfig::durability` say each once.
/// Graceful [`shutdown`](Server::shutdown) always flushes the WAL.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Has no effect: the I/O threads answer every query themselves. Kept
    /// only because the `e2e` benchmark's frozen configuration sets it.
    pub workers: usize,
    /// I/O threads owning the client sockets; each runs the queries it
    /// decodes, so this is also how many queries run at once.
    pub io_threads: usize,
    /// Queries one I/O thread admits per turn (one `wait` pass); the rest
    /// of the turn's queries are shed with [`Response::Overloaded`]. `0`
    /// means auto: 32.
    pub queue_capacity: usize,
    /// Most concurrent connections; further accepts are answered with one
    /// `Overloaded` frame and closed.
    pub max_connections: usize,
    /// Per-connection outbound queue bound in bytes; past it the reactor
    /// pauses reads on that connection until replies drain.
    pub max_conn_queued_bytes: usize,
}

impl Default for ServeConfig {
    /// Two I/O threads, auto queue capacity (32), 1024 connections, and
    /// 4 MiB of queued replies per connection (`workers` 4, unused).
    fn default() -> Self {
        Self {
            workers: 4,
            io_threads: 2,
            queue_capacity: 0,
            max_connections: 1024,
            max_conn_queued_bytes: 4 << 20,
        }
    }
}

/// The admission budget per turn that `queue_capacity: 0` resolves to.
const AUTO_QUEUE_CAPACITY: usize = 32;

impl ServeConfig {
    /// The per-turn admission budget actually used: `queue_capacity`, or
    /// 32 when it is the auto value `0`.
    pub fn resolved_queue_capacity(&self) -> usize {
        if self.queue_capacity == 0 {
            AUTO_QUEUE_CAPACITY
        } else {
            self.queue_capacity
        }
    }
}

/// State shared by the acceptor and the I/O threads.
struct Shared {
    engine: Arc<QueryEngine<ShardedStore>>,
    cfg: ServeConfig,
    io: Vec<Arc<IoHandle>>,
    /// Queries admitted and not yet answered, across all I/O threads.
    depth: AtomicUsize,
    /// Connections currently registered with an I/O thread (or en route).
    connections: AtomicUsize,
    shed: AtomicU64,
    /// Queries answered, each by one `engine.query` call.
    served: AtomicU64,
    shutdown: AtomicBool,
}

impl Shared {
    fn stats(&self) -> StatsReply {
        let engine = &self.engine;
        let served = self.served.load(Ordering::Relaxed);
        let shards = engine.store().stats();
        let wal = engine.store().wal_stats();
        StatsReply {
            shard_depths: shards.depths(),
            imbalance: shards.imbalance(),
            shards,
            engine: engine.stats(),
            batcher: WorkerStats { submitted: served, batches: served },
            queue_depth: self.depth.load(Ordering::Relaxed),
            queue_capacity: self.cfg.resolved_queue_capacity(),
            connections: self.connections.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            served,
            router: engine.store().router_name().to_string(),
            nprobe: engine.plan(1).nprobe,
            wal_depth_bytes: wal.map_or(0, |w| w.depth_bytes),
            last_fsync_lsn: wal.map_or(0, |w| w.last_fsync_lsn),
            replay_records: wal.map_or(0, |w| w.replay_records),
        }
    }

    /// The `Overloaded` backoff hint for a backlog of `backlog` queries:
    /// one millisecond per full turn's budget of them, between 1 and
    /// 10 000 — coarse but monotone, so clients back off harder the deeper
    /// the overload.
    fn retry_after_hint(&self, backlog: usize) -> u32 {
        (backlog / self.cfg.resolved_queue_capacity()).clamp(1, 10_000) as u32
    }
}

/// A running server: acceptor + I/O threads over one engine. Dropping the
/// handle leaks the threads; call [`shutdown`](Server::shutdown) for an
/// orderly stop.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    io_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral loopback port) and starts
    /// serving `engine` with `cfg`'s I/O threads and admission bounds.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        engine: Arc<QueryEngine<ShardedStore>>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        assert!(cfg.io_threads > 0, "server needs at least one I/O thread");
        assert!(cfg.max_connections > 0, "server needs at least one connection slot");
        assert!(
            cfg.max_conn_queued_bytes > MAX_FRAME_LEN as usize,
            "write-queue bound below one frame would wedge large replies"
        );
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let io: Vec<Arc<IoHandle>> = (0..cfg.io_threads)
            .map(|_| IoHandle::new().map(Arc::new))
            .collect::<io::Result<_>>()?;
        let shared = Arc::new(Shared {
            engine,
            cfg,
            io,
            depth: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });

        let io_threads = (0..cfg.io_threads)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let handle = Arc::clone(&shared.io[idx]);
                    run_io_loop(
                        &handle,
                        &shared.shutdown,
                        shared.cfg.max_conn_queued_bytes,
                        |state, payload, turn| handle_payload(&shared, state, payload, turn),
                        || {
                            shared.connections.fetch_sub(1, Ordering::SeqCst);
                        },
                    );
                })
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        Ok(Server { addr: local, shared, acceptor: Some(acceptor), io_threads })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's health counters, as a `Stats` request would see them.
    pub fn stats(&self) -> StatsReply {
        self.shared.stats()
    }

    /// Stops accepting and joins the service threads. Open connections see
    /// EOF on their next read.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for h in &self.shared.io {
            let _ = h.poller.notify();
        }
        // Unblock the acceptor with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.io_threads.drain(..) {
            let _ = h.join();
        }
        // No query is running any more; make everything logged durable so
        // a graceful stop under `Interval`/`Never` loses nothing.
        let _ = self.shared.engine.store().wal_flush();
    }
}

/// The per-payload policy hook the reactor calls with each complete
/// inbound frame: claim the tag, decode, validate, then answer on this
/// thread — stats, errors, sheds and queries alike. `turn` counts the
/// queries this I/O thread has decoded in the current turn, shed or not.
fn handle_payload(shared: &Shared, state: &mut ConnState, payload: &[u8], turn: &mut usize) {
    let tag = match payload_tag(payload) {
        Some(CONNECTION_TAG) => {
            let err = Response::Error("tag 0 is reserved for connection-level messages".into());
            return fatal(state, &err);
        }
        Some(tag) => tag,
        None => {
            let err = Response::Error(format!("runt payload of {} bytes", payload.len()));
            return fatal(state, &err);
        }
    };
    if !state.begin_tag(tag) {
        // Two in-flight requests with one tag would produce
        // indistinguishable replies; the stream is no longer trustworthy,
        // so this is fatal, not per-request.
        return fatal(state, &Response::Error(format!("tag {tag} is already in flight")));
    }
    let reply = |state: &mut ConnState, resp: &Response| {
        state.enqueue_reply(tag, &[encode_response(tag, resp)]);
    };
    let (k, vector) = match decode_request(payload) {
        // The framing is intact and the tag readable — the peer can match
        // the error to its request, and the connection lives.
        Err(e) => return reply(state, &Response::Error(e.to_string())),
        Ok((_, Request::Stats)) => {
            let payload = encode_response(tag, &Response::Stats(Box::new(shared.stats())));
            if payload.len() > MAX_FRAME_LEN as usize {
                // A many-shard stats body can outgrow a frame; degrade to
                // an in-band error instead of breaking the stream.
                let err = Response::Error(format!(
                    "stats reply of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame bound",
                    payload.len()
                ));
                return reply(state, &err);
            }
            return state.enqueue_reply(tag, &[payload]);
        }
        Ok((_, Request::Query { k, vector })) => (k as usize, vector),
    };
    let dim = shared.engine.dim();
    if vector.len() != dim {
        let err = Response::Error(format!("query of {} components, store is {dim}", vector.len()));
        return reply(state, &err);
    }
    *turn += 1;
    if *turn > shared.cfg.resolved_queue_capacity() {
        shared.shed.fetch_add(1, Ordering::Relaxed);
        let resp = Response::Overloaded { retry_after_millis: shared.retry_after_hint(*turn) };
        return reply(state, &resp);
    }
    shared.depth.fetch_add(1, Ordering::Relaxed);
    let hits = shared.engine.query(&vector, k);
    shared.depth.fetch_sub(1, Ordering::Relaxed);
    shared.served.fetch_add(1, Ordering::Relaxed);
    state.enqueue_reply(tag, &encode_hits_payloads(tag, &hits));
}

/// Queues a connection-level error and closes the connection after flush.
fn fatal(state: &mut ConnState, err: &Response) {
    state.enqueue(&encode_response(CONNECTION_TAG, err));
    state.close_after_flush();
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut next_io = 0usize;
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Connection admission mirrors request admission: past the cap,
        // shed with one Overloaded frame on the connection tag and close.
        // The short write timeout keeps a peer that refuses to read from
        // pinning the acceptor.
        if shared.connections.load(Ordering::SeqCst) >= shared.cfg.max_connections {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            stream.set_write_timeout(Some(Duration::from_millis(100))).ok();
            let backlog = shared.depth.load(Ordering::Relaxed);
            let resp =
                Response::Overloaded { retry_after_millis: shared.retry_after_hint(backlog) };
            let mut framed = Vec::new();
            let _ = write_frame(&mut framed, &encode_response(CONNECTION_TAG, &resp));
            let mut w = &stream;
            let _ = w.write_all(&framed);
            continue;
        }
        shared.connections.fetch_add(1, Ordering::SeqCst);
        shared.io[next_io].push_conn(stream);
        next_io = (next_io + 1) % shared.io.len();
    }
}
