//! The serving loop: an event-loop TCP front on the query engine.
//!
//! Architecture (no async runtime — a vendored epoll reactor and a worker
//! pool; see [`crate::reactor`]):
//!
//! ```text
//! acceptor thread ──► I/O threads (each: epoll + nonblocking conns)
//!                        │  reassemble frames → decode → validate tag/dim
//!                        │  engine.try_cached hit ──► reply inline
//!                        │  miss: try_send ──► bounded admission queue ──► worker pool
//!                        │     │ full                                         │
//!                        │     ▼                                              ▼
//!                        │  Overloaded(retry-after) reply                engine.query
//!                        ◄── completion mailbox ◄────────────────────── encoded hits
//! ```
//!
//! * **Multiplexing** — protocol v2 tags every request, so one connection
//!   may hold many requests in flight and replies return as workers
//!   finish, out of order. The I/O threads own the sockets; workers never
//!   block on a peer.
//! * **Admission control** — the queue between I/O threads and workers is
//!   a bounded `sync_channel` ([`ServeConfig::queue_capacity`], default
//!   8× the worker count). `try_send` never blocks: past capacity the
//!   request is *shed* with an explicit [`Response::Overloaded`] reply
//!   carrying a retry-after hint derived from the queue depth.
//! * **Backpressure** — each connection's outbound queue is bounded
//!   ([`ServeConfig::max_conn_queued_bytes`]); past it the reactor stops
//!   reading that socket until replies drain, so a slow reader throttles
//!   itself instead of ballooning server memory.
//! * **One engine call per request** — a worker runs each admitted query
//!   as one [`QueryEngine::query`], so `workers` queries run at once,
//!   whether they arrived on many connections or pipelined on one.
//! * **Stats bypass admission** — a health probe must answer *especially*
//!   when the queue is full, so `Stats` requests are served inline on the
//!   I/O thread from atomic counters, never queued.
//!
//! Results are bit-identical to in-process [`QueryEngine`] calls — the
//! wire moves exact `f32` bit patterns, and reordering is tag-tracked,
//! never positional.

use crate::conn::ConnState;
use crate::reactor::{run_io_loop, Action, Completion, IoHandle};
use crate::wire::{
    decode_request, encode_hits_payloads, encode_response, payload_tag, write_frame, Request,
    Response, StatsReply, WorkerStats, CONNECTION_TAG, MAX_FRAME_LEN,
};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use tabbin_index::{QueryEngine, ShardedStore};

/// Construction-time options for a [`Server`]. How many shards a query
/// probes and when the WAL fsyncs are not server options: the engine's
/// `NprobePolicy` and the store's `StoreConfig::durability` say each once.
/// Graceful [`shutdown`](Server::shutdown) always flushes the WAL.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// I/O threads owning the client sockets.
    pub io_threads: usize,
    /// Admission queue capacity; requests past it are shed with
    /// [`Response::Overloaded`]. `0` means auto: 8 × `workers`, so every
    /// worker has eight jobs queued behind it before shedding starts —
    /// about 8 ms of runway at the ~1 ms per job the retry hint assumes.
    pub queue_capacity: usize,
    /// Most concurrent connections; further accepts are answered with one
    /// `Overloaded` frame and closed.
    pub max_connections: usize,
    /// Per-connection outbound queue bound in bytes; past it the reactor
    /// pauses reads on that connection until replies drain.
    pub max_conn_queued_bytes: usize,
}

impl Default for ServeConfig {
    /// Four workers, two I/O threads, auto queue capacity (32), 1024
    /// connections, and 4 MiB of queued replies per connection.
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

impl ServeConfig {
    /// The admission queue capacity actually used: `queue_capacity`, or
    /// 8 × `workers` when it is the auto value `0`.
    pub fn resolved_queue_capacity(&self) -> usize {
        if self.queue_capacity == 0 {
            self.workers * 8
        } else {
            self.queue_capacity
        }
    }
}

/// One admitted query riding the queue to a worker.
struct QueryJob {
    vector: Vec<f32>,
    k: usize,
    tag: u64,
    /// Which I/O thread owns the connection.
    io: usize,
    /// Connection key within that I/O thread.
    conn: usize,
}

/// State shared by the acceptor, I/O threads, and workers.
struct Shared {
    engine: Arc<QueryEngine<ShardedStore>>,
    cfg: ServeConfig,
    admit: SyncSender<QueryJob>,
    io: Vec<Arc<IoHandle>>,
    /// Jobs admitted but not yet picked up by a worker.
    depth: AtomicUsize,
    /// Connections currently registered with an I/O thread (or en route).
    connections: AtomicUsize,
    shed: AtomicU64,
    served: AtomicU64,
    /// Jobs the worker pool ran.
    worked: AtomicU64,
    shutdown: AtomicBool,
}

impl Shared {
    fn stats(&self) -> StatsReply {
        let engine = &self.engine;
        let worked = self.worked.load(Ordering::Relaxed);
        let shards = engine.store().stats();
        let wal = engine.store().wal_stats();
        StatsReply {
            shard_depths: shards.depths(),
            imbalance: shards.imbalance(),
            shards,
            engine: engine.stats(),
            batcher: WorkerStats { submitted: worked, batches: worked },
            queue_depth: self.depth.load(Ordering::Relaxed),
            queue_capacity: self.cfg.resolved_queue_capacity(),
            connections: self.connections.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            router: engine.store().router_name().to_string(),
            nprobe: engine.plan(1).nprobe,
            wal_depth_bytes: wal.map_or(0, |w| w.depth_bytes),
            last_fsync_lsn: wal.map_or(0, |w| w.last_fsync_lsn),
            replay_records: wal.map_or(0, |w| w.replay_records),
        }
    }

    /// The `Overloaded` backoff hint: roughly how long the current queue
    /// takes to drain, assuming each worker turns around a job in about a
    /// millisecond — a coarse but monotone function of depth, so clients
    /// back off harder the deeper the overload.
    fn retry_after_hint(&self) -> u32 {
        let depth = self.depth.load(Ordering::Relaxed);
        (depth / self.cfg.workers.max(1) + 1).min(10_000) as u32
    }
}

/// A running server: acceptor + I/O threads + worker pool over one
/// engine. Dropping the handle leaks the threads; call
/// [`shutdown`](Server::shutdown) for an orderly stop.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    io_threads: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral loopback port) and starts
    /// serving `engine` with `cfg`'s thread pools and admission bounds.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        engine: Arc<QueryEngine<ShardedStore>>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        assert!(cfg.workers > 0, "server needs at least one worker");
        assert!(cfg.io_threads > 0, "server needs at least one I/O thread");
        assert!(cfg.max_connections > 0, "server needs at least one connection slot");
        assert!(
            cfg.max_conn_queued_bytes > MAX_FRAME_LEN as usize,
            "write-queue bound below one frame would wedge large replies"
        );
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let (admit, jobs) = mpsc::sync_channel(cfg.resolved_queue_capacity());
        let io: Vec<Arc<IoHandle>> = (0..cfg.io_threads)
            .map(|_| IoHandle::new().map(Arc::new))
            .collect::<io::Result<_>>()?;
        let shared = Arc::new(Shared {
            engine,
            cfg,
            admit,
            io,
            depth: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            worked: AtomicU64::new(0),
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
                        |key, state, payload| handle_payload(&shared, idx, key, state, payload),
                        || {
                            shared.connections.fetch_sub(1, Ordering::SeqCst);
                        },
                    );
                })
            })
            .collect();

        let jobs = Arc::new(Mutex::new(jobs));
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let jobs = Arc::clone(&jobs);
                std::thread::spawn(move || worker_loop(&shared, &jobs))
            })
            .collect();

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        Ok(Server { addr: local, shared, acceptor: Some(acceptor), io_threads, workers })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's health counters, as a `Stats` request would see them.
    pub fn stats(&self) -> StatsReply {
        self.shared.stats()
    }

    /// Stops accepting, drains the workers, and joins the service threads.
    /// Open connections see EOF on their next read.
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
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Workers are quiescent; make everything they logged durable so a
        // graceful stop under `Interval`/`Never` loses nothing.
        let _ = self.shared.engine.store().wal_flush();
    }
}

/// The per-payload policy hook the reactor calls with each complete
/// inbound frame: decode, validate, then serve inline (stats, errors,
/// sheds) or admit to the worker queue.
fn handle_payload(
    shared: &Arc<Shared>,
    io_idx: usize,
    conn_key: usize,
    state: &mut ConnState,
    payload: &[u8],
) -> Action {
    let Some(tag) = payload_tag(payload) else {
        let err = Response::Error(format!("runt payload of {} bytes", payload.len()));
        return Action::Fatal(vec![encode_response(CONNECTION_TAG, &err)]);
    };
    let (tag, req) = match decode_request(payload) {
        Ok(decoded) => decoded,
        Err(e) => {
            // The framing is intact and the tag readable — the peer can
            // match the error to its request, and the connection lives.
            return Action::Reply(vec![encode_response(tag, &Response::Error(e.to_string()))]);
        }
    };
    if tag == CONNECTION_TAG {
        let err = Response::Error("tag 0 is reserved for connection-level messages".into());
        return Action::Fatal(vec![encode_response(CONNECTION_TAG, &err)]);
    }
    match req {
        Request::Stats => {
            let payload = encode_response(tag, &Response::Stats(Box::new(shared.stats())));
            if payload.len() > MAX_FRAME_LEN as usize {
                // A many-shard stats body can outgrow a frame; degrade to
                // an in-band error instead of breaking the stream.
                let err = Response::Error(format!(
                    "stats reply of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame bound",
                    payload.len()
                ));
                return Action::Reply(vec![encode_response(tag, &err)]);
            }
            Action::Reply(vec![payload])
        }
        Request::Query { k, vector } => {
            if shared.shutdown.load(Ordering::SeqCst) {
                let err = Response::Error("server is shutting down".into());
                return Action::Reply(vec![encode_response(tag, &err)]);
            }
            let dim = shared.engine.dim();
            if vector.len() != dim {
                let err = Response::Error(format!(
                    "query of {} components, store is {dim}",
                    vector.len()
                ));
                return Action::Reply(vec![encode_response(tag, &err)]);
            }
            if !state.begin_tag(tag) {
                // Two in-flight requests with one tag would produce
                // indistinguishable replies; the stream is no longer
                // trustworthy, so this is fatal, not per-request.
                let err = Response::Error(format!("tag {tag} is already in flight"));
                return Action::Fatal(vec![encode_response(CONNECTION_TAG, &err)]);
            }
            // Hot-query fast path: a cached result is answered inline on
            // the I/O thread — no admission slot, no worker hand-off, no
            // completion round-trip. This is what makes a pipelined
            // connection over a warm cache transport-bound rather than
            // scheduler-bound.
            if let Some(hits) = shared.engine.try_cached(&vector, k as usize) {
                state.finish_tag(tag);
                shared.served.fetch_add(1, Ordering::Relaxed);
                return Action::Reply(encode_hits_payloads(tag, &hits));
            }
            // Count the admission *before* the send: a worker can pop the
            // job and decrement between the send and any later increment.
            shared.depth.fetch_add(1, Ordering::Relaxed);
            let job = QueryJob { vector, k: k as usize, tag, io: io_idx, conn: conn_key };
            match shared.admit.try_send(job) {
                Ok(()) => Action::Pending,
                Err(TrySendError::Full(_)) => {
                    shared.depth.fetch_sub(1, Ordering::Relaxed);
                    shared.shed.fetch_add(1, Ordering::Relaxed);
                    state.finish_tag(tag);
                    let resp =
                        Response::Overloaded { retry_after_millis: shared.retry_after_hint() };
                    Action::Reply(vec![encode_response(tag, &resp)])
                }
                Err(TrySendError::Disconnected(_)) => {
                    shared.depth.fetch_sub(1, Ordering::Relaxed);
                    state.finish_tag(tag);
                    let err = Response::Error("server is shutting down".into());
                    Action::Reply(vec![encode_response(tag, &err)])
                }
            }
        }
    }
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
            let resp = Response::Overloaded { retry_after_millis: shared.retry_after_hint() };
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

fn worker_loop(shared: &Arc<Shared>, jobs: &Mutex<Receiver<QueryJob>>) {
    loop {
        // Hold the receiver lock only for the dequeue, and poll with a
        // timeout so shutdown is seen even while idle.
        let job = {
            let rx = jobs.lock().expect("job queue lock poisoned");
            rx.recv_timeout(Duration::from_millis(50))
        };
        match job {
            Ok(job) => {
                shared.depth.fetch_sub(1, Ordering::Relaxed);
                let hits = shared.engine.query(&job.vector, job.k);
                shared.worked.fetch_add(1, Ordering::Relaxed);
                shared.served.fetch_add(1, Ordering::Relaxed);
                let payloads = encode_hits_payloads(job.tag, &hits);
                let completion = Completion { conn: job.conn, tag: job.tag, payloads };
                shared.io[job.io].push_completion(completion);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}
