//! The readiness-driven event loop: a few I/O threads own every client
//! socket, nonblocking, behind one epoll [`Poller`] each.
//!
//! Each I/O thread runs `run_io_loop` over its own connection table.
//! The acceptor hands it new sockets through `IoHandle::push_conn`;
//! workers hand it finished replies through `IoHandle::push_completion`;
//! both nudge the poller's eventfd so a blocked `wait` wakes. All poller
//! registration calls happen on the owning I/O thread — cross-thread
//! traffic is only the two mailboxes plus `notify`.
//!
//! Per readiness pass the loop: (1) registers newly accepted sockets,
//! (2) queues completed replies and flushes opportunistically, (3) for
//! each readable connection pulls bytes through the
//! [`ConnState`] reassembler and feeds every completed frame payload to
//! the server's `on_payload` policy hook, (4) flushes writable
//! connections, and (5) recomputes each touched connection's interest
//! set: read interest is dropped while the outbound queue holds
//! `max_queued_bytes` or more (**backpressure** — a slow reader stops
//! producing new work instead of ballooning the queue) and write
//! interest exists only while queued bytes remain.
//!
//! Lifecycle: a framing violation or protocol violation queues a final
//! error frame and closes after flush ([`ConnState::close_after_flush`]).
//! A peer's EOF half-closes the connection — already-admitted requests
//! still get their replies, then the socket drops. Connection keys are
//! never reused within an I/O thread, so a completion for a connection
//! that died mid-query is discarded instead of landing on a successor.

use crate::conn::{ConnState, ReadOutcome};
use crate::wire::{encode_response, Response, CONNECTION_TAG};
use polling::{Event, Events, Poller};
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long `wait` may block before re-checking the shutdown flag — a
/// bound on shutdown latency, not a poll interval (mailbox pushes notify).
const WAIT_TICK: Duration = Duration::from_millis(200);

/// A finished query reply traveling from a worker back to the I/O thread
/// that owns the connection.
pub(crate) struct Completion {
    /// Connection key within the owning I/O thread.
    pub conn: usize,
    /// The request's tag, released on arrival.
    pub tag: u64,
    /// Fully encoded reply payloads (one or more frames), reply order.
    pub payloads: Vec<Vec<u8>>,
}

/// What the server's per-payload policy hook decided.
pub(crate) enum Action {
    /// Queue these reply payloads on the connection now.
    Reply(Vec<Vec<u8>>),
    /// The request was admitted; a [`Completion`] will arrive later.
    Pending,
    /// Protocol violation: queue these payloads, then close after flush.
    /// Remaining payloads of the same read batch are discarded.
    Fatal(Vec<Vec<u8>>),
}

/// One I/O thread's mailbox: the only surface other threads touch.
pub(crate) struct IoHandle {
    pub poller: Poller,
    inbox: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
}

impl IoHandle {
    pub fn new() -> io::Result<IoHandle> {
        Ok(IoHandle {
            poller: Poller::new()?,
            inbox: Mutex::new(Vec::new()),
            completions: Mutex::new(Vec::new()),
        })
    }

    /// Hands a freshly accepted socket to this I/O thread.
    pub fn push_conn(&self, stream: TcpStream) {
        self.inbox.lock().expect("reactor inbox poisoned").push(stream);
        let _ = self.poller.notify();
    }

    /// Hands a finished reply to this I/O thread.
    pub fn push_completion(&self, c: Completion) {
        let first = {
            let mut q = self.completions.lock().expect("reactor completions poisoned");
            q.push(c);
            q.len() == 1
        };
        // One wake per drain batch: if completions are already pending,
        // the notify that announced the first one hasn't been consumed
        // yet, and the loop drains the whole queue when it fires.
        if first {
            let _ = self.poller.notify();
        }
    }

    fn drain_conns(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.inbox.lock().expect("reactor inbox poisoned"))
    }

    fn drain_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().expect("reactor completions poisoned"))
    }
}

/// One registered connection: the socket, its protocol state machine, and
/// the interest set currently installed in the poller.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// The peer sent EOF; serve what's in flight, then drop.
    half_closed: bool,
    interest: (bool, bool),
}

impl Conn {
    /// The interest this connection should have installed right now.
    fn desired_interest(&self, max_queued_bytes: usize) -> (bool, bool) {
        let read = !self.state.closing()
            && !self.half_closed
            && self.state.queued_bytes() < max_queued_bytes;
        (read, self.state.wants_write())
    }

    /// Whether the connection has nothing left to live for.
    fn finished(&self) -> bool {
        if self.state.wants_write() {
            return false;
        }
        self.state.closing() || (self.half_closed && self.state.in_flight() == 0)
    }
}

/// Runs one I/O thread until `shutdown`. `on_payload` is the server's
/// policy hook for each complete inbound frame payload; `on_closed` fires
/// once per connection that leaves the table (including at shutdown), so
/// the server's live-connection gauge stays exact.
pub(crate) fn run_io_loop<F, G>(
    handle: &Arc<IoHandle>,
    shutdown: &AtomicBool,
    max_queued_bytes: usize,
    mut on_payload: F,
    on_closed: G,
) where
    F: FnMut(usize, &mut ConnState, &[u8]) -> Action,
    G: Fn(),
{
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    // Monotonic, never reused: a late completion for a dead connection
    // can only miss, never cross-talk onto a successor.
    let mut next_key = 0usize;
    let mut events = Events::new();
    loop {
        events.clear();
        let _ = handle.poller.wait(&mut events, Some(WAIT_TICK));
        if shutdown.load(Ordering::SeqCst) {
            for (_, conn) in conns.drain() {
                let _ = handle.poller.delete(&conn.stream);
                on_closed();
            }
            return;
        }

        for stream in handle.drain_conns() {
            let key = next_key;
            next_key += 1;
            let ok = stream.set_nonblocking(true).is_ok()
                && handle.poller.add(&stream, Event::readable(key)).is_ok();
            if !ok {
                on_closed();
                continue;
            }
            stream.set_nodelay(true).ok();
            let conn = Conn {
                stream,
                state: ConnState::new(),
                half_closed: false,
                interest: (true, false),
            };
            conns.insert(key, conn);
        }

        for c in handle.drain_completions() {
            // The connection may have died while its query ran.
            let Some(conn) = conns.get_mut(&c.conn) else { continue };
            conn.state.finish_tag(c.tag);
            if !conn.state.closing() {
                for p in &c.payloads {
                    conn.state.enqueue(p);
                }
            }
            settle(handle, &mut conns, c.conn, max_queued_bytes, &on_closed);
        }

        let ready: Vec<Event> = events.iter().collect();
        for ev in ready {
            if ev.readable {
                service_read(
                    handle,
                    &mut conns,
                    ev.key,
                    max_queued_bytes,
                    &mut on_payload,
                    &on_closed,
                );
            }
            if ev.writable {
                settle(handle, &mut conns, ev.key, max_queued_bytes, &on_closed);
            }
        }
    }
}

/// Services one readable connection: pulls bytes, hands each completed
/// payload to the policy hook, applies the resulting actions, then
/// settles the connection's writes/interest/lifetime.
fn service_read<F, G>(
    handle: &Arc<IoHandle>,
    conns: &mut HashMap<usize, Conn>,
    key: usize,
    max_queued_bytes: usize,
    on_payload: &mut F,
    on_closed: &G,
) where
    F: FnMut(usize, &mut ConnState, &[u8]) -> Action,
    G: Fn(),
{
    let Some(conn) = conns.get_mut(&key) else { return };
    // A stale readable event on a paused or closing connection: the
    // interest change already said no — don't read past backpressure.
    if !conn.desired_interest(max_queued_bytes).0 && !conn.half_closed {
        settle(handle, conns, key, max_queued_bytes, on_closed);
        return;
    }
    let payloads = match conn.state.read_some(&mut conn.stream) {
        Ok(ReadOutcome::Progress(p)) => p,
        Ok(ReadOutcome::Eof(p)) => {
            conn.half_closed = true;
            p
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            // Hostile framing: the stream position is unrecoverable. Tell
            // the peer on the connection tag, then close after flush.
            let err = Response::Error(e.to_string());
            conn.state.enqueue(&encode_response(CONNECTION_TAG, &err));
            conn.state.close_after_flush();
            settle(handle, conns, key, max_queued_bytes, on_closed);
            return;
        }
        Err(_) => {
            drop_conn(handle, conns, key, on_closed);
            return;
        }
    };
    for p in &payloads {
        // Re-borrow per payload: the policy hook may need shared state.
        let Some(conn) = conns.get_mut(&key) else { return };
        match on_payload(key, &mut conn.state, p) {
            Action::Reply(frames) => {
                for f in &frames {
                    conn.state.enqueue(f);
                }
            }
            Action::Pending => {}
            Action::Fatal(frames) => {
                for f in &frames {
                    conn.state.enqueue(f);
                }
                conn.state.close_after_flush();
                break;
            }
        }
    }
    settle(handle, conns, key, max_queued_bytes, on_closed);
}

/// Flushes what it can, re-installs the connection's desired interest,
/// and drops the connection once it is finished (or its socket broke).
fn settle<G: Fn()>(
    handle: &Arc<IoHandle>,
    conns: &mut HashMap<usize, Conn>,
    key: usize,
    max_queued_bytes: usize,
    on_closed: &G,
) {
    let Some(conn) = conns.get_mut(&key) else { return };
    if conn.state.wants_write() && conn.state.flush(&mut conn.stream).is_err() {
        drop_conn(handle, conns, key, on_closed);
        return;
    }
    if conn.finished() {
        drop_conn(handle, conns, key, on_closed);
        return;
    }
    let want = conn.desired_interest(max_queued_bytes);
    if want != conn.interest {
        let ev = Event { key, readable: want.0, writable: want.1 };
        if handle.poller.modify(&conn.stream, ev).is_err() {
            drop_conn(handle, conns, key, on_closed);
            return;
        }
        conn.interest = want;
    }
}

fn drop_conn<G: Fn()>(
    handle: &Arc<IoHandle>,
    conns: &mut HashMap<usize, Conn>,
    key: usize,
    on_closed: &G,
) {
    if let Some(conn) = conns.remove(&key) {
        let _ = handle.poller.delete(&conn.stream);
        on_closed();
    }
}
