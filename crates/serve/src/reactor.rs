//! The readiness-driven event loop: a few I/O threads own every client
//! socket, nonblocking, behind one epoll [`Poller`] each, and answer every
//! request they decode on the spot (run to completion).
//!
//! Each I/O thread runs `run_io_loop` over its own connection table.
//! The acceptor hands it new sockets through `IoHandle::push_conn`, which
//! nudges the poller's eventfd so a blocked `wait` wakes. All poller
//! registration calls happen on the owning I/O thread — cross-thread
//! traffic is only that mailbox plus `notify`.
//!
//! One turn is one `wait` pass. Per turn the loop: (1) registers newly
//! accepted sockets, (2) for each readable connection pulls bytes through
//! the [`ConnState`] reassembler and feeds every completed frame payload
//! to the server's `on_payload` policy hook, which queues its reply on the
//! connection before the next payload is looked at, (3) flushes writable
//! connections, and (4) recomputes each touched connection's interest
//! set: read interest is dropped while the outbound queue holds
//! `max_queued_bytes` or more (**backpressure** — a slow reader stops
//! producing new work instead of ballooning the queue) and write
//! interest exists only while queued bytes remain. The hook also gets a
//! per-turn counter for its admission budget, which the loop zeroes at
//! every `wait`.
//!
//! Lifecycle: a framing violation or protocol violation queues a final
//! error frame and closes after flush ([`ConnState::close_after_flush`]);
//! the rest of that read pass is discarded. A peer's EOF half-closes the
//! connection — replies already queued still go out, then the socket
//! drops.

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

/// One I/O thread's mailbox: the only surface other threads touch.
pub(crate) struct IoHandle {
    pub poller: Poller,
    inbox: Mutex<Vec<TcpStream>>,
}

impl IoHandle {
    pub fn new() -> io::Result<IoHandle> {
        Ok(IoHandle { poller: Poller::new()?, inbox: Mutex::new(Vec::new()) })
    }

    /// Hands a freshly accepted socket to this I/O thread.
    pub fn push_conn(&self, stream: TcpStream) {
        self.inbox.lock().expect("reactor inbox poisoned").push(stream);
        let _ = self.poller.notify();
    }

    fn drain_conns(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.inbox.lock().expect("reactor inbox poisoned"))
    }
}

/// One registered connection: the socket, its protocol state machine, and
/// the interest set currently installed in the poller.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    /// The peer sent EOF; flush what's queued, then drop.
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
        !self.state.wants_write() && (self.state.closing() || self.half_closed)
    }
}

/// Runs one I/O thread until `shutdown`. `on_payload` is the server's
/// policy hook for each complete inbound frame payload: it queues the
/// reply on the connection (or marks it closing after a protocol
/// violation) and counts the queries it decodes in the turn counter it is
/// handed. `on_closed` fires once per connection that leaves the table
/// (including at shutdown), so the server's live-connection gauge stays
/// exact.
pub(crate) fn run_io_loop<F, G>(
    handle: &Arc<IoHandle>,
    shutdown: &AtomicBool,
    max_queued_bytes: usize,
    mut on_payload: F,
    on_closed: G,
) where
    F: FnMut(&mut ConnState, &[u8], &mut usize),
    G: Fn(),
{
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    // Monotonic, never reused: a stale event for a dead connection can
    // only miss, never land on a successor.
    let mut next_key = 0usize;
    let mut events = Events::new();
    loop {
        events.clear();
        let _ = handle.poller.wait(&mut events, Some(WAIT_TICK));
        let mut turn = 0usize;
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

        let ready: Vec<Event> = events.iter().collect();
        for ev in ready {
            if ev.readable {
                service_read(
                    handle,
                    &mut conns,
                    ev.key,
                    max_queued_bytes,
                    &mut on_payload,
                    &mut turn,
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
/// payload to the policy hook until one closes the connection, then
/// settles the connection's writes/interest/lifetime.
fn service_read<F, G>(
    handle: &Arc<IoHandle>,
    conns: &mut HashMap<usize, Conn>,
    key: usize,
    max_queued_bytes: usize,
    on_payload: &mut F,
    turn: &mut usize,
    on_closed: &G,
) where
    F: FnMut(&mut ConnState, &[u8], &mut usize),
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
        on_payload(&mut conn.state, p, turn);
        if conn.state.closing() {
            break;
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
