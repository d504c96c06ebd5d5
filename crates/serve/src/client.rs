//! The client for the serving tier's tagged wire protocol: [`Client`],
//! which keeps up to a window of tagged requests in flight on one
//! connection (one for [`Client::connect`]), and the [`ReplyDemux`] that
//! matches chunked, possibly out-of-order replies back to their requests
//! by tag.

use crate::wire::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, StatsReply,
    CONNECTION_TAG,
};
use std::collections::{HashMap, HashSet};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use tabbin_index::Hit;

/// Capped exponential backoff for [`Client::query_with_retry`]: how many
/// sheds to absorb and how long to sleep between attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Sheds absorbed before the final `Overloaded` is returned to the
    /// caller (so `max_retries + 1` attempts in total).
    pub max_retries: u32,
    /// First-attempt backoff floor in milliseconds; doubles per retry.
    pub base_millis: u64,
    /// Backoff ceiling in milliseconds — the exponential and the server's
    /// hint are both capped here.
    pub max_millis: u64,
}

impl Default for RetryPolicy {
    /// Five retries, 2 ms doubling, capped at 1 s.
    fn default() -> Self {
        Self { max_retries: 5, base_millis: 2, max_millis: 1_000 }
    }
}

impl RetryPolicy {
    /// The delay before retry `attempt` (0-based): the larger of the
    /// server's `retry_after_millis` hint and the exponential
    /// `base << attempt`, capped at `max_millis`, then jittered by a
    /// deterministic ±25% keyed on `salt` — a fleet of clients shed at
    /// the same instant must not come back at the same instant.
    pub fn backoff_millis(&self, attempt: u32, hint_millis: u32, salt: u64) -> u64 {
        let exp = self.base_millis.saturating_mul(1u64 << attempt.min(20));
        let raw = exp.max(hint_millis as u64).min(self.max_millis.max(1));
        // splitmix64 finalizer over (salt, attempt) → factor in [0.75, 1.25).
        let mut z = salt ^ (u64::from(attempt) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let jitter = 0.75 + (z % 1000) as f64 / 1998.0;
        ((raw as f64) * jitter).round().max(0.0) as u64
    }
}

/// What a `Query` request came back as — callers must handle shed load
/// explicitly, it is a normal serving outcome rather than an IO failure.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryOutcome {
    /// Ranked hits, best first — bit-identical to the in-process engine.
    Hits(Vec<Hit>),
    /// The server's admission budget was spent; the request was shed,
    /// not run.
    Overloaded {
        /// The server's backoff hint, derived from its backlog when the
        /// request was shed.
        retry_after_millis: u32,
    },
}

/// Reassembles the reply stream of a multiplexed connection: feed every
/// reply payload in arrival order; chunked `Hits` accumulate per tag
/// until their `last` chunk, other responses complete immediately.
/// Frames of different tags may interleave arbitrarily — per-tag results
/// are a function of each tag's own frames alone, which is what makes
/// out-of-order pipelined replies safe (pinned in `tests/prop_wire.rs`).
#[derive(Default)]
pub struct ReplyDemux {
    partial: HashMap<u64, Vec<Hit>>,
}

impl ReplyDemux {
    pub fn new() -> Self {
        Self::default()
    }

    /// Tags with buffered chunks still awaiting their `last` frame.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Absorbs one reply payload. `Some((tag, response))` when a reply
    /// completed — a `Hits` response carries the full reassembled list.
    pub fn push(&mut self, payload: &[u8]) -> io::Result<Option<(u64, Response)>> {
        let (tag, resp) = decode_response(payload)?;
        match resp {
            Response::Hits { hits, last } => {
                let acc = self.partial.entry(tag).or_default();
                acc.extend(hits);
                if !last {
                    return Ok(None);
                }
                let full = self.partial.remove(&tag).expect("entry just touched");
                Ok(Some((tag, Response::Hits { hits: full, last: true })))
            }
            // A terminal non-hits reply supersedes any partial chunks.
            other => {
                self.partial.remove(&tag);
                Ok(Some((tag, other)))
            }
        }
    }
}

/// A connection to a `tabbin-serve` server that keeps up to `window`
/// tagged requests in flight and matches replies by tag, so one socket
/// overlaps many round trips. [`connect`](Self::connect) opens a window of
/// one: [`query`](Self::query) then is a plain blocking round trip.
/// Results come back via [`wait`](Self::wait) (any order) or
/// [`query_all`](Self::query_all) (submission order) — arrival order on
/// the wire is up to the server and does not matter.
///
/// Every request takes the same path — [`submit`](Self::submit), then
/// [`wait`](Self::wait), which receives frames until its tag completes —
/// so replies mean the same thing at every window. Connection-level (tag
/// 0) replies answer no request and end the connection: the over-cap
/// greeting surfaces as `ErrorKind::ConnectionRefused`, a fatal framing
/// error as `InvalidData`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    window: usize,
    next_tag: u64,
    /// Tags submitted whose reply has not arrived.
    outstanding: HashSet<u64>,
    /// Complete replies not yet claimed by `wait`.
    done: HashMap<u64, Response>,
    demux: ReplyDemux,
}

impl Client {
    /// Connects with a window of one outstanding request.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Self::connect_windowed(addr, 1)
    }

    /// Connects with a window of at most `window` outstanding requests.
    pub fn connect_windowed<A: ToSocketAddrs>(addr: A, window: usize) -> io::Result<Client> {
        assert!(window > 0, "a zero window could never submit");
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            window,
            next_tag: 1,
            outstanding: HashSet::new(),
            done: HashMap::new(),
            demux: ReplyDemux::new(),
        })
    }

    /// The configured window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Requests submitted and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Top-`k` over the wire: [`submit`](Self::submit), then
    /// [`wait`](Self::wait).
    pub fn query(&mut self, vector: &[f32], k: usize) -> io::Result<QueryOutcome> {
        let tag = self.submit(vector, k)?;
        self.wait(tag)
    }

    /// Submits one query and returns its tag without waiting for the
    /// reply. Blocks only while the window is full, receiving replies
    /// until a slot frees. Writes are buffered; they flush before any
    /// receive, so submission bursts batch into few syscalls. A query
    /// whose frame would exceed [`crate::MAX_FRAME_LEN`] is refused with
    /// `InvalidInput` before it is buffered or takes a tag.
    pub fn submit(&mut self, vector: &[f32], k: usize) -> io::Result<u64> {
        self.send(&Request::Query { k: k as u32, vector: vector.to_vec() })
    }

    /// Blocks until `tag`'s reply arrives (filing other tags' replies
    /// along the way) and returns its outcome. Server-side `Error`
    /// replies surface as `InvalidInput` IO errors carrying the server's
    /// message.
    pub fn wait(&mut self, tag: u64) -> io::Result<QueryOutcome> {
        match self.receive(tag)? {
            Response::Hits { hits, .. } => Ok(QueryOutcome::Hits(hits)),
            Response::Overloaded { retry_after_millis } => {
                Ok(QueryOutcome::Overloaded { retry_after_millis })
            }
            Response::Error(msg) => Err(io::Error::new(io::ErrorKind::InvalidInput, msg)),
            Response::Stats(_) => Err(protocol("stats reply to a query request")),
        }
    }

    /// Receives until nothing is outstanding; completed outcomes stay
    /// buffered for [`wait`](Self::wait).
    pub fn drain(&mut self) -> io::Result<()> {
        while !self.outstanding.is_empty() {
            self.recv_one()?;
        }
        Ok(())
    }

    /// Submit-and-wait that absorbs `Overloaded` sheds: sleeps per
    /// `policy` (honoring the server's `retry_after_millis` hint) and
    /// retries, returning the first non-shed outcome — or the final
    /// `Overloaded` once `policy.max_retries` sheds have been absorbed,
    /// so callers still see persistent overload rather than blocking
    /// forever. Each attempt is its own tagged request; replies for other
    /// tags arriving meanwhile are filed for their own `wait`ers.
    pub fn query_with_retry(
        &mut self,
        vector: &[f32],
        k: usize,
        policy: RetryPolicy,
    ) -> io::Result<QueryOutcome> {
        let mut attempt = 0u32;
        loop {
            let tag = self.submit(vector, k)?;
            match self.wait(tag)? {
                QueryOutcome::Overloaded { retry_after_millis } if attempt < policy.max_retries => {
                    let delay = policy.backoff_millis(attempt, retry_after_millis, tag);
                    std::thread::sleep(Duration::from_millis(delay));
                    attempt += 1;
                }
                outcome => return Ok(outcome),
            }
        }
    }

    /// Pipelines every query through the window and returns outcomes in
    /// submission order, regardless of the order replies arrived in.
    pub fn query_all(&mut self, queries: &[Vec<f32>], k: usize) -> io::Result<Vec<QueryOutcome>> {
        let tags: Vec<u64> =
            queries.iter().map(|q| self.submit(q, k)).collect::<io::Result<_>>()?;
        tags.into_iter().map(|t| self.wait(t)).collect()
    }

    /// The server's health counters.
    pub fn stats(&mut self) -> io::Result<StatsReply> {
        let tag = self.send(&Request::Stats)?;
        match self.receive(tag)? {
            Response::Stats(stats) => Ok(*stats),
            Response::Error(msg) => Err(io::Error::new(io::ErrorKind::InvalidInput, msg)),
            _ => Err(protocol("non-stats reply to a stats request")),
        }
    }

    /// Frames `req` under the next tag and buffers it once the window has
    /// a slot. The frame bound is checked first: an oversized request
    /// sent anyway would poison the server's frame assembler and end the
    /// connection with every request in flight on it.
    fn send(&mut self, req: &Request) -> io::Result<u64> {
        let tag = self.next_tag;
        let mut frame = Vec::new();
        write_frame(&mut frame, &encode_request(tag, req))?;
        while self.outstanding.len() >= self.window {
            self.recv_one()?;
        }
        self.writer.write_all(&frame)?;
        self.next_tag += 1;
        self.outstanding.insert(tag);
        Ok(tag)
    }

    /// Receives until `tag`'s reply is complete and claims it.
    fn receive(&mut self, tag: u64) -> io::Result<Response> {
        loop {
            if let Some(resp) = self.done.remove(&tag) {
                return Ok(resp);
            }
            if !self.outstanding.contains(&tag) {
                return Err(protocol("waiting on a tag this client never submitted"));
            }
            self.recv_one()?;
        }
    }

    /// Receives exactly one frame and files whatever it completes — the
    /// one place this client reads replies.
    fn recv_one(&mut self) -> io::Result<()> {
        // Everything submitted must be on the wire before blocking on a
        // reply, or client and server would deadlock waiting on each other.
        self.writer.flush()?;
        let payload = read_frame(&mut self.reader)?;
        let Some((tag, resp)) = self.demux.push(&payload)? else { return Ok(()) };
        if tag == CONNECTION_TAG {
            return Err(match resp {
                Response::Overloaded { .. } => io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "server over connection capacity",
                ),
                Response::Error(msg) => io::Error::new(io::ErrorKind::InvalidData, msg),
                _ => protocol("unexpected connection-level reply"),
            });
        }
        if !self.outstanding.remove(&tag) {
            return Err(protocol("reply for a tag this client never sent"));
        }
        self.done.insert(tag, resp);
        Ok(())
    }
}

fn protocol(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_response, read_frame, write_frame};
    use std::net::{SocketAddr, TcpListener};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::thread::JoinHandle;

    /// A loopback server that sheds the first `sheds` query requests with
    /// `Overloaded { retry_after_millis: 1 }` and answers every later one
    /// with a single hit. Returns the bind address, the join handle, and
    /// the query-attempt counter.
    fn flaky_server(sheds: u32) -> (SocketAddr, JoinHandle<()>, Arc<AtomicU32>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let attempts = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&attempts);
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = BufWriter::new(stream);
            loop {
                let Ok(payload) = read_frame(&mut reader) else { return };
                let (tag, req) = crate::wire::decode_request(&payload).expect("decode");
                let resp = match req {
                    Request::Query { .. } => {
                        let n = counter.fetch_add(1, Ordering::SeqCst);
                        if n < sheds {
                            Response::Overloaded { retry_after_millis: 1 }
                        } else {
                            Response::Hits { hits: vec![Hit { id: 42, score: 1.0 }], last: true }
                        }
                    }
                    Request::Stats => Response::Error("no stats here".to_string()),
                };
                write_frame(&mut writer, &encode_response(tag, &resp)).expect("write");
                writer.flush().expect("flush");
            }
        });
        (addr, handle, attempts)
    }

    #[test]
    fn retry_absorbs_sheds_and_returns_the_eventual_hits() {
        let (addr, server, attempts) = flaky_server(3);
        let mut client = Client::connect(addr).expect("connect");
        let policy = RetryPolicy { max_retries: 5, base_millis: 1, max_millis: 5 };
        let outcome = client.query_with_retry(&[1.0, 0.0], 1, policy).expect("query");
        assert_eq!(outcome, QueryOutcome::Hits(vec![Hit { id: 42, score: 1.0 }]));
        assert_eq!(attempts.load(Ordering::SeqCst), 4, "3 sheds + 1 success");
        drop(client);
        server.join().expect("server thread");
    }

    #[test]
    fn exhausted_retries_surface_the_final_overload() {
        let (addr, server, attempts) = flaky_server(u32::MAX);
        let mut client = Client::connect(addr).expect("connect");
        let policy = RetryPolicy { max_retries: 2, base_millis: 1, max_millis: 2 };
        let outcome = client.query_with_retry(&[1.0, 0.0], 1, policy).expect("query");
        assert_eq!(outcome, QueryOutcome::Overloaded { retry_after_millis: 1 });
        assert_eq!(attempts.load(Ordering::SeqCst), 3, "1 attempt + 2 retries");
        drop(client);
        server.join().expect("server thread");
    }

    #[test]
    fn pipelined_retry_reaches_hits_through_the_window() {
        let (addr, server, attempts) = flaky_server(2);
        let mut client = Client::connect_windowed(addr, 4).expect("connect");
        let policy = RetryPolicy { max_retries: 4, base_millis: 1, max_millis: 5 };
        let outcome = client.query_with_retry(&[0.0, 1.0], 1, policy).expect("query");
        assert_eq!(outcome, QueryOutcome::Hits(vec![Hit { id: 42, score: 1.0 }]));
        assert_eq!(attempts.load(Ordering::SeqCst), 3);
        drop(client);
        server.join().expect("server thread");
    }

    /// A server that greets every connection with the over-cap tag-0
    /// `Overloaded` frame and then reads until the client hangs up — it
    /// never closes first, so the client's write cannot race a close.
    fn over_cap_server(connections: usize) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || {
            for _ in 0..connections {
                let (mut stream, _) = listener.accept().expect("accept");
                let greeting = Response::Overloaded { retry_after_millis: 3 };
                write_frame(&mut stream, &encode_response(CONNECTION_TAG, &greeting))
                    .expect("write greeting");
                io::copy(&mut stream, &mut io::sink()).expect("read to EOF");
            }
        });
        (addr, handle)
    }

    #[test]
    fn over_cap_greeting_refuses_the_connection_at_every_window() {
        let (addr, server) = over_cap_server(3);
        let refused = |r: io::Result<QueryOutcome>| {
            let err = r.expect_err("the greeting answers no request");
            assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
        };
        let mut one = Client::connect(addr).expect("connect");
        refused(one.query(&[1.0, 0.0], 1));
        drop(one);
        let mut four = Client::connect_windowed(addr, 4).expect("connect");
        let tag = four.submit(&[1.0, 0.0], 1).expect("submit only buffers");
        four.submit(&[0.0, 1.0], 1).expect("submit only buffers");
        refused(four.wait(tag));
        drop(four);
        let mut stats = Client::connect(addr).expect("connect");
        let err = stats.stats().expect_err("the greeting answers no request");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused, "{err}");
        drop(stats);
        server.join().expect("server thread");
    }

    #[test]
    fn backoff_honors_the_hint_the_cap_and_the_jitter_band() {
        let policy = RetryPolicy { max_retries: 3, base_millis: 2, max_millis: 100 };
        for salt in [1u64, 7, 12345] {
            // The server hint dominates a small exponential...
            let with_hint = policy.backoff_millis(0, 40, salt);
            assert!((30..=50).contains(&with_hint), "hint 40 ±25% broke: {with_hint}");
            // ...the cap dominates everything...
            let capped = policy.backoff_millis(20, 10_000, salt);
            assert!(capped <= 125, "cap 100 ±25% broke: {capped}");
            // ...and without a hint the exponential floor applies.
            let early = policy.backoff_millis(0, 0, salt);
            assert!((1..=3).contains(&early), "base 2 ±25% broke: {early}");
        }
        // Jitter is deterministic per salt but varies across salts.
        assert_eq!(policy.backoff_millis(1, 0, 9), policy.backoff_millis(1, 0, 9));
        let spread: std::collections::HashSet<u64> =
            (0..64).map(|s| policy.backoff_millis(0, 80, s)).collect();
        assert!(spread.len() > 8, "jitter produced almost no spread: {}", spread.len());
    }
}
