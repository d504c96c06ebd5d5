//! The load generator: one connection to the in-process server, driven
//! either on a schedule (open loop: a sender thread that sleeps to each
//! tick and a receiver thread that blocks on the socket) or by its own
//! replies (closed loop: one thread keeping a fixed window in flight).

use crate::sut::{self, Reply, ReplyReader};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long after the last request was sent the receiver may still wait
/// for replies before the rest count as never received.
const DRAIN_GRACE: Duration = Duration::from_secs(3);
/// A read that waits this long has lost its reply: fail the run rather than
/// hang it.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// One connection, both halves. Tags count up across phases, so a reply
/// can never be taken for one of a later phase.
pub struct Wire {
    writer: TcpStream,
    reader: ReplyReader,
    next_tag: u64,
    /// Requests written to the socket over the connection's lifetime.
    pub sent: u64,
}

/// A request succeeded when it drew `K` ranked hits; fewer, `Overloaded`,
/// an error or no reply at all is a failure.
fn succeeded(reply: &Reply) -> bool {
    matches!(reply, Reply::Hits(hits) if hits.len() == sut::K)
}

/// Per-request record of an open-loop phase, in schedule order. Times are
/// nanoseconds from the phase start.
pub struct OpenLoop {
    pub due_ns: Vec<u64>,
    pub sent_ns: Vec<u64>,
    /// `u64::MAX` where no reply arrived.
    pub recv_ns: Vec<u64>,
    pub ok: Vec<bool>,
}

impl OpenLoop {
    pub fn failed(&self) -> usize {
        self.ok.iter().filter(|&&ok| !ok).count()
    }

    /// Latency from due time of request `i`, if it succeeded.
    pub fn latency_ns(&self, i: usize) -> Option<u64> {
        self.ok[i].then(|| self.recv_ns[i].saturating_sub(self.due_ns[i]))
    }

    /// How late the generator sent request `i`.
    pub fn late_ns(&self, i: usize) -> u64 {
        self.sent_ns[i].saturating_sub(self.due_ns[i])
    }
}

/// Result of a closed-loop phase.
pub struct ClosedLoop {
    /// Successful replies received within the phase's duration.
    pub ok_in_window: usize,
    pub failed: usize,
    /// `(sent, received)` nanoseconds from the phase start, when recorded.
    pub times: Vec<(u64, u64)>,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = ReplyReader::new(writer.try_clone()?);
        Ok(Self { writer, reader, next_tag: 1, sent: 0 })
    }

    /// Sends `queries[picks[i]]` at `due_ns[i]` (ascending, from now),
    /// whatever the replies do. The sender builds each tick's frames before
    /// sleeping to the tick and writes them in one call.
    pub fn open_loop(&mut self, queries: &[Vec<f32>], picks: &[u32], due_ns: &[u64]) -> OpenLoop {
        assert_eq!(picks.len(), due_ns.len());
        let n = due_ns.len();
        let first_tag = self.next_tag;
        self.next_tag += n as u64;
        self.sent += n as u64;
        let start = Instant::now();
        let mut sent_ns = vec![0u64; n];
        let Wire { writer, reader, .. } = self;

        let received = std::thread::scope(|scope| {
            let rx = scope.spawn(move || {
                let mut got: Vec<(u64, u64, bool)> = Vec::with_capacity(n);
                while got.len() < n {
                    let Ok((tag, reply)) = reader.next() else { break };
                    let at = start.elapsed().as_nanos() as u64;
                    // A tag below this phase is a straggler of an earlier
                    // one that already counted it as missing.
                    if tag >= first_tag {
                        got.push((tag - first_tag, at, succeeded(&reply)));
                    }
                }
                got
            });

            let mut frames = Vec::new();
            let mut i = 0;
            let mut broken = false;
            while i < n && !broken {
                let tick = due_ns[i];
                let mut j = i;
                frames.clear();
                while j < n && due_ns[j] == tick {
                    sut::frame_query(
                        &mut frames,
                        first_tag + j as u64,
                        &queries[picks[j] as usize],
                    );
                    j += 1;
                }
                let now = start.elapsed().as_nanos() as u64;
                if tick > now {
                    std::thread::sleep(Duration::from_nanos(tick - now));
                }
                let at = start.elapsed().as_nanos() as u64;
                broken = writer.write_all(&frames).is_err();
                sent_ns[i..j].fill(at);
                i = j;
            }

            // Every request draws exactly one terminal reply, so the
            // receiver ends by itself; if the server lost one, closing the
            // socket is what unblocks it.
            let deadline = Instant::now() + DRAIN_GRACE;
            while !rx.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if !rx.is_finished() {
                let _ = writer.shutdown(Shutdown::Both);
            }
            rx.join().expect("receiver thread panicked")
        });

        let mut recv_ns = vec![u64::MAX; n];
        let mut ok = vec![false; n];
        for (i, at, succeeded) in received {
            recv_ns[i as usize] = at;
            ok[i as usize] = succeeded;
        }
        OpenLoop { due_ns: due_ns.to_vec(), sent_ns, recv_ns, ok }
    }

    /// Keeps `window` requests in flight for `duration`, drawing queries
    /// from `picks` cyclically starting at `*cursor`, then waits for the
    /// stragglers. Replies already buffered are answered with one write.
    pub fn closed_loop(
        &mut self,
        queries: &[Vec<f32>],
        picks: &[u32],
        cursor: &mut usize,
        window: usize,
        duration: Duration,
        record: bool,
    ) -> io::Result<ClosedLoop> {
        let first_tag = self.next_tag;
        let start = Instant::now();
        let mut out = ClosedLoop { ok_in_window: 0, failed: 0, times: Vec::new() };
        let mut sent = 0usize;
        let mut sent_at: Vec<u64> = Vec::new();
        let mut frames = Vec::new();
        let mut received = 0usize;
        let mut to_send = window;
        loop {
            if to_send > 0 {
                frames.clear();
                let at = start.elapsed().as_nanos() as u64;
                for _ in 0..to_send {
                    let q = &queries[picks[*cursor % picks.len()] as usize];
                    *cursor += 1;
                    sut::frame_query(&mut frames, self.next_tag, q);
                    self.next_tag += 1;
                    if record {
                        sent_at.push(at);
                    }
                }
                self.writer.write_all(&frames)?;
                sent += to_send;
                self.sent += to_send as u64;
                to_send = 0;
            }
            if received == sent {
                return Ok(out);
            }
            loop {
                let (tag, reply) = self.reader.next()?;
                if tag < first_tag {
                    continue;
                }
                received += 1;
                let now = start.elapsed();
                if !succeeded(&reply) {
                    out.failed += 1;
                } else if now <= duration {
                    out.ok_in_window += 1;
                }
                if record {
                    out.times.push((sent_at[(tag - first_tag) as usize], now.as_nanos() as u64));
                }
                if now < duration {
                    to_send += 1;
                }
                if !self.reader.has_buffered() {
                    break;
                }
            }
        }
    }

    /// One request, one reply: the quality pass keeps the hits.
    pub fn round_trip(&mut self, q: &[f32]) -> io::Result<Reply> {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.sent += 1;
        let mut frame = Vec::new();
        sut::frame_query(&mut frame, tag, q);
        self.writer.write_all(&frame)?;
        loop {
            let (got, reply) = self.reader.next()?;
            if got == tag {
                return Ok(reply);
            }
        }
    }
}
