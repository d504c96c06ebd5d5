//! The per-connection nonblocking state machine.
//!
//! [`ConnState`] owns everything about one multiplexed connection except
//! the socket itself: inbound partial-frame reassembly, the bounded
//! outbound write queue with partial-write resume, the set of in-flight
//! request tags, and the close-after-flush lifecycle. A tag is in flight
//! from decode until the last frame of its reply has left the write
//! queue, so a duplicate is refused even when its first request was
//! answered in the same read pass. It is generic over
//! `Read`/`Write` so the state-machine fuzz tests can drive it one byte
//! at a time through in-memory streams — the reactor plugs in a
//! nonblocking `TcpStream`, the tests plug in throttled cursors.
//!
//! The reactor makes the policy decisions (interest registration, read
//! pausing, shedding); this type only reports the facts they key off:
//! queued byte counts, in-flight depth, and whether a close is pending.

use crate::wire::FrameAssembler;
use std::collections::{HashSet, VecDeque};
use std::io::{self, Read, Write};

/// How many bytes one `read_some` call will pull before voluntarily
/// yielding back to the event loop, so a firehose peer cannot starve
/// other connections. Level-triggered registration re-arms immediately.
const READ_QUANTUM: usize = 256 * 1024;

/// What a readable-event service pass produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// The socket is drained (or the quantum spent); complete frame
    /// payloads decoded along the way.
    Progress(Vec<Vec<u8>>),
    /// The peer closed its end; any payloads completed by the final bytes.
    Eof(Vec<Vec<u8>>),
}

/// The socket-independent state of one multiplexed connection.
pub struct ConnState {
    asm: FrameAssembler,
    /// Fully framed (length-prefixed) outbound buffers, oldest first, each
    /// with the tag it releases once written (on a reply's last frame).
    write_queue: VecDeque<(Vec<u8>, Option<u64>)>,
    /// Bytes of the queue head already written to the socket.
    write_pos: usize,
    /// Total unwritten bytes across the queue.
    queued_bytes: usize,
    /// Tags decoded whose reply has not been fully written.
    in_flight: HashSet<u64>,
    /// Close the connection once the write queue drains.
    close_after_flush: bool,
}

impl Default for ConnState {
    fn default() -> Self {
        Self::new()
    }
}

impl ConnState {
    pub fn new() -> Self {
        ConnState {
            asm: FrameAssembler::new(),
            write_queue: VecDeque::new(),
            write_pos: 0,
            queued_bytes: 0,
            in_flight: HashSet::new(),
            close_after_flush: false,
        }
    }

    // -- inbound ---------------------------------------------------------

    /// Services a readable event: reads until the source would block, EOF,
    /// or the fairness quantum is spent, reassembling frames as bytes
    /// arrive. Framing violations (hostile length prefixes) surface as
    /// `InvalidData` — the connection must then be torn down, since the
    /// stream position is unrecoverable.
    pub fn read_some<R: Read>(&mut self, r: &mut R) -> io::Result<ReadOutcome> {
        let mut payloads = Vec::new();
        let mut taken = 0usize;
        let mut buf = [0u8; 16 * 1024];
        loop {
            match r.read(&mut buf) {
                Ok(0) => return Ok(ReadOutcome::Eof(payloads)),
                Ok(n) => {
                    payloads.extend(self.asm.push(&buf[..n])?);
                    taken += n;
                    if taken >= READ_QUANTUM {
                        return Ok(ReadOutcome::Progress(payloads));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(ReadOutcome::Progress(payloads));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    // -- outbound --------------------------------------------------------

    /// Queues one payload that answers no tag (a connection-level
    /// message), framing it with the length prefix. The caller bounds the
    /// queue via [`queued_bytes`](Self::queued_bytes) — this type records,
    /// the reactor enforces.
    pub fn enqueue(&mut self, payload: &[u8]) {
        self.push_framed(payload, None);
    }

    /// Queues the reply frames of `tag` in order; `tag` stays in flight
    /// until the last of them has been written. Panics on an empty reply:
    /// every reply has a frame that can carry the release.
    pub fn enqueue_reply(&mut self, tag: u64, payloads: &[Vec<u8>]) {
        let (last, rest) = payloads.split_last().expect("a reply has at least one frame");
        for p in rest {
            self.push_framed(p, None);
        }
        self.push_framed(last, Some(tag));
    }

    fn push_framed(&mut self, payload: &[u8], releases: Option<u64>) {
        let mut framed = Vec::with_capacity(4 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(payload);
        self.queued_bytes += framed.len();
        self.write_queue.push_back((framed, releases));
    }

    /// Services a writable event: writes queued frames until the sink
    /// would block or the queue drains, releasing each reply's tag as its
    /// last frame goes. Returns whether the queue is now empty. Partial
    /// writes resume exactly where they stopped.
    pub fn flush<W: Write>(&mut self, w: &mut W) -> io::Result<bool> {
        while let Some((front, releases)) = self.write_queue.front() {
            match w.write(&front[self.write_pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "peer stopped reading"))
                }
                Ok(n) => {
                    self.write_pos += n;
                    self.queued_bytes -= n;
                    if self.write_pos == front.len() {
                        if let Some(tag) = releases {
                            self.in_flight.remove(tag);
                        }
                        self.write_queue.pop_front();
                        self.write_pos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Unwritten outbound bytes — the reactor's backpressure signal.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Whether there is anything left to write.
    pub fn wants_write(&self) -> bool {
        !self.write_queue.is_empty()
    }

    // -- in-flight tags --------------------------------------------------

    /// Claims `tag` for a decoded request; [`enqueue_reply`]'s last frame
    /// releases it when written. `false` if the tag is already in flight —
    /// the duplicate must be rejected, otherwise two replies would carry
    /// the same tag and the client could not tell them apart.
    ///
    /// [`enqueue_reply`]: Self::enqueue_reply
    pub fn begin_tag(&mut self, tag: u64) -> bool {
        self.in_flight.insert(tag)
    }

    /// Requests decoded whose reply has not been fully written.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    // -- lifecycle -------------------------------------------------------

    /// Marks the connection for close once the write queue drains — used
    /// after fatal framing errors, where the error reply should still
    /// reach the peer.
    pub fn close_after_flush(&mut self) {
        self.close_after_flush = true;
    }

    /// Whether a deferred close is pending.
    pub fn closing(&self) -> bool {
        self.close_after_flush
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_request, write_frame, Request};

    /// A writer that accepts at most `cap` bytes per call and rejects
    /// every other call with `WouldBlock` — a slow reader's socket.
    struct Throttled {
        out: Vec<u8>,
        cap: usize,
        blocked: bool,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.blocked = !self.blocked;
            if self.blocked {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "throttled"));
            }
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn read_reassembles_across_wouldblock_boundaries() {
        let reqs: Vec<Vec<u8>> = (1..=3)
            .map(|t| encode_request(t, &Request::Query { k: 4, vector: vec![t as f32; 5] }))
            .collect();
        let mut stream = Vec::new();
        for p in &reqs {
            write_frame(&mut stream, p).unwrap();
        }

        /// Yields one byte per read, WouldBlock between bytes, then EOF.
        struct OneByte {
            data: Vec<u8>,
            pos: usize,
            starve: bool,
        }
        impl Read for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.starve = !self.starve;
                if self.starve {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "later"));
                }
                if self.pos == self.data.len() {
                    return Ok(0);
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }

        let mut conn = ConnState::new();
        let mut src = OneByte { data: stream, pos: 0, starve: false };
        let mut got = Vec::new();
        loop {
            match conn.read_some(&mut src).unwrap() {
                ReadOutcome::Progress(p) => got.extend(p),
                ReadOutcome::Eof(p) => {
                    got.extend(p);
                    break;
                }
            }
        }
        assert_eq!(got, reqs);
    }

    #[test]
    fn flush_resumes_partial_writes_and_reports_drain() {
        let mut conn = ConnState::new();
        conn.enqueue(&[1; 100]);
        conn.enqueue(&[2; 50]);
        assert_eq!(conn.queued_bytes(), 104 + 54);
        assert!(conn.wants_write());

        let mut sink = Throttled { out: Vec::new(), cap: 7, blocked: false };
        let mut drained = false;
        for _ in 0..200 {
            if conn.flush(&mut sink).unwrap() {
                drained = true;
                break;
            }
        }
        assert!(drained, "a 7-byte-per-call sink never drained 158 bytes");
        assert_eq!(conn.queued_bytes(), 0);
        assert!(!conn.wants_write());

        // The sink saw exactly the two frames, bytes intact and in order.
        let mut expect = Vec::new();
        write_frame(&mut expect, &[1; 100]).unwrap();
        write_frame(&mut expect, &[2; 50]).unwrap();
        assert_eq!(sink.out, expect);
    }

    #[test]
    fn duplicate_tags_are_refused_until_finished() {
        let mut conn = ConnState::new();
        assert!(conn.begin_tag(7));
        assert!(!conn.begin_tag(7), "same tag in flight twice");
        assert!(conn.begin_tag(8));
        assert_eq!(conn.in_flight(), 2);
        conn.enqueue_reply(7, &[vec![1; 40], vec![2; 40]]);
        assert!(!conn.begin_tag(7), "a queued reply still holds its tag");

        // The first frame alone does not release the tag; the last does.
        let mut sink = Throttled { out: Vec::new(), cap: 44, blocked: true };
        assert!(!conn.flush(&mut sink).unwrap());
        assert!(!conn.begin_tag(7), "tag released before its last frame was written");
        assert!(conn.flush(&mut sink).unwrap());
        assert_eq!(conn.in_flight(), 1);
        assert!(conn.begin_tag(7), "finished tags are reusable");
    }

    #[test]
    fn framing_violation_surfaces_as_invalid_data() {
        let mut conn = ConnState::new();
        let mut hostile: &[u8] = &0xffff_ffffu32.to_le_bytes();
        let err = conn.read_some(&mut hostile).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
