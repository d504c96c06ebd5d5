//! State-machine fuzz for the per-connection nonblocking machinery:
//! arbitrary frame streams fed through [`ConnState::read_some`] in
//! arbitrary splits (down to one byte per readiness event, `WouldBlock`
//! between) must reassemble the exact payload sequence, and arbitrary
//! enqueue/flush schedules against a slow reader (tiny partial writes,
//! `WouldBlock` interspersed) must emit the exact framed byte stream and
//! release each reply's tag exactly when its last frame is written.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::io::{self, Read, Write};
use tabbin_serve::conn::{ConnState, ReadOutcome};
use tabbin_serve::wire::read_frame;

/// A reader that yields the stream in a fixed schedule of chunk sizes,
/// with `WouldBlock` between chunks — one "readiness event" per chunk.
struct Choppy {
    data: Vec<u8>,
    pos: usize,
    /// Bytes to yield per readable event; cycles when exhausted.
    schedule: Vec<usize>,
    turn: usize,
    starve: bool,
}

impl Read for Choppy {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.starve = !self.starve;
        if self.starve {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "not yet"));
        }
        if self.pos == self.data.len() {
            return Ok(0);
        }
        let want = self.schedule[self.turn % self.schedule.len()].max(1);
        self.turn += 1;
        let n = want.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A writer accepting at most a scheduled number of bytes per call, with
/// `WouldBlock` interspersed — a peer draining its socket slowly.
struct SlowReader {
    out: Vec<u8>,
    schedule: Vec<usize>,
    turn: usize,
}

impl Write for SlowReader {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let step = self.schedule[self.turn % self.schedule.len()];
        self.turn += 1;
        if step == 0 {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "buffer full"));
        }
        let n = step.min(buf.len());
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Inbound: any payload sequence, framed, then read through any
    /// split schedule, reassembles exactly — no byte lost, duplicated,
    /// or reordered, no payload split or merged.
    #[test]
    fn reads_reassemble_exactly_under_arbitrary_splits(
        payloads in pvec(pvec(0u8..=255, 1..80), 0..12),
        schedule in pvec(1usize..40, 1..16),
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&(p.len() as u32).to_le_bytes());
            stream.extend_from_slice(p);
        }
        let mut src = Choppy { data: stream, pos: 0, schedule, turn: 0, starve: false };
        let mut conn = ConnState::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        loop {
            match conn.read_some(&mut src).expect("well-formed stream") {
                ReadOutcome::Progress(p) => got.extend(p),
                ReadOutcome::Eof(p) => {
                    got.extend(p);
                    break;
                }
            }
        }
        prop_assert_eq!(got, payloads);
    }

    /// Outbound: any enqueue schedule flushed through any slow-reader
    /// schedule emits exactly the framed stream, resumable at any byte.
    #[test]
    fn flushes_emit_exact_framed_stream_under_partial_writes(
        payloads in pvec(pvec(0u8..=255, 1..80), 1..12),
        // Zero steps are WouldBlock turns.
        mut schedule in pvec(0usize..30, 1..16),
        // How many payloads to enqueue before each flush round.
        batch in 1usize..5,
    ) {
        // The schedule cycles, so one positive step guarantees the drain
        // loop below always makes progress.
        schedule.push(7);
        let mut sink = SlowReader { out: Vec::new(), schedule, turn: 0 };
        let mut conn = ConnState::new();
        let mut queued = 0usize;
        for (i, p) in payloads.iter().enumerate() {
            conn.enqueue(p);
            queued += 4 + p.len();
            prop_assert_eq!(conn.queued_bytes(), queued);
            if (i + 1) % batch == 0 {
                // Interleave partial flushes with enqueues: the write
                // cursor must survive new frames arriving behind it.
                if conn.flush(&mut sink).expect("flush") {
                    queued = 0;
                } else {
                    queued = conn.queued_bytes();
                }
            }
        }
        for _ in 0..100_000 {
            if conn.flush(&mut sink).expect("flush") {
                break;
            }
        }
        prop_assert!(!conn.wants_write(), "schedule with progress never drained");
        prop_assert_eq!(conn.queued_bytes(), 0);

        // The emitted bytes are exactly the framed payloads, in order.
        let mut r: &[u8] = &sink.out;
        for p in &payloads {
            prop_assert_eq!(&read_frame(&mut r).expect("read back"), p);
        }
        prop_assert!(r.is_empty(), "trailing bytes after the last frame");
    }

    /// In-flight tag bookkeeping under arbitrary begin / reply / partial
    /// flush sequences: a tag is in flight from `begin_tag` until the last
    /// frame of its reply has been written, it is claimable iff not in
    /// flight, and the count tracks the reference's live set exactly.
    #[test]
    fn tag_tracking_matches_a_reference_set(
        ops in pvec((0u64..8, 0u8..3, 1usize..4), 0..64),
    ) {
        let mut conn = ConnState::new();
        // Claimed tags with no reply queued yet.
        let mut claimed = std::collections::HashSet::new();
        // Unwritten bytes of each queued frame and the tag it releases.
        let mut queue: std::collections::VecDeque<(usize, Option<u64>)> = Default::default();
        for (tag, op, n) in ops {
            let queued_tag = |q: &std::collections::VecDeque<(usize, Option<u64>)>| {
                q.iter().any(|&(_, t)| t == Some(tag))
            };
            match op {
                0 => {
                    let free = !claimed.contains(&tag) && !queued_tag(&queue);
                    prop_assert_eq!(conn.begin_tag(tag), free);
                    if free {
                        claimed.insert(tag);
                    }
                }
                1 if claimed.remove(&tag) => {
                    // A reply of `n` frames; only the last releases the tag.
                    let frames: Vec<Vec<u8>> = (0..n).map(|i| vec![tag as u8; 3 + i]).collect();
                    conn.enqueue_reply(tag, &frames);
                    for (i, f) in frames.iter().enumerate() {
                        queue.push_back((4 + f.len(), (i + 1 == n).then_some(tag)));
                    }
                }
                1 => {}
                _ => {
                    // A peer that takes `5n` bytes, then would block.
                    let mut budget = 5 * n;
                    let mut sink = Budget { left: budget };
                    conn.flush(&mut sink).expect("flush");
                    while let Some(front) = queue.front_mut() {
                        let take = front.0.min(budget);
                        front.0 -= take;
                        budget -= take;
                        if front.0 > 0 {
                            break;
                        }
                        queue.pop_front();
                    }
                }
            }
            let live = claimed.len() + queue.iter().filter(|(_, t)| t.is_some()).count();
            prop_assert_eq!(conn.in_flight(), live);
            prop_assert_eq!(conn.queued_bytes(), queue.iter().map(|(b, _)| b).sum::<usize>());
        }
    }
}

/// A writer that accepts `left` more bytes in total, then would block.
struct Budget {
    left: usize,
}

impl Write for Budget {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.left == 0 {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "budget spent"));
        }
        let n = buf.len().min(self.left);
        self.left -= n;
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
