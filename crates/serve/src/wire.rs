//! Wire protocol v2: tagged, length-prefixed binary frames over a byte
//! stream, built for pipelining.
//!
//! Every message is one **frame**: a `u32` little-endian payload length,
//! then the payload. Every payload opens with a `u64` little-endian
//! **tag** and a `u8` opcode; the rest is the message body, fixed-layout
//! little-endian (except the `Stats` body, which is JSON — stats are
//! structured, low-rate, and evolve; queries are hot and flat).
//!
//! | frame          | opcode | body (after `tag: u64`, `opcode: u8`) |
//! |----------------|--------|------|
//! | `Query`        | `0x01` | `k: u32`, `n: u32`, `n × f32` query vector |
//! | `Stats`        | `0x02` | — |
//! | `Hits` chunk   | `0x81` | `flags: u8` (bit 0 = last chunk), `n: u32`, `n × (id: u64, score: f32)` |
//! | `StatsReply`   | `0x82` | JSON-encoded [`StatsReply`] |
//! | `Overloaded`   | `0x83` | `retry_after_millis: u32` |
//! | `Error`        | `0x84` | UTF-8 message |
//!
//! **Tags** are chosen by the client (any nonzero `u64`) and echoed on
//! every frame of the reply, so a connection may have many requests in
//! flight and the server may answer them **out of order** — the client
//! matches replies to requests by tag, never by position. Tag `0` is
//! reserved for connection-level server messages that answer no specific
//! request: the over-cap `Overloaded` greeting and fatal framing errors.
//!
//! **Chunking**: a `Hits` reply is a sequence of one or more chunk frames
//! sharing the request's tag; each carries up to [`MAX_CHUNK_HITS`] hits
//! and a `last` flag on the final chunk. Chunks of one reply arrive in
//! rank order, but frames of *different* tags may interleave freely
//! between them. Streaming in chunks removes v1's `MAX_REPLY_HITS`
//! ceiling — any `k` the engine can answer now fits on the wire.
//!
//! Decoding is **allocation-safe against hostile peers**: the length
//! prefix is checked against [`MAX_FRAME_LEN`] *before* any buffer is
//! sized from it, so an adversarial `0xffffffff` prefix is rejected with
//! `InvalidData` instead of a multi-gigabyte allocation. Body lengths are
//! cross-checked against their element counts the same way.

use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use tabbin_index::{EngineStats, Hit, ShardedStats};

/// Hard ceiling on one frame's payload (1 MiB). A dim-4096 query is
/// ~16 KiB and a full hits chunk ~96 KiB; the bound leaves an order of
/// magnitude of headroom while keeping the worst hostile allocation
/// harmless.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Every payload opens with `tag: u64` + `opcode: u8`.
pub const PAYLOAD_HEADER_LEN: usize = 9;

/// Hits per `Hits` chunk frame. A full chunk's payload is
/// `9 + 1 + 4 + 12 × 8192 ≈ 96 KiB`, comfortably under
/// [`MAX_FRAME_LEN`]; large-`k` replies stream as multiple chunks.
pub const MAX_CHUNK_HITS: usize = 8192;

/// Reserved tag for connection-level server messages (over-cap
/// `Overloaded`, fatal framing errors). Client requests use tags ≥ 1.
pub const CONNECTION_TAG: u64 = 0;

const OP_QUERY: u8 = 0x01;
const OP_STATS: u8 = 0x02;
const OP_HITS: u8 = 0x81;
const OP_STATS_REPLY: u8 = 0x82;
const OP_OVERLOADED: u8 = 0x83;
const OP_ERROR: u8 = 0x84;

const HITS_FLAG_LAST: u8 = 0x01;

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Top-`k` over one query vector.
    Query {
        /// How many hits to return.
        k: u32,
        /// The query vector (dimension is validated server-side).
        vector: Vec<f32>,
    },
    /// Snapshot the server's health counters.
    Stats,
}

/// A server-to-client message. One `Query` is answered by a sequence of
/// [`Response::Hits`] chunks (the final one flagged `last`) or a single
/// terminal `Overloaded`/`Error`.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// One chunk of ranked hits for a `Query`, in rank order.
    Hits {
        /// The hits in this chunk.
        hits: Vec<Hit>,
        /// Whether this chunk completes the reply.
        last: bool,
    },
    /// The health snapshot for a `Stats` request.
    Stats(Box<StatsReply>),
    /// The request was shed, not run; retry no sooner than the hint.
    Overloaded {
        /// Backoff hint derived from the I/O thread's backlog in the turn
        /// the request was shed.
        retry_after_millis: u32,
    },
    /// The request was malformed or unserviceable (e.g. wrong dimension).
    Error(String),
}

/// Engine-call counters, carried under the `batcher` name the `Stats`
/// reply has always used. The I/O threads answer each admitted query
/// with one `QueryEngine::query` call, so the two counts are equal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Queries the I/O threads admitted and answered.
    pub submitted: u64,
    /// Engine calls those queries made: one each.
    pub batches: u64,
}

/// The server's `Stats` payload: storage, engine, engine-call, and
/// admission counters in one reply — the health endpoint the ROADMAP
/// promised.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Per-shard storage stats (live/tombstones/segments/pending rows).
    pub shards: ShardedStats,
    /// Per-shard pending depth (tombstones + unsealed rows), shard order —
    /// the head-of-line-blocking signal across the fan-out.
    pub shard_depths: Vec<usize>,
    /// Query-engine cache and storage-call counters.
    pub engine: EngineStats,
    /// Engine calls the I/O threads made (cache hits and misses alike).
    pub batcher: WorkerStats,
    /// Queries decoded and admitted but not yet answered (0 at rest).
    pub queue_depth: usize,
    /// Queries one I/O thread admits per turn (resolved; see
    /// `ServeConfig::queue_capacity`).
    pub queue_capacity: usize,
    /// Open client connections.
    pub connections: usize,
    /// Requests shed with `Overloaded` since the server started.
    pub shed: u64,
    /// Query requests served since the server started.
    pub served: u64,
    /// The store's router kind (`"hash"` or `"ivf"`).
    pub router: String,
    /// Max/mean live shard depth — 1.0 is perfectly balanced; the
    /// rebalance trigger watches this.
    pub imbalance: f64,
    /// Shards each query probes under the server's resolved plan (equals
    /// the shard count for full fan-out).
    pub nprobe: usize,
    /// Bytes of write-ahead log not yet folded into a snapshot — the
    /// replay debt a crash right now would incur. `0` when the store is
    /// not durable.
    pub wal_depth_bytes: u64,
    /// Highest WAL LSN known durable (covered by an fsync). `0` when the
    /// store is not durable.
    pub last_fsync_lsn: u64,
    /// WAL records replayed when the store was opened — nonzero exactly
    /// when this process recovered state a predecessor journaled.
    pub replay_records: u64,
}

/// Writes one frame (length prefix + payload). Refuses payloads past
/// [`MAX_FRAME_LEN`] — the peer's decoder would reject them anyway, and
/// erroring here keeps the stream's framing intact.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "outbound frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte bound",
                payload.len()
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame's payload. Rejects length prefixes of zero or beyond
/// [`MAX_FRAME_LEN`] **before allocating anything** sized by them.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty frame"));
    }
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte bound"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Incremental frame reassembly for nonblocking reads: feed whatever
/// bytes the socket produced — any split, down to one byte at a time —
/// and collect complete frame payloads as they materialize.
///
/// Framing violations (zero or oversized length prefixes) poison the
/// assembler: the stream position is unrecoverable once a length prefix
/// is wrong, so every later `push` fails too and the connection must be
/// torn down.
#[derive(Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    poisoned: bool,
}

impl FrameAssembler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffered bytes not yet assembled into a complete frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Absorbs `bytes` and returns every frame payload completed by them.
    pub fn push(&mut self, bytes: &[u8]) -> io::Result<Vec<Vec<u8>>> {
        if self.poisoned {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "framing already broken"));
        }
        self.buf.extend_from_slice(bytes);
        let mut out = Vec::new();
        let mut pos = 0;
        while self.buf.len() - pos >= 4 {
            let len =
                u32::from_le_bytes(self.buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if len == 0 || len > MAX_FRAME_LEN as usize {
                self.poisoned = true;
                self.buf.clear();
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("frame of {len} bytes outside (0, {MAX_FRAME_LEN}]"),
                ));
            }
            if self.buf.len() - pos - 4 < len {
                break;
            }
            out.push(self.buf[pos + 4..pos + 4 + len].to_vec());
            pos += 4 + len;
        }
        self.buf.drain(..pos);
        Ok(out)
    }
}

/// Extracts the tag from a payload without decoding the rest — how the
/// server addresses an error reply for a body it cannot decode. `None`
/// when the payload is too short to even carry a tag.
pub fn payload_tag(payload: &[u8]) -> Option<u64> {
    if payload.len() < PAYLOAD_HEADER_LEN {
        return None;
    }
    Some(u64::from_le_bytes(payload[..8].try_into().expect("8 bytes")))
}

/// Encodes a request payload (no length prefix; [`write_frame`] adds it).
pub fn encode_request(tag: u64, req: &Request) -> Vec<u8> {
    match req {
        Request::Query { k, vector } => {
            let mut out = Vec::with_capacity(PAYLOAD_HEADER_LEN + 8 + 4 * vector.len());
            out.extend_from_slice(&tag.to_le_bytes());
            out.push(OP_QUERY);
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&(vector.len() as u32).to_le_bytes());
            for x in vector {
                out.extend_from_slice(&x.to_le_bytes());
            }
            out
        }
        Request::Stats => {
            let mut out = Vec::with_capacity(PAYLOAD_HEADER_LEN);
            out.extend_from_slice(&tag.to_le_bytes());
            out.push(OP_STATS);
            out
        }
    }
}

/// Decodes a request payload into its tag and message.
pub fn decode_request(payload: &[u8]) -> io::Result<(u64, Request)> {
    let mut cur = Cursor::new(payload);
    let tag = cur.u64()?;
    match cur.u8()? {
        OP_QUERY => {
            let k = cur.u32()?;
            let n = cur.u32()? as usize;
            // n came off the wire: cross-check against the bytes actually
            // present before sizing a buffer from it.
            if cur.remaining() != n * 4 {
                return Err(invalid(format!(
                    "query of {n} components with {} body bytes",
                    cur.remaining()
                )));
            }
            // The check above sized the body exactly: one pass, one
            // component per 4 bytes, no per-component error path.
            let vector = cur
                .rest()
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            Ok((tag, Request::Query { k, vector }))
        }
        OP_STATS => {
            cur.done()?;
            Ok((tag, Request::Stats))
        }
        op => Err(invalid(format!("unknown request opcode {op:#04x}"))),
    }
}

/// Encodes a response payload (no length prefix; [`write_frame`] adds it).
pub fn encode_response(tag: u64, resp: &Response) -> Vec<u8> {
    match resp {
        Response::Hits { hits, last } => {
            debug_assert!(hits.len() <= MAX_CHUNK_HITS, "chunk overflows the frame bound");
            let mut out = Vec::with_capacity(PAYLOAD_HEADER_LEN + 5 + 12 * hits.len());
            out.extend_from_slice(&tag.to_le_bytes());
            out.push(OP_HITS);
            out.push(if *last { HITS_FLAG_LAST } else { 0 });
            out.extend_from_slice(&(hits.len() as u32).to_le_bytes());
            for h in hits {
                out.extend_from_slice(&h.id.to_le_bytes());
                out.extend_from_slice(&h.score.to_le_bytes());
            }
            out
        }
        Response::Stats(stats) => {
            let json = serde_json::to_string(stats.as_ref()).expect("StatsReply serializes");
            let mut out = Vec::with_capacity(PAYLOAD_HEADER_LEN + json.len());
            out.extend_from_slice(&tag.to_le_bytes());
            out.push(OP_STATS_REPLY);
            out.extend_from_slice(json.as_bytes());
            out
        }
        Response::Overloaded { retry_after_millis } => {
            let mut out = Vec::with_capacity(PAYLOAD_HEADER_LEN + 4);
            out.extend_from_slice(&tag.to_le_bytes());
            out.push(OP_OVERLOADED);
            out.extend_from_slice(&retry_after_millis.to_le_bytes());
            out
        }
        Response::Error(msg) => {
            let mut out = Vec::with_capacity(PAYLOAD_HEADER_LEN + msg.len());
            out.extend_from_slice(&tag.to_le_bytes());
            out.push(OP_ERROR);
            out.extend_from_slice(msg.as_bytes());
            out
        }
    }
}

/// Encodes a complete ranked result as a sequence of chunked `Hits`
/// payloads — at least one frame (an empty `last` chunk for an empty
/// result), each within [`MAX_FRAME_LEN`].
pub fn encode_hits_payloads(tag: u64, hits: &[Hit]) -> Vec<Vec<u8>> {
    encode_hits_payloads_chunked(tag, hits, MAX_CHUNK_HITS)
}

/// [`encode_hits_payloads`] with an explicit chunk size — the interleaving
/// proptests use tiny chunks to exercise many-frame replies without
/// building [`MAX_CHUNK_HITS`]-sized results.
pub fn encode_hits_payloads_chunked(tag: u64, hits: &[Hit], chunk_hits: usize) -> Vec<Vec<u8>> {
    let chunk_hits = chunk_hits.clamp(1, MAX_CHUNK_HITS);
    if hits.is_empty() {
        return vec![encode_response(tag, &Response::Hits { hits: Vec::new(), last: true })];
    }
    let mut out = Vec::with_capacity(hits.len().div_ceil(chunk_hits));
    let mut chunks = hits.chunks(chunk_hits).peekable();
    while let Some(chunk) = chunks.next() {
        let last = chunks.peek().is_none();
        out.push(encode_response(tag, &Response::Hits { hits: chunk.to_vec(), last }));
    }
    out
}

/// Decodes a response payload into its tag and message.
pub fn decode_response(payload: &[u8]) -> io::Result<(u64, Response)> {
    let mut cur = Cursor::new(payload);
    let tag = cur.u64()?;
    match cur.u8()? {
        OP_HITS => {
            let flags = cur.u8()?;
            if flags & !HITS_FLAG_LAST != 0 {
                return Err(invalid(format!("unknown hits flags {flags:#04x}")));
            }
            let n = cur.u32()? as usize;
            if cur.remaining() != n * 12 {
                return Err(invalid(format!("{n} hits with {} body bytes", cur.remaining())));
            }
            let mut hits = Vec::with_capacity(n);
            for _ in 0..n {
                let id = cur.u64()?;
                let score = cur.f32()?;
                hits.push(Hit { id, score });
            }
            cur.done()?;
            Ok((tag, Response::Hits { hits, last: flags & HITS_FLAG_LAST != 0 }))
        }
        OP_STATS_REPLY => {
            let json = std::str::from_utf8(cur.rest())
                .map_err(|e| invalid(format!("stats reply is not UTF-8: {e}")))?;
            let stats: StatsReply = serde_json::from_str(json)
                .map_err(|e| invalid(format!("stats reply does not parse: {e}")))?;
            Ok((tag, Response::Stats(Box::new(stats))))
        }
        OP_OVERLOADED => {
            let retry_after_millis = cur.u32()?;
            cur.done()?;
            Ok((tag, Response::Overloaded { retry_after_millis }))
        }
        OP_ERROR => {
            let msg = std::str::from_utf8(cur.rest())
                .map_err(|e| invalid(format!("error reply is not UTF-8: {e}")))?
                .to_string();
            Ok((tag, Response::Error(msg)))
        }
        op => Err(invalid(format!("unknown response opcode {op:#04x}"))),
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A bounds-checked little-endian reader over one payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(invalid(format!("truncated frame: wanted {n} more bytes")));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Asserts the payload was consumed exactly — trailing garbage is a
    /// framing bug on the peer's side and must not pass silently.
    fn done(&self) -> io::Result<()> {
        if self.remaining() != 0 {
            return Err(invalid(format!("{} trailing bytes after message", self.remaining())));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrips_with_tag() {
        let req = Request::Query { k: 10, vector: vec![1.5, -2.25, 0.0, f32::MIN_POSITIVE] };
        assert_eq!(decode_request(&encode_request(42, &req)).unwrap(), (42, req));
        let empty = Request::Query { k: 0, vector: Vec::new() };
        assert_eq!(decode_request(&encode_request(u64::MAX, &empty)).unwrap(), (u64::MAX, empty));
        assert_eq!(
            decode_request(&encode_request(1, &Request::Stats)).unwrap(),
            (1, Request::Stats)
        );
    }

    #[test]
    fn responses_roundtrip_with_tag() {
        let hits = Response::Hits {
            hits: vec![Hit { id: 7, score: 0.99 }, Hit { id: u64::MAX, score: -1.0 }],
            last: true,
        };
        assert_eq!(decode_response(&encode_response(9, &hits)).unwrap(), (9, hits));
        let partial = Response::Hits { hits: vec![Hit { id: 3, score: 0.5 }], last: false };
        assert_eq!(decode_response(&encode_response(9, &partial)).unwrap(), (9, partial));
        let over = Response::Overloaded { retry_after_millis: 17 };
        assert_eq!(decode_response(&encode_response(0, &over)).unwrap(), (CONNECTION_TAG, over));
        let err = Response::Error("no such dimension".into());
        assert_eq!(decode_response(&encode_response(5, &err)).unwrap(), (5, err));
        let stats = Response::Stats(Box::new(StatsReply {
            shard_depths: vec![3, 1],
            queue_capacity: 64,
            connections: 2,
            shed: 2,
            served: 40,
            ..StatsReply::default()
        }));
        assert_eq!(decode_response(&encode_response(8, &stats)).unwrap(), (8, stats));
    }

    #[test]
    fn payload_tag_peeks_without_decoding() {
        let payload = encode_request(0xdead_beef, &Request::Stats);
        assert_eq!(payload_tag(&payload), Some(0xdead_beef));
        assert_eq!(payload_tag(&payload[..8]), None, "header-short payload has no tag");
    }

    #[test]
    fn nan_scores_survive_the_wire_bit_for_bit() {
        let hits = vec![Hit { id: 1, score: f32::NAN }, Hit { id: 2, score: f32::INFINITY }];
        let encoded = encode_response(3, &Response::Hits { hits: hits.clone(), last: true });
        let (_, decoded) = decode_response(&encoded).unwrap();
        let Response::Hits { hits: got, .. } = decoded else { panic!("wrong variant") };
        for (a, b) in hits.iter().zip(&got) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn hits_chunking_splits_and_flags_the_final_chunk() {
        let hits: Vec<Hit> =
            (0..2 * MAX_CHUNK_HITS + 5).map(|i| Hit { id: i as u64, score: -(i as f32) }).collect();
        let payloads = encode_hits_payloads(11, &hits);
        assert_eq!(payloads.len(), 3);
        let mut reassembled = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            assert!(p.len() <= MAX_FRAME_LEN as usize);
            let (tag, resp) = decode_response(p).unwrap();
            assert_eq!(tag, 11);
            let Response::Hits { hits: chunk, last } = resp else { panic!("wrong variant") };
            assert_eq!(last, i == 2, "only the final chunk carries the last flag");
            reassembled.extend(chunk);
        }
        assert_eq!(reassembled, hits, "chunking must preserve rank order exactly");

        // Empty result: still exactly one (terminal) frame.
        let empty = encode_hits_payloads(4, &[]);
        assert_eq!(empty.len(), 1);
        assert_eq!(
            decode_response(&empty[0]).unwrap(),
            (4, Response::Hits { hits: Vec::new(), last: true })
        );
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        // A hostile 4 GiB length prefix: read_frame must error out after
        // the 4 prefix bytes without sizing a buffer from it.
        let mut stream: &[u8] = &0xffff_ffffu32.to_le_bytes();
        let err = read_frame(&mut stream).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "unhelpful error: {err}");
        // Just past the bound is rejected too; at the bound it would read.
        let mut at_edge: &[u8] = &(MAX_FRAME_LEN + 1).to_le_bytes();
        assert_eq!(read_frame(&mut at_edge).unwrap_err().kind(), io::ErrorKind::InvalidData);
        let mut zero: &[u8] = &0u32.to_le_bytes();
        assert_eq!(read_frame(&mut zero).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_bodies_are_rejected() {
        // Element count inconsistent with the body length.
        let mut req = encode_request(1, &Request::Query { k: 5, vector: vec![1.0, 2.0] });
        let n_off = PAYLOAD_HEADER_LEN + 4;
        req[n_off..n_off + 4].copy_from_slice(&100u32.to_le_bytes());
        assert!(decode_request(&req).is_err(), "inflated component count must not decode");
        // Unknown opcodes, truncation, and trailing garbage.
        assert!(decode_request(&[0; PAYLOAD_HEADER_LEN - 1]).is_err(), "tagless runt");
        let mut unknown = vec![0u8; PAYLOAD_HEADER_LEN];
        unknown[8] = 0x7f;
        assert!(decode_request(&unknown).is_err());
        let mut trailing = encode_request(2, &Request::Stats);
        trailing.push(0);
        assert!(decode_request(&trailing).is_err());
        let mut resp = encode_response(
            3,
            &Response::Hits { hits: vec![Hit { id: 1, score: 1.0 }], last: true },
        );
        let n_off = PAYLOAD_HEADER_LEN + 1;
        resp[n_off..n_off + 4].copy_from_slice(&2u32.to_le_bytes());
        assert!(decode_response(&resp).is_err(), "inflated hit count must not decode");
        // Unknown hits flags are reserved, not ignored.
        let mut flags = encode_response(3, &Response::Hits { hits: Vec::new(), last: true });
        flags[PAYLOAD_HEADER_LEN] = 0x82;
        assert!(decode_response(&flags).is_err());
    }

    #[test]
    fn frames_roundtrip_through_a_byte_stream() {
        let payloads: Vec<Vec<u8>> = vec![
            encode_request(1, &Request::Query { k: 3, vector: vec![0.5; 17] }),
            encode_request(2, &Request::Stats),
            encode_response(1, &Response::Overloaded { retry_after_millis: 3 }),
        ];
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        let mut r: &[u8] = &stream;
        for p in &payloads {
            assert_eq!(&read_frame(&mut r).unwrap(), p);
        }
        assert!(read_frame(&mut r).is_err(), "EOF must surface as an error");
    }

    #[test]
    fn assembler_reassembles_across_arbitrary_splits() {
        let payloads: Vec<Vec<u8>> = (0..5)
            .map(|i| encode_request(i + 1, &Request::Query { k: i as u32, vector: vec![0.25; 3] }))
            .collect();
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, p).unwrap();
        }
        // One byte at a time: the cruelest split.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for b in &stream {
            got.extend(asm.push(std::slice::from_ref(b)).unwrap());
        }
        assert_eq!(got, payloads);
        assert_eq!(asm.pending_bytes(), 0);
        // And all at once.
        let mut asm = FrameAssembler::new();
        assert_eq!(asm.push(&stream).unwrap(), payloads);
    }

    #[test]
    fn assembler_poisons_on_hostile_length_prefixes() {
        let mut asm = FrameAssembler::new();
        let err = asm.push(&0xffff_ffffu32.to_le_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The stream position is gone: everything after fails too.
        assert!(asm.push(&encode_request(1, &Request::Stats)).is_err());

        let mut asm = FrameAssembler::new();
        assert!(asm.push(&0u32.to_le_bytes()).is_err(), "zero-length frame");
    }
}
