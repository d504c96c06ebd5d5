//! The serving tier: table-search as a network service.
//!
//! `tabbin-index` ends at an in-process [`QueryEngine`]; this crate puts a
//! network front on it so the sharded retrieval tier serves sustained
//! concurrent traffic instead of in-process callers — the ROADMAP's
//! query-server and async-serving milestones. Five layers:
//!
//! * [`wire`] — protocol v2: length-prefixed frames, each payload opening
//!   with a client-chosen **u64 tag** so many requests ride one
//!   connection and replies return out of order; large results stream as
//!   chunked `Hits` frames; decoding is allocation-safe against hostile
//!   length prefixes.
//! * [`conn`] — the per-connection nonblocking state machine: partial
//!   frame reassembly, a bounded write queue with partial-write resume,
//!   and in-flight tag tracking (a tag is released when its reply's last
//!   frame is written).
//! * [`reactor`] — the readiness-driven event loop (a vendored
//!   epoll-backed poller, no async runtime): a few I/O threads own every
//!   socket and apply **backpressure** by pausing reads on connections
//!   whose reply queues back up.
//! * [`Server`] ([`server`]) — the policy the loops run: **run to
//!   completion**, so the I/O thread that decodes a query answers it with
//!   one [`QueryEngine::query`] call on the spot (no worker pool, no
//!   hand-off), and a **per-turn admission budget** sheds the excess with
//!   an explicit [`Response::Overloaded`] reply carrying a retry-after
//!   hint.
//! * [`Client`] ([`client`]) — one connection keeping up to a window of
//!   tagged requests in flight (one for [`Client::connect`], a blocking
//!   round trip), matching replies by tag via [`ReplyDemux`].
//!
//! Wire results are **bit-identical** to in-process engine calls (pinned
//! end to end in `tests/loopback.rs` and `tests/prop_wire.rs`): frames
//! carry exact `f32` bit patterns, and reply routing is by tag, never by
//! position, so out-of-order completion cannot mix up results.

pub mod client;
pub mod conn;
pub mod reactor;
pub mod server;
pub mod wire;

pub use client::{Client, QueryOutcome, ReplyDemux, RetryPolicy};
pub use server::{ServeConfig, Server};
pub use wire::{
    Request, Response, StatsReply, WorkerStats, CONNECTION_TAG, MAX_CHUNK_HITS, MAX_FRAME_LEN,
};

// Re-exported so downstream callers can build an engine without also
// depending on tabbin-index directly.
pub use tabbin_index::{EngineConfig, QueryEngine, ShardedStore};
