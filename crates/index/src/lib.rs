//! Retrieval layer for the TabBiN workspace: a storage engine over table,
//! column, and entity embeddings.
//!
//! The paper's evaluation only ever needed one-shot LSH blocking (§4.1).
//! Serving retrieval over a *growing* corpus needs more, and this crate
//! provides it as one store behind one query engine:
//!
//! * [`ShardedStore`] ([`shard`]) — **the** store: router-driven placement
//!   of ids across per-shard slabs, per-shard compaction, one search core
//!   (prepare → probe → per-tier scan → merge or re-rank), `TBIX` v5
//!   snapshots and an optional write-ahead log. `ShardedStore::new(dim, 1,
//!   cfg)` is the flat store.
//! * the per-shard slab (crate-private `store`, over [`segment`]) —
//!   segmented L2-normalized embeddings with SIMD dot-product top-k
//!   ([`simd`]), tombstones, packed signature slabs (plus LSH band
//!   buckets on the exact tier), and **policy-driven compaction**
//!   ([`CompactionPolicy`]) that rewrites dead rows automatically on
//!   mutation instead of at caller discretion.
//! * [`Router`] ([`router`]) — how vectors map to shards: [`HashRouter`]
//!   (splitmix64 of the id, geometry-blind, full fan-out — the default) or
//!   [`IvfRouter`] (a deterministic k-means coarse quantizer; upserts
//!   co-locate under their nearest centroid and queries probe only the
//!   `nprobe` nearest cells — sublinear scans, with an online `rebalance`
//!   path when centroids drift under churn). A trained router's sample
//!   mean is the centre of every shard's signature hyperplanes.
//! * [`ScoringTier`] — how a query is scored: [`ScoringTier::Exact`] runs
//!   the f32 dot kernel over the rows a [`CandidateSource`] nominates —
//!   [`ExactScan`], or [`LshCandidates`] (banded SimHash blocking, the
//!   paper's §4.1 recipe, maintained incrementally as vectors arrive);
//!   [`ScoringTier::Quantized`] ranks packed signatures (hyperplanes
//!   centred on the router's sample mean) by SIMD popcount Hamming
//!   distance and re-scores only the closest `rerank_factor × k` exactly,
//!   picked by a counting select (distance histogram, cut, smallest ids at
//!   the cut) — a global selection, so quantized results are
//!   shard-layout-independent.
//! * [`snapshot`] — persistence: the `TBIX` v5 binary codec, the one
//!   format written and read. Loaded stores answer queries
//!   byte-identically.
//! * [`QueryEngine`] ([`engine`]) — query *execution* extracted out of
//!   storage: candidate-source planning ([`ProbePolicy`], ef-style probe
//!   width), the shard-probe budget ([`NprobePolicy`]), an LRU result cache
//!   keyed on normalized query vectors, and a leader/follower
//!   [`MicroBatcher`] coalescing concurrent single queries into batched
//!   scans. The store stays pure storage behind the [`Queryable`] trait;
//!   the engine is what consumers (eval, examples, the `tabbin-serve`
//!   network tier) talk to.
//! * [`VectorSink`] — the insertion surface the batched embedding pipeline
//!   (`tabbin_core::batch`) streams into, implemented by [`ShardedStore`]
//!   (and by [`QueryEngine`], which invalidates its cache as it inserts).
//! * [`lsh`] — the SimHash primitives.
//! * [`wal`] — durability: per-shard write-ahead logs with CRC32-framed
//!   records and global LSNs, group commit under a [`DurabilityPolicy`],
//!   a manifest tying live segments to the snapshot they fold into, and
//!   torn-tail-tolerant replay. `ShardedStore::open_durable` recovers a
//!   crashed store bit-identical to its durable prefix.

pub mod candidates;
pub mod engine;
pub mod lsh;
pub mod parallel;
pub mod router;
pub mod segment;
pub mod shard;
pub mod simd;
pub mod snapshot;
mod store;
pub mod wal;

pub use candidates::{CandidateSource, Candidates, ExactScan, LshCandidates, QueryContext};
pub use engine::{
    EngineConfig, EngineStats, MicroBatchStats, MicroBatcher, NprobePolicy, ProbePolicy,
    QueryEngine, QueryPlan, Queryable,
};
pub use router::{HashRouter, IvfRouter, Router};
pub use shard::{ShardedStats, ShardedStore};
pub use simd::Hit;
pub use snapshot::{RouterSnapshot, StoreSnapshot, SNAPSHOT_VERSION};
pub use store::{
    CompactionPolicy, LshParams, ScoringTier, StoreConfig, StoreStats, VectorSink,
    DEFAULT_RERANK_FACTOR, DEFAULT_SEAL_THRESHOLD, MAX_PAUSE_SAMPLES,
};
pub use wal::{DurabilityPolicy, FsStorage, Storage, WalRecord, WalStats};
