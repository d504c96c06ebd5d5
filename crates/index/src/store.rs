//! The per-shard slab: segments, tombstones, compaction, signature slabs and
//! (exact tier) band buckets.
//!
//! [`VectorStore`] is crate-private — one shard of a
//! [`crate::ShardedStore`], which owns routing, the search core and
//! persistence (`ShardedStore::new(dim, 1, cfg)` is the flat store). It
//! holds L2-normalized embeddings in flat per-segment `Vec<f32>` arrays
//! ([`crate::segment`]) and scans them for one prepared query at a time:
//!
//! * **Segments** — vectors append into the one unsealed tail segment; when
//!   it reaches `seal_threshold` rows it is sealed and a fresh segment opens.
//!   Sealed segments are immutable except for tombstones, which keeps scans
//!   cache-friendly flat loops.
//! * **Upsert / delete with tombstones** — overwriting or deleting an id
//!   tombstones the old row in place; compaction rewrites the segments
//!   without the dead rows. Compaction is **policy-driven**: every store
//!   carries a [`CompactionPolicy`] and compacts itself on mutation once
//!   the tombstone ratio or segment count crosses the configured bounds,
//!   so callers never schedule maintenance by hand. Pause times are
//!   recorded per run ([`VectorStore::compaction_pauses`]).
//! * **Scoring tiers** — [`ScoringTier::Exact`] scores with the f32 dot
//!   kernel the rows a pluggable [`CandidateSource`] nominates: exhaustive
//!   [`ExactScan`](crate::ExactScan) or LSH banded blocking
//!   ([`LshCandidates`](crate::LshCandidates), the paper's §4.1 recipe),
//!   over per-segment band buckets maintained incrementally as vectors
//!   arrive. [`ScoringTier::Quantized`] keeps no buckets: it ranks every
//!   row of the probed shards by the Hamming distance of its packed
//!   sign-bit signature (a popcount pass over ~64×-denser data) and
//!   re-scores only the `rerank_factor × k` closest with the f32 kernel.
//!   Every bit of a signature — stored row or query — is one hyperplane
//!   projection compared against that plane's threshold `dot(P_j, μ)`,
//!   where μ is the router's sample mean ([`crate::Router::mean`]; zero
//!   without one): the hyperplanes pass through the corpus centre, so on
//!   anisotropic embeddings the bits still split the rows (see
//!   [`crate::lsh`]). The slab signs through one `Signer` on insert,
//!   compaction and query preparation, and re-signs every row through the
//!   compaction rewrite when the centre moves ([`VectorStore::recentre`]).
//!   This slab runs the two per-shard walks of that counting select —
//!   [`VectorStore::hamming_pass`] tallies distances, and
//!   [`VectorStore::cut_pass`] keeps the rows under the cut by location —
//!   while [`crate::ShardedStore`] owns the cut itself, so the selection
//!   is a *global* `r` smallest under the (distance, id) total order and
//!   quantized results are independent of segment — and shard — layout.

use crate::candidates::{CandidateSource, Candidates, QueryContext};
use crate::lsh::{band_key, packed_len, random_planes, Signer};
use crate::segment::Segment;
use crate::simd::{dot, hamming, DistHistogram, TopK};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Default number of rows after which the active segment is sealed.
pub const DEFAULT_SEAL_THRESHOLD: usize = 4096;

/// Pause-log retention floor per store. A long-lived store under churn
/// compacts indefinitely; the pause log always holds the most recent
/// `MAX_PAUSE_SAMPLES` runs (enough for stable p50/p99) and is trimmed
/// amortized-O(1), so it may transiently hold up to `2 *
/// MAX_PAUSE_SAMPLES - 1` before a trim — never more — while
/// [`crate::ShardedStore::compactions`] counts every run ever.
pub const MAX_PAUSE_SAMPLES: usize = 1024;

/// LSH banding parameters for a store's candidate generation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LshParams {
    /// Number of bands; each band is one bucket lookup per probe.
    pub bands: usize,
    /// Signature bits per band; more rows prune harder but recall less.
    pub rows_per_band: usize,
}

impl LshParams {
    /// Explicit banding geometry; `bands * rows_per_band` is the signature
    /// width in bits — the one place it is decided.
    pub fn new(bands: usize, rows_per_band: usize) -> Self {
        Self { bands, rows_per_band }
    }

    /// A blocking geometry that keeps recall high on realistic (clustered)
    /// embedding corpora while still pruning aggressively.
    pub fn default_blocking() -> Self {
        Self { bands: 16, rows_per_band: 8 }
    }
}

/// A cheap 16-bit signature: wide enough buckets that small test corpora
/// keep recall, narrow enough that probing stays visibly selective.
impl Default for LshParams {
    fn default() -> Self {
        Self { bands: 8, rows_per_band: 2 }
    }
}

/// Default coarse over-fetch of the quantized tier: re-rank the top
/// `4 × k` Hamming survivors with the f32 kernel.
pub const DEFAULT_RERANK_FACTOR: usize = 4;

/// How a store scores a query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScoringTier {
    /// Score every row the [`CandidateSource`] nominates with the f32 dot
    /// kernel.
    #[default]
    Exact,
    /// Rank every live row by Hamming distance over packed sign-bit LSH
    /// signatures first (the candidate source is not consulted), then
    /// re-score only the top `rerank_factor × k` survivors with the f32
    /// kernel. Requires LSH to be configured.
    Quantized {
        /// Coarse over-fetch multiple: the Hamming pass keeps
        /// `rerank_factor × k` rows for exact re-ranking. Must be ≥ 1;
        /// larger values trade re-rank dots for recall.
        rerank_factor: usize,
    },
}

/// The coarse pass's keep count: `rerank_factor × k`, saturating.
pub(crate) fn coarse_r(k: usize, rerank_factor: usize) -> usize {
    k.saturating_mul(rerank_factor.max(1))
}

/// A row the quantized tier's pass 2 found at exactly the cut distance:
/// its id (the tie-break) and where its vector lives, so the survivors of
/// the tie re-rank without an id lookup.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Tie {
    pub(crate) id: u64,
    pub(crate) shard: u32,
    pub(crate) seg: u32,
    pub(crate) row: u32,
}

/// Everything a store computes once per query: the normalized vector and
/// (when LSH is on) its signature packed into `u64` words — what band keys
/// are cut from and what the quantized tier's Hamming pass scores against.
/// Owns its buffers; [`ctx`](Self::ctx) lends them out as a
/// [`QueryContext`] per probe.
#[derive(Clone, Debug)]
pub(crate) struct PreparedQuery {
    pub(crate) nq: Vec<f32>,
    pub(crate) packed: Option<Vec<u64>>,
}

impl PreparedQuery {
    pub(crate) fn ctx(&self) -> QueryContext<'_> {
        QueryContext { vector: &self.nq, packed: self.packed.as_deref() }
    }
}

/// When a store compacts itself. Checked after every mutating call
/// (`upsert` / `delete`); a store whose tombstone ratio or segment count
/// crosses either bound rewrites itself immediately, replacing
/// caller-discretion `compact()` scheduling. Compaction only runs when it
/// can achieve something: at least one tombstone exists (the only thing a
/// rewrite removes), and the segment-count trigger additionally requires
/// that a rewrite would actually shrink the segment list — a store whose
/// *live* rows already fill more than `max_segments` full segments must
/// not rewrite itself on every mutation forever.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompactionPolicy {
    /// Compact once `tombstones / (live + tombstones)` exceeds this.
    pub max_tombstone_ratio: f32,
    /// Compact once the segment count exceeds this (and tombstones exist).
    pub max_segments: usize,
}

impl Default for CompactionPolicy {
    /// Compact at 30% dead rows or past 64 segments — early enough that
    /// scans never wade through mostly-dead slabs, late enough that the
    /// rewrite amortizes over many mutations.
    fn default() -> Self {
        Self { max_tombstone_ratio: 0.3, max_segments: 64 }
    }
}

impl CompactionPolicy {
    /// A policy that never triggers; mutations leave tombstones in place
    /// until `compact()` is called explicitly.
    pub fn disabled() -> Self {
        Self { max_tombstone_ratio: f32::INFINITY, max_segments: usize::MAX }
    }

    /// Whether a store in this state should compact now. `seal_threshold`
    /// bounds what a rewrite can achieve: compaction repacks live rows
    /// into `ceil(live / seal_threshold)` segments, so the segment-count
    /// trigger only fires when that floor is below the current count.
    pub(crate) fn should_compact(&self, stats: StoreStats, seal_threshold: usize) -> bool {
        if stats.tombstones == 0 {
            return false;
        }
        let total = (stats.live + stats.tombstones) as f32;
        if stats.tombstones as f32 > self.max_tombstone_ratio * total {
            return true;
        }
        stats.segments > self.max_segments && stats.segments > stats.live.div_ceil(seal_threshold)
    }
}

/// Construction-time options for a [`crate::ShardedStore`] (every shard is
/// built from the same one).
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Rows per segment before it seals and a new one opens.
    pub seal_threshold: usize,
    /// `Some` enables LSH signatures: incremental band buckets on the exact
    /// tier (what makes [`crate::LshCandidates`] meaningful), the packed
    /// slabs the quantized tier ranks by; `None` leaves exact scan only.
    pub lsh: Option<LshParams>,
    /// Seed for the LSH hyperplanes — two stores with the same seed, params,
    /// and dimension hash identically.
    pub seed: u64,
    /// How queries are scored (see [`ScoringTier`]).
    /// [`ScoringTier::Quantized`] requires `lsh` to be `Some`.
    pub tier: ScoringTier,
    /// When the store compacts itself (see [`CompactionPolicy`]).
    pub policy: CompactionPolicy,
    /// When WAL appends are fsynced, for stores opened durably via
    /// `ShardedStore::open_durable` (see [`crate::wal::DurabilityPolicy`]).
    /// Ignored by non-durable stores.
    pub durability: crate::wal::DurabilityPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
            lsh: None,
            seed: 0x7ab1,
            tier: ScoringTier::Exact,
            policy: CompactionPolicy::default(),
            durability: crate::wal::DurabilityPolicy::Never,
        }
    }
}

impl StoreConfig {
    /// The default configuration with LSH blocking enabled.
    pub fn with_lsh(params: LshParams) -> Self {
        Self { lsh: Some(params), ..Self::default() }
    }

    /// LSH blocking plus the quantized two-tier scoring path, with the
    /// default [`DEFAULT_RERANK_FACTOR`] over-fetch.
    pub fn quantized(params: LshParams) -> Self {
        Self {
            lsh: Some(params),
            tier: ScoringTier::Quantized { rerank_factor: DEFAULT_RERANK_FACTOR },
            ..Self::default()
        }
    }
}

/// Aggregate state of a store, for observability and compaction policy.
/// Serializable so the serving tier can ship per-shard stats in a `Stats`
/// reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Live (non-tombstoned) vectors.
    pub live: usize,
    /// Tombstoned rows awaiting compaction.
    pub tombstones: usize,
    /// Total segments, including the unsealed tail.
    pub segments: usize,
    /// Segments that have been sealed.
    pub sealed_segments: usize,
    /// Rows (live + tombstoned) still in unsealed segments — work the seal
    /// lifecycle has not absorbed yet. Together with `tombstones` this is
    /// the store's *pending depth*: the backlog a busy shard accumulates,
    /// and the per-shard head-of-line signal the serving tier reports.
    pub pending_rows: usize,
    /// Candidate rows visited by scans (exact or coarse) over the store's
    /// lifetime — with the sharded tier's `shards_probed`, the observable
    /// evidence that routed queries really do scan sublinearly.
    pub rows_scanned: u64,
}

impl StoreStats {
    /// The store's pending depth: tombstones awaiting compaction plus rows
    /// awaiting seal — the backlog proxy the serving tier's `Stats` reply
    /// exposes per shard.
    pub fn pending_depth(&self) -> usize {
        self.tombstones + self.pending_rows
    }
}

/// Anything embeddings can stream into: [`crate::ShardedStore`], a
/// [`crate::QueryEngine`] over one, or custom sinks (filters, tees, remotes). The
/// batched embedding pipeline (`tabbin_core::batch`) writes through this
/// trait, so producers never care which storage tier they feed.
pub trait VectorSink {
    /// The vector dimensionality the sink expects.
    fn dim(&self) -> usize;

    /// Inserts a vector under a fresh auto-assigned id and returns it.
    fn insert(&mut self, v: &[f32]) -> u64;
}

/// One shard's segmented, incrementally-updatable slab of L2-normalized
/// embeddings. See the [module docs](self) for the design. `pub` only so
/// [`CandidateSource`] can name it; the module is private, so nothing
/// outside the crate can.
#[derive(Debug)]
pub struct VectorStore {
    dim: usize,
    cfg: StoreConfig,
    /// The `bands * rows_per_band` hyperplanes and their thresholds when
    /// LSH is on.
    signer: Option<Signer>,
    /// `u64` words per packed signature row (`packed_len` of the signature
    /// width); 0 when LSH is off.
    sig_words: usize,
    segments: Vec<Segment>,
    /// id -> (segment, row) of the live copy.
    locs: HashMap<u64, (u32, u32)>,
    /// Seconds the most recent compaction runs (manual or policy-triggered)
    /// paused mutations for, in run order; trimmed per
    /// [`MAX_PAUSE_SAMPLES`]'s schedule.
    pauses: Vec<f64>,
    /// Total compaction runs over the store's lifetime.
    compactions: u64,
    /// Rows scored by scans over the store's lifetime. Atomic because
    /// scans run from `&self` across the parallel fan-out workers;
    /// relaxed ordering — it's a monotonic counter, not a synchronization
    /// point.
    rows_scanned: AtomicU64,
}

impl Clone for VectorStore {
    fn clone(&self) -> Self {
        Self {
            dim: self.dim,
            cfg: self.cfg,
            signer: self.signer.clone(),
            sig_words: self.sig_words,
            segments: self.segments.clone(),
            locs: self.locs.clone(),
            pauses: self.pauses.clone(),
            compactions: self.compactions,
            rows_scanned: AtomicU64::new(self.rows_scanned.load(Ordering::Relaxed)),
        }
    }
}

impl VectorStore {
    /// An empty store for `dim`-dimensional vectors, its signature
    /// hyperplanes centred on `centre` (the router's sample mean; through
    /// the origin when `None`).
    ///
    /// # Panics
    /// On `dim == 0`, a zero `seal_threshold`, LSH params with zero
    /// bands/rows, or a [`ScoringTier::Quantized`] tier without LSH or with
    /// a zero `rerank_factor`.
    pub(crate) fn new(dim: usize, cfg: StoreConfig, centre: Option<&[f32]>) -> Self {
        assert!(dim > 0, "VectorStore dimension must be positive");
        assert!(cfg.seal_threshold > 0, "seal_threshold must be positive");
        if let ScoringTier::Quantized { rerank_factor } = cfg.tier {
            assert!(cfg.lsh.is_some(), "quantized tier requires LSH signatures (StoreConfig::lsh)");
            assert!(rerank_factor >= 1, "quantized rerank_factor must be at least 1");
        }
        let signer = cfg.lsh.map(|p| {
            assert!(p.bands > 0 && p.rows_per_band > 0, "LSH bands and rows must be positive");
            Signer::new(random_planes(p.bands * p.rows_per_band, dim, cfg.seed), centre)
        });
        Self {
            dim,
            cfg,
            sig_words: cfg.lsh.map_or(0, |p| packed_len(p.bands * p.rows_per_band)),
            signer,
            segments: Vec::new(),
            locs: HashMap::new(),
            pauses: Vec::new(),
            compactions: 0,
            rows_scanned: AtomicU64::new(0),
        }
    }

    /// Number of live vectors.
    pub(crate) fn len(&self) -> usize {
        self.locs.len()
    }

    /// Whether the store holds no live vectors.
    pub(crate) fn is_empty(&self) -> bool {
        self.locs.is_empty()
    }

    /// Whether LSH signatures are kept.
    pub(crate) fn has_lsh(&self) -> bool {
        self.signer.is_some()
    }

    /// The banding whose buckets this store maintains: the LSH params on
    /// the exact tier, `None` without LSH and on the quantized tier — whose
    /// Hamming pass reads signatures, never buckets.
    fn bucketed(&self) -> Option<LshParams> {
        self.cfg.lsh.filter(|_| self.cfg.tier == ScoringTier::Exact)
    }

    /// Signature width in bits (0 without LSH).
    pub(crate) fn sig_bits(&self) -> usize {
        self.signer.as_ref().map_or(0, Signer::bits)
    }

    /// Rows, live and tombstoned — what one Hamming pass over this shard
    /// writes distances for.
    pub(crate) fn rows(&self) -> usize {
        self.segments.iter().map(Segment::rows).sum()
    }

    /// The configuration the store was built with.
    pub(crate) fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// Live/tombstone/segment counts.
    pub(crate) fn stats(&self) -> StoreStats {
        StoreStats {
            live: self.locs.len(),
            tombstones: self.segments.iter().map(|s| s.n_deleted).sum(),
            segments: self.segments.len(),
            sealed_segments: self.segments.iter().filter(|s| s.sealed).count(),
            pending_rows: self.segments.iter().filter(|s| !s.sealed).map(Segment::rows).sum(),
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
        }
    }

    /// Total compaction runs over the store's lifetime (the pause log
    /// below only retains the most recent [`MAX_PAUSE_SAMPLES`]).
    pub(crate) fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Seconds the most recent compaction runs paused mutations for,
    /// oldest first — the series the `index` bench distills into p50/p99.
    /// Holds at least the last [`MAX_PAUSE_SAMPLES`] runs and at most one
    /// sample under twice that (see the constant's docs for the trim
    /// schedule).
    pub(crate) fn compaction_pauses(&self) -> &[f64] {
        &self.pauses
    }

    /// Inserts or replaces the (already normalized) vector stored under
    /// `id` — the sharded store normalizes once up front so its router and
    /// its shards agree on the exact same unit vector. May trigger a
    /// policy compaction when the overwrite's tombstone crosses the
    /// configured bounds.
    pub(crate) fn upsert_normalized(&mut self, id: u64, nv: &[f32]) {
        debug_assert_eq!(nv.len(), self.dim, "upsert_normalized dimension mismatch");
        self.insert_normalized(id, nv);
        self.maybe_compact();
    }

    /// The raw insert path: signs `nv` and appends it. Never triggers
    /// policy compaction — mutators do that after the write, which keeps
    /// `compact`'s own rebuild loop off the policy path.
    fn insert_normalized(&mut self, id: u64, nv: &[f32]) {
        let sig = self.signer.as_ref().map(|s| s.sign(nv));
        self.insert_prepared(id, nv, sig.as_deref());
    }

    /// [`insert_normalized`](Self::insert_normalized) with the packed LSH
    /// signature already in hand — snapshot loading passes the persisted
    /// one through instead of recomputing `bands * rows_per_band`
    /// hyperplane dots per row (and re-normalizing could perturb the stored
    /// bits). `sig` must be `Some` exactly when the store has LSH. Band
    /// buckets are built on the exact tier only: the quantized tier never
    /// reads them.
    pub(crate) fn insert_prepared(&mut self, id: u64, nv: &[f32], sig: Option<&[u64]>) {
        if let Some(&(seg, row)) = self.locs.get(&id) {
            self.tombstone(seg as usize, row as usize);
        }
        let need_new = match self.segments.last() {
            Some(s) => s.sealed || s.rows() >= self.cfg.seal_threshold,
            None => true,
        };
        if need_new {
            if let Some(tail) = self.segments.last_mut() {
                tail.sealed = true;
            }
            self.segments.push(Segment::new(self.bucketed().map_or(0, |p| p.bands)));
        }
        let seg_idx = self.segments.len() - 1;
        let seg = &mut self.segments[seg_idx];
        let row = seg.rows();
        seg.data.extend_from_slice(nv);
        seg.ids.push(id);
        seg.deleted.push(false);
        if let Some(p) = self.cfg.lsh {
            let sig = sig.expect("LSH store insert without a signature");
            // Empty on the quantized tier (see `bucketed`).
            for (b, bucket) in seg.buckets.iter_mut().enumerate() {
                let key = band_key(sig, b, p.rows_per_band);
                bucket.entry(key).or_insert_with(Vec::new).push(row as u32);
            }
            seg.sigs.extend_from_slice(sig);
        }
        if seg.rows() >= self.cfg.seal_threshold {
            seg.sealed = true;
        }
        self.locs.insert(id, (seg_idx as u32, row as u32));
    }

    /// Tombstones `id`; returns whether it was live. The row's data stays
    /// in place (and keeps its LSH bucket entries) until the policy — or an
    /// explicit [`compact`](Self::compact) — rewrites the store.
    pub(crate) fn delete(&mut self, id: u64) -> bool {
        match self.locs.remove(&id) {
            Some((seg, row)) => {
                self.tombstone(seg as usize, row as usize);
                self.maybe_compact();
                true
            }
            None => false,
        }
    }

    fn tombstone(&mut self, seg: usize, row: usize) {
        let s = &mut self.segments[seg];
        if !s.deleted[row] {
            s.deleted[row] = true;
            s.n_deleted += 1;
        }
    }

    /// The live normalized vector stored under `id`.
    pub(crate) fn get(&self, id: u64) -> Option<&[f32]> {
        let &(seg, row) = self.locs.get(&id)?;
        Some(self.row(seg as usize, row as usize))
    }

    /// Whether `id` is live in the store.
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.locs.contains_key(&id)
    }

    /// The vector at a `(segment, row)` location — how the quantized tier's
    /// re-rank reads its survivors, with no id lookup.
    #[inline]
    pub(crate) fn row(&self, seg: usize, row: usize) -> &[f32] {
        &self.segments[seg].data[row * self.dim..(row + 1) * self.dim]
    }

    // --- accessors used by candidate sources -------------------------------

    /// The configured LSH parameters, if any.
    pub(crate) fn lsh_params(&self) -> Option<LshParams> {
        self.cfg.lsh
    }

    /// Rows of segment `seg` sharing the band bucket `key` of `band`.
    pub(crate) fn bucket_rows(&self, seg: usize, band: usize, key: u64) -> Option<&[u32]> {
        self.segments[seg].buckets.get(band)?.get(&key).map(Vec::as_slice)
    }

    // --- queries -----------------------------------------------------------

    /// The live, in-range rows among a source's nominations for `seg`.
    fn live_subset<'a>(s: &'a Segment, rows: &'a [u32]) -> impl Iterator<Item = usize> + 'a {
        rows.iter().map(|&r| r as usize).filter(|&r| r < s.rows() && !s.deleted[r])
    }

    /// How many rows a query for `q` would score here: on the exact tier
    /// the live rows `source` nominates — the blocking factor to report
    /// against the exhaustive `len()`; on the quantized tier, which
    /// consults no source, every live row (what its Hamming pass ranks).
    pub(crate) fn candidate_count(&self, q: &[f32], source: &dyn CandidateSource) -> usize {
        if self.cfg.tier != ScoringTier::Exact {
            return self.len();
        }
        let prepared = self.prepare_query(q);
        let ctx = prepared.ctx();
        self.segments
            .iter()
            .enumerate()
            .map(|(seg, s)| match source.candidates(self, seg, &ctx) {
                Candidates::All => s.rows() - s.n_deleted,
                Candidates::Subset(rows) => Self::live_subset(s, &rows).count(),
            })
            .sum()
    }

    /// Normalizes, signs, and packs a query once; the result feeds every
    /// segment probe of every shard (shards share seed, dimension and
    /// router, hence hyperplanes and thresholds).
    ///
    /// # Panics
    /// If `q.len()` differs from the store dimension.
    pub(crate) fn prepare_query(&self, q: &[f32]) -> PreparedQuery {
        assert_eq!(
            q.len(),
            self.dim,
            "query of a {}-dim vector against a {}-dim store",
            q.len(),
            self.dim
        );
        let mut nq = q.to_vec();
        crate::simd::l2_normalize(&mut nq);
        let packed = self.signer.as_ref().map(|s| s.sign(&nq));
        PreparedQuery { nq, packed }
    }

    /// Scores every segment's candidates for one prepared query into a
    /// single `TopK` — the exact tier's pass. Scores are dot products of
    /// normalized vectors (cosine similarity); ties break by ascending id.
    pub(crate) fn scan_prepared(
        &self,
        ctx: &QueryContext<'_>,
        k: usize,
        source: &dyn CandidateSource,
    ) -> TopK {
        let mut topk = TopK::new(k);
        for seg in 0..self.segments.len() {
            self.scan_segment(ctx, seg, source, &mut topk);
        }
        topk
    }

    /// Pass 1 of the quantized tier's counting select over this shard:
    /// appends the Hamming distance of every row — tombstones as
    /// `hist.sentinel()` — to `dists` in segment-then-row order, and
    /// tallies each into `hist`. One branch-free XOR+POPCNT step per row,
    /// whatever the distances are.
    pub(crate) fn hamming_pass(
        &self,
        qsig: &[u64],
        dists: &mut Vec<u32>,
        hist: &mut DistHistogram,
    ) {
        for s in &self.segments {
            self.rows_scanned.fetch_add((s.rows() - s.n_deleted) as u64, Ordering::Relaxed);
            // Monomorphize on the signature width so the inner loop is
            // straight-line XOR+POPCNT with the query words pinned in
            // registers — the width is a store constant.
            match self.sig_words {
                1 => tally_fixed::<1>(qsig, s, dists, hist),
                2 => tally_fixed::<2>(qsig, s, dists, hist),
                3 => tally_fixed::<3>(qsig, s, dists, hist),
                4 => tally_fixed::<4>(qsig, s, dists, hist),
                w => tally_rows(s, w, dists, hist, |sig| hamming(qsig, sig)),
            }
        }
    }

    /// Pass 2 over this shard's stretch of the distance buffer, as
    /// [`hamming_pass`](Self::hamming_pass) wrote it: every row closer
    /// than `t` re-ranks straight into `topk`, its vector read by location;
    /// every row at exactly `t` joins `ties` for the caller's global id
    /// tie-break. Returns the rest of the buffer — the next shard's.
    pub(crate) fn cut_pass<'d>(
        &self,
        shard: u32,
        nq: &[f32],
        dists: &'d [u32],
        t: u32,
        topk: &mut TopK,
        ties: &mut Vec<Tie>,
    ) -> &'d [u32] {
        let mut rest = dists;
        for (seg, s) in self.segments.iter().enumerate() {
            let (mine, next) = rest.split_at(s.rows());
            rest = next;
            // Nearly every row sits past the cut: rule sixteen out at once on
            // one vectorizable min before looking at any of them alone.
            for (c, chunk) in mine.chunks(16).enumerate() {
                if chunk.iter().fold(u32::MAX, |m, &d| m.min(d)) > t {
                    continue;
                }
                for (row, &d) in (c * 16..).zip(chunk) {
                    if d < t {
                        topk.push(s.ids[row], dot(nq, self.row(seg, row)));
                    } else if d == t {
                        ties.push(Tie { id: s.ids[row], shard, seg: seg as u32, row: row as u32 });
                    }
                }
            }
        }
        rest
    }

    /// Scores one segment's candidates for one prepared query into the
    /// caller's accumulator, counting the rows it actually scored.
    fn scan_segment(
        &self,
        ctx: &QueryContext<'_>,
        seg: usize,
        source: &dyn CandidateSource,
        topk: &mut TopK,
    ) {
        let s = &self.segments[seg];
        let nq = ctx.vector;
        let mut scored = 0u64;
        let mut score = |row: usize| {
            topk.push(s.ids[row], dot(nq, self.row(seg, row)));
            scored += 1;
        };
        match source.candidates(self, seg, ctx) {
            Candidates::All => (0..s.rows()).filter(|&row| !s.deleted[row]).for_each(&mut score),
            Candidates::Subset(rows) => Self::live_subset(s, &rows).for_each(&mut score),
        }
        self.rows_scanned.fetch_add(scored, Ordering::Relaxed);
    }

    // --- lifecycle ---------------------------------------------------------

    /// Centres the signature hyperplanes on `centre` (see
    /// [`new`](Self::new)). When that moves any threshold, every row's
    /// signature is stale: the compaction rewrite re-signs them all.
    pub(crate) fn recentre(&mut self, centre: Option<&[f32]>) {
        let Some(signer) = &mut self.signer else { return };
        if signer.recentre(centre) && !self.segments.is_empty() {
            self.compact();
        }
    }

    /// Runs the configured [`CompactionPolicy`] after a mutation.
    fn maybe_compact(&mut self) {
        if self.cfg.policy.should_compact(self.stats(), self.cfg.seal_threshold) {
            self.compact();
        }
    }

    /// Rewrites all segments without tombstoned rows, resealing full
    /// segments, and records the pause. Query results are unchanged:
    /// scoring depends only on the live `(id, vector)` set, never on
    /// physical layout. The policy normally calls this;
    /// `ShardedStore::compact` exposes it for explicit maintenance windows.
    pub(crate) fn compact(&mut self) {
        let started = Instant::now();
        let entries = self.live_entries();
        self.segments.clear();
        self.locs.clear();
        for (id, v) in entries {
            self.insert_normalized(id, &v);
        }
        self.pauses.push(started.elapsed().as_secs_f64());
        self.compactions += 1;
        // Amortized O(1) bound: let the log reach 2× the cap, then drop
        // the oldest half in one move.
        if self.pauses.len() >= 2 * MAX_PAUSE_SAMPLES {
            self.pauses.drain(..self.pauses.len() - MAX_PAUSE_SAMPLES);
        }
    }

    /// Live `(id, vector)` pairs in segment-then-row order — what a
    /// snapshot persists (tombstones are not carried).
    pub(crate) fn live_entries(&self) -> Vec<(u64, Vec<f32>)> {
        let mut entries = Vec::with_capacity(self.locs.len());
        for (si, s) in self.segments.iter().enumerate() {
            for row in 0..s.rows() {
                if !s.deleted[row] {
                    entries.push((s.ids[row], self.row(si, row).to_vec()));
                }
            }
        }
        entries
    }

    /// Live rows' packed signatures in the same order as
    /// [`live_entries`](Self::live_entries); empty when LSH is off.
    pub(crate) fn live_packed_sigs(&self) -> Vec<Vec<u64>> {
        if !self.has_lsh() {
            return Vec::new();
        }
        let w = self.sig_words;
        let mut sigs = Vec::with_capacity(self.locs.len());
        for s in &self.segments {
            for row in 0..s.rows() {
                if !s.deleted[row] {
                    sigs.push(s.sigs[row * w..(row + 1) * w].to_vec());
                }
            }
        }
        sigs
    }
}

/// Pass 1 over one segment: each row's distance — `dist` of its
/// `w`-word packed signature, or the sentinel for a tombstone — appended to
/// `dists` and tallied into `hist`.
#[inline(always)]
fn tally_rows(
    s: &Segment,
    w: usize,
    dists: &mut Vec<u32>,
    hist: &mut DistHistogram,
    dist: impl Fn(&[u64]) -> u32,
) {
    let sentinel = hist.sentinel();
    dists.extend(s.sigs.chunks_exact(w).zip(&s.deleted).enumerate().map(|(row, (sig, &dead))| {
        let d = if dead { sentinel } else { dist(sig) };
        hist.add(row, d);
        d
    }));
}

/// [`tally_rows`] at a compile-time signature width: the query words live
/// in registers and each row is `W` straight-line XOR+POPCNT pairs.
fn tally_fixed<const W: usize>(
    qsig: &[u64],
    s: &Segment,
    dists: &mut Vec<u32>,
    hist: &mut DistHistogram,
) {
    let q: [u64; W] = qsig.try_into().expect("store-wide signature width");
    tally_rows(s, W, dists, hist, |sig| hamming(&q, sig));
}

#[cfg(test)]
mod tests {
    //! The slab is exercised the way every caller reaches it: as the one
    //! shard of a flat `ShardedStore::new(dim, 1, cfg)`.

    use super::*;
    use crate::candidates::{ExactScan, LshCandidates};
    use crate::ShardedStore;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vecs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect()
    }

    fn flat(dim: usize, cfg: StoreConfig) -> ShardedStore {
        ShardedStore::new(dim, 1, cfg)
    }

    fn small_store(lsh: bool) -> StoreConfig {
        StoreConfig {
            seal_threshold: 16,
            lsh: lsh.then_some(LshParams::default()),
            seed: 42,
            policy: CompactionPolicy::disabled(),
            ..StoreConfig::default()
        }
    }

    #[test]
    fn insert_assigns_sequential_ids_and_finds_self() {
        let vecs = random_vecs(40, 12, 1);
        let mut store = flat(12, small_store(false));
        let ids: Vec<u64> = vecs.iter().map(|v| store.insert(v)).collect();
        assert_eq!(ids, (0..40).collect::<Vec<u64>>());
        assert_eq!(store.len(), 40);
        // A stored vector's own nearest neighbor is itself with score ~1.
        for (i, v) in vecs.iter().enumerate() {
            let hits = store.search(v, 1, &ExactScan);
            assert_eq!(hits[0].id, i as u64);
            assert!((hits[0].score - 1.0).abs() < 1e-5, "self-score {}", hits[0].score);
        }
    }

    #[test]
    fn query_matches_brute_force_ranking() {
        let vecs = random_vecs(100, 8, 2);
        let mut store = flat(8, small_store(false));
        for v in &vecs {
            store.insert(v);
        }
        let q = &vecs[17];
        let hits = store.search(q, 10, &ExactScan);
        // Brute-force cosine ranking over the raw vectors.
        let qn = (q.iter().map(|x| x * x).sum::<f32>()).sqrt();
        let mut scored: Vec<(usize, f32)> = vecs
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let d: f32 = q.iter().zip(v).map(|(a, b)| a * b).sum();
                let n = (v.iter().map(|x| x * x).sum::<f32>()).sqrt();
                (i, d / (qn * n))
            })
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let want: Vec<u64> = scored[..10].iter().map(|(i, _)| *i as u64).collect();
        let got: Vec<u64> = hits.iter().map(|h| h.id).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn segments_seal_at_threshold() {
        let vecs = random_vecs(40, 4, 3);
        let mut store = flat(4, small_store(false));
        for v in &vecs {
            store.insert(v);
        }
        let stats = store.stats().totals();
        assert_eq!(stats.segments, 3, "40 rows at threshold 16 => 3 segments");
        assert_eq!(stats.sealed_segments, 2);
        assert_eq!(stats.live, 40);
    }

    #[test]
    fn upsert_replaces_and_delete_tombstones() {
        let vecs = random_vecs(20, 6, 4);
        let mut store = flat(6, small_store(false));
        for v in &vecs {
            store.insert(v);
        }
        // Replace id 3 with id 7's direction: querying v7 now returns both.
        store.upsert(3, &vecs[7]);
        assert_eq!(store.len(), 20);
        assert_eq!(store.stats().totals().tombstones, 1);
        let hits = store.search(&vecs[7], 2, &ExactScan);
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![3, 7]);

        assert!(store.delete(3));
        assert!(!store.delete(3), "double delete reports dead");
        assert!(!store.contains(3));
        assert_eq!(store.len(), 19);
        let hits = store.search(&vecs[7], 2, &ExactScan);
        assert_eq!(hits[0].id, 7);
        assert!(hits.iter().all(|h| h.id != 3), "tombstoned id must not surface");
    }

    #[test]
    fn insert_after_explicit_upsert_does_not_collide() {
        let mut store = flat(4, small_store(false));
        store.upsert(10, &[1.0, 0.0, 0.0, 0.0]);
        let id = store.insert(&[0.0, 1.0, 0.0, 0.0]);
        assert!(id > 10, "auto ids must skip past explicit ones, got {id}");
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn compact_drops_tombstones_and_preserves_results() {
        let vecs = random_vecs(50, 10, 5);
        let mut store = flat(10, small_store(true));
        for v in &vecs {
            store.insert(v);
        }
        for id in [0u64, 5, 13, 22, 31, 49] {
            store.delete(id);
        }
        store.upsert(40, &vecs[2]);
        let queries: Vec<Vec<f32>> = vecs[..8].to_vec();
        let before = store.search_batch(&queries, 5, &LshCandidates);
        let live_before = store.len();
        store.compact();
        assert_eq!(store.len(), live_before);
        assert_eq!(store.stats().totals().tombstones, 0);
        assert_eq!(
            store.search_batch(&queries, 5, &LshCandidates),
            before,
            "compaction changed results"
        );
        assert_eq!(store.compaction_pauses().len(), 1, "one pause recorded");
    }

    #[test]
    fn policy_compacts_on_mutation_and_queries_are_unchanged() {
        let vecs = random_vecs(40, 8, 11);
        let cfg = StoreConfig {
            policy: CompactionPolicy { max_tombstone_ratio: 0.2, max_segments: 64 },
            ..small_store(true)
        };
        let mut store = flat(8, cfg);
        for v in &vecs {
            store.insert(v);
        }
        // A shadow store with the policy off shows what results should be.
        let mut shadow = flat(8, small_store(true));
        for v in &vecs {
            shadow.insert(v);
        }
        for id in 0..12u64 {
            store.delete(id);
            shadow.delete(id);
        }
        assert!(
            !store.compaction_pauses().is_empty(),
            "12/40 deletes must cross the 20% tombstone bound"
        );
        assert!(
            store.stats().totals().tombstones as f32 <= 0.2 * store.len() as f32 + 1.0,
            "policy left {} tombstones on {} live rows",
            store.stats().totals().tombstones,
            store.len()
        );
        let queries: Vec<Vec<f32>> = vecs[12..20].to_vec();
        assert_eq!(
            store.search_batch(&queries, 5, &LshCandidates),
            shadow.search_batch(&queries, 5, &LshCandidates),
            "policy compaction changed results"
        );
    }

    #[test]
    fn segment_bound_triggers_policy_compaction() {
        let vecs = random_vecs(64, 4, 12);
        let cfg = StoreConfig {
            seal_threshold: 8,
            lsh: None,
            seed: 1,
            policy: CompactionPolicy { max_tombstone_ratio: f32::INFINITY, max_segments: 4 },
            ..StoreConfig::default()
        };
        let mut store = flat(4, cfg);
        for v in &vecs {
            store.insert(v);
        }
        // Inserts alone never compact (no tombstones to drop)...
        assert_eq!(store.stats().totals().segments, 8);
        assert!(store.compaction_pauses().is_empty());
        // ...and neither do tombstones that a rewrite could not repack
        // into fewer segments: 8 full segments of live rows stay put.
        store.delete(0);
        assert_eq!(store.stats().totals().tombstones, 1, "futile compaction must not run");
        assert!(store.compaction_pauses().is_empty());
        // Once enough rows die that live rows fit in 7 segments, the
        // bound fires and the rewrite actually shrinks the store.
        for id in 1..8u64 {
            store.delete(id);
        }
        assert_eq!(store.compactions(), 1);
        assert_eq!(store.stats().totals().tombstones, 0, "compaction dropped the tombstones");
        assert_eq!(store.stats().totals().segments, 7, "56 live rows at threshold 8");
        // Steady state above the bound does not thrash: the next delete
        // cannot shrink the segment list (ceil(55/8) is still 7), so no
        // full-store rewrite rides on it.
        store.delete(8);
        assert_eq!(store.compactions(), 1, "mutation-time compaction thrash");
        assert_eq!(store.stats().totals().tombstones, 1);
    }

    #[test]
    fn pause_log_is_bounded_but_the_counter_is_total() {
        let mut store = flat(4, small_store(false));
        store.insert(&[1.0, 0.0, 0.0, 0.0]);
        let runs = 2 * MAX_PAUSE_SAMPLES + 5;
        for _ in 0..runs {
            store.compact();
        }
        assert_eq!(store.compactions(), runs as u64);
        let kept = store.compaction_pauses().len();
        assert!(
            (MAX_PAUSE_SAMPLES..2 * MAX_PAUSE_SAMPLES).contains(&kept),
            "pause log kept {kept} samples (cap {MAX_PAUSE_SAMPLES})"
        );
    }

    #[test]
    fn nan_vectors_through_the_public_api_never_panic() {
        // NaN survives upsert (NaN norm fails the > 0 gate, so the vector
        // is stored as-is) and scores NaN against everything. total_cmp
        // ranks it deterministically instead of panicking mid-sort.
        let mut store = flat(4, small_store(false));
        store.insert(&[1.0, 0.0, 0.0, 0.0]);
        let nan_id = store.insert(&[f32::NAN, 1.0, 0.0, 0.0]);
        store.insert(&[0.0, 1.0, 0.0, 0.0]);

        let hits = store.search(&[1.0, 0.0, 0.0, 0.0], 3, &ExactScan);
        assert_eq!(hits.len(), 3, "all rows ranked, none dropped");
        let finite: Vec<u64> = hits.iter().filter(|h| h.score.is_finite()).map(|h| h.id).collect();
        assert_eq!(finite, vec![0, 2], "finite scores still rank by similarity");

        // Batched and NaN-query paths hold too.
        let batched = store.search_batch(&[vec![f32::NAN; 4]], 3, &ExactScan);
        assert_eq!(batched[0].len(), 3);
        // The poisoned row deletes (and compacts away) cleanly.
        assert!(store.delete(nan_id));
        store.compact();
        assert!(store
            .search(&[1.0, 0.0, 0.0, 0.0], 3, &ExactScan)
            .iter()
            .all(|h| h.score.is_finite()));
    }

    #[test]
    fn lsh_and_exact_agree_on_tight_clusters() {
        // Two tight clusters: LSH blocking must still retrieve the
        // same-cluster neighbors exact scan finds.
        let mut rng = StdRng::seed_from_u64(6);
        let mut vecs = Vec::new();
        for c in 0..2 {
            let center: Vec<f32> =
                (0..16).map(|i| if i % 2 == c { 1.0 } else { -1.0f32 }).collect();
            for _ in 0..20 {
                vecs.push(
                    center.iter().map(|x| x + rng.random_range(-0.05f32..0.05)).collect::<Vec<_>>(),
                );
            }
        }
        let mut store = flat(16, StoreConfig::with_lsh(LshParams { bands: 8, rows_per_band: 4 }));
        for v in &vecs {
            store.insert(v);
        }
        for (i, v) in vecs.iter().enumerate() {
            let exact = store.search(v, 5, &ExactScan);
            let lsh = store.search(v, 5, &LshCandidates);
            assert_eq!(exact, lsh, "query {i}");
        }
        // And blocking actually prunes: candidates ≈ the query's own cluster.
        let count = store.candidate_count(&vecs[0], &LshCandidates);
        assert!(count < vecs.len(), "no pruning: {count} of {}", vecs.len());
    }

    #[test]
    fn snapshot_roundtrips_byte_identical() {
        let vecs = random_vecs(60, 12, 7);
        let mut store = flat(12, small_store(true));
        for v in &vecs {
            store.insert(v);
        }
        for id in [3u64, 30, 44] {
            store.delete(id);
        }
        let queries: Vec<Vec<f32>> = vecs[10..20].to_vec();
        let before = store.search_batch(&queries, 7, &LshCandidates);

        let path =
            std::env::temp_dir().join(format!("tabbin_index_snapshot_{}.tbix", std::process::id()));
        store.save(&path).expect("save");
        let loaded = ShardedStore::load(&path).expect("load");
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.len(), store.len());
        assert_eq!(loaded.dim(), store.dim());
        let after = loaded.search_batch(&queries, 7, &LshCandidates);
        // Byte-identical: same ids, same score bits.
        assert_eq!(after, before);
        for (a, b) in after.iter().flatten().zip(before.iter().flatten()) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        // The loaded store keeps allocating fresh ids past the old counter.
        let mut loaded = loaded;
        let new_id = loaded.insert(&vecs[0]);
        assert_eq!(new_id, 60);
    }

    #[test]
    fn load_rejects_bad_snapshots() {
        let path =
            std::env::temp_dir().join(format!("tabbin_index_garbage_{}.json", std::process::id()));
        std::fs::write(&path, "not a snapshot at all").unwrap();
        assert!(ShardedStore::load(&path).is_err());
        // JSON bodies (a format earlier builds read) are refused too.
        std::fs::write(&path, "{\"version\":999}").unwrap();
        assert!(ShardedStore::load(&path).is_err());
        // Degenerate LSH params must error, not trip the constructor assert.
        let snap = crate::snapshot::StoreSnapshot {
            dim: 4,
            seed: 42,
            seal_threshold: 16,
            lsh: Some(LshParams { bands: 0, rows_per_band: 2 }),
            rerank: 0,
            next_id: 0,
            entries: Vec::new(),
            sigs: Vec::new(),
            router: None,
        };
        crate::snapshot::write_file(&path, &snap, 1).unwrap();
        assert!(ShardedStore::load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_matches_serial_queries() {
        let vecs = random_vecs(80, 8, 9);
        let mut store = flat(8, small_store(true));
        for v in &vecs {
            store.insert(v);
        }
        // Enough queries to cross PARALLEL_QUERY_THRESHOLD tasks.
        let queries: Vec<Vec<f32>> = vecs[..30].to_vec();
        let batched = store.search_batch(&queries, 6, &LshCandidates);
        for (q, want) in queries.iter().zip(&batched) {
            assert_eq!(&store.search(q, 6, &LshCandidates), want);
        }
    }

    #[test]
    fn zero_vector_scores_zero_everywhere() {
        let mut store = flat(4, small_store(false));
        store.insert(&[0.0; 4]);
        store.insert(&[1.0, 0.0, 0.0, 0.0]);
        let hits = store.search(&[0.0; 4], 2, &ExactScan);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.score == 0.0));
        // Ties broke by id.
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn empty_store_returns_no_hits() {
        let store = ShardedStore::exact(8, 1);
        assert!(store.search(&[1.0; 8], 5, &ExactScan).is_empty());
        assert!(store.search_batch(&[vec![1.0; 8]], 5, &ExactScan)[0].is_empty());
        assert!(store.is_empty());
    }

    #[test]
    #[should_panic(expected = "upsert of a 3-dim vector into a 4-dim store")]
    fn dimension_mismatch_panics_with_shapes() {
        let mut store = ShardedStore::exact(4, 1);
        store.upsert(0, &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "quantized tier requires LSH signatures")]
    fn quantized_without_lsh_panics() {
        flat(
            4,
            StoreConfig {
                tier: ScoringTier::Quantized { rerank_factor: DEFAULT_RERANK_FACTOR },
                ..StoreConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "rerank_factor must be at least 1")]
    fn quantized_zero_rerank_factor_panics() {
        flat(
            4,
            StoreConfig {
                tier: ScoringTier::Quantized { rerank_factor: 0 },
                ..StoreConfig::with_lsh(LshParams::default())
            },
        );
    }

    /// Two tight 16-member clusters of 16-dim vectors. Cross-cluster
    /// similarity is ≈ -1, so every true top-5 lives inside the query's own
    /// cluster — and with `coarse_r(5, 4) = 20 ≥ 16` the coarse pass always
    /// retains that entire cluster, whatever the within-cluster Hamming
    /// ties look like. The re-rank then restores the exact f32 ordering.
    fn clustered(seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vecs = Vec::new();
        for c in 0..2 {
            let center: Vec<f32> =
                (0..16).map(|i| if i % 2 == c { 1.0 } else { -1.0f32 }).collect();
            for _ in 0..16 {
                vecs.push(
                    center.iter().map(|x| x + rng.random_range(-0.05f32..0.05)).collect::<Vec<_>>(),
                );
            }
        }
        vecs
    }

    #[test]
    fn quantized_tier_matches_exact_on_tight_clusters() {
        let vecs = clustered(21);
        let params = LshParams::default_blocking();
        let mut exact = flat(16, StoreConfig::with_lsh(params));
        let mut quant = flat(16, StoreConfig::quantized(params));
        assert_eq!(quant.tier(), ScoringTier::Quantized { rerank_factor: DEFAULT_RERANK_FACTOR });
        for v in &vecs {
            exact.insert(v);
            quant.insert(v);
        }
        for (i, v) in vecs.iter().enumerate() {
            let want = exact.search(v, 5, &ExactScan);
            let got = quant.search(v, 5, &ExactScan);
            assert_eq!(got, want, "query {i}");
            for (a, b) in got.iter().zip(&want) {
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "re-rank must use the f32 kernel");
            }
        }
        // The quantized coarse pass consults no candidate source: it sweeps
        // every signature whichever one the caller names.
        let via_lsh = quant.search(&vecs[0], 5, &LshCandidates);
        assert_eq!(via_lsh, quant.search(&vecs[0], 5, &ExactScan));
    }

    #[test]
    fn only_the_exact_tier_builds_band_buckets() {
        let vecs = clustered(25);
        let params = LshParams::default_blocking();
        for (cfg, bucketed) in
            [(StoreConfig::with_lsh(params), true), (StoreConfig::quantized(params), false)]
        {
            let mut slab = VectorStore::new(16, StoreConfig { seal_threshold: 8, ..cfg }, None);
            for (id, v) in vecs.iter().enumerate() {
                let mut nv = v.clone();
                crate::simd::l2_normalize(&mut nv);
                slab.upsert_normalized(id as u64, &nv);
            }
            slab.delete(3);
            slab.compact();
            assert!(slab.segments.len() > 1);
            for s in &slab.segments {
                assert_eq!(s.buckets.len(), if bucketed { params.bands } else { 0 }, "{cfg:?}");
                assert_eq!(s.sigs.len(), s.rows() * 2, "both tiers keep the signature slab");
            }
        }
    }

    #[test]
    fn quantized_tier_survives_mutations_and_compaction() {
        let vecs = clustered(22);
        let mut store = flat(
            16,
            StoreConfig { seal_threshold: 16, ..StoreConfig::quantized(LshParams::default()) },
        );
        for v in &vecs {
            store.insert(v);
        }
        for id in [1u64, 7, 19, 28] {
            store.delete(id);
        }
        store.upsert(3, &vecs[30]);
        let queries: Vec<Vec<f32>> = vecs[..8].to_vec();
        let before = store.search_batch(&queries, 5, &ExactScan);
        for (q, want) in queries.iter().zip(&before) {
            assert_eq!(&store.search(q, 5, &ExactScan), want, "batch vs serial");
            assert!(want.iter().all(|h| h.id != 1), "tombstoned id in quantized results");
        }
        store.compact();
        assert_eq!(
            store.search_batch(&queries, 5, &ExactScan),
            before,
            "compaction changed quantized results"
        );
    }

    #[test]
    fn quantized_snapshot_roundtrips_byte_identical() {
        let vecs = clustered(23);
        let mut store = flat(
            16,
            StoreConfig { seal_threshold: 16, ..StoreConfig::quantized(LshParams::default()) },
        );
        for v in &vecs {
            store.insert(v);
        }
        store.delete(5);
        let queries: Vec<Vec<f32>> = vecs[8..16].to_vec();
        let before = store.search_batch(&queries, 6, &ExactScan);

        let path = std::env::temp_dir()
            .join(format!("tabbin_index_quant_snap_{}.tbix", std::process::id()));
        store.save(&path).expect("save");
        let loaded = ShardedStore::load(&path).expect("load");
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.tier(), store.tier(), "tier must persist");
        let after = loaded.search_batch(&queries, 6, &ExactScan);
        assert_eq!(after, before);
        for (a, b) in after.iter().flatten().zip(before.iter().flatten()) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn rows_scanned_counts_rows_actually_scored_on_both_tiers() {
        // Two tight clusters; after deleting a few rows the store holds
        // tombstones whose bucket entries stay in place until compaction.
        let vecs = clustered(24);
        let dead = [1u64, 7, 19, 28];
        let scanned = |store: &ShardedStore| store.stats().totals().rows_scanned;
        for cfg in [
            StoreConfig::with_lsh(LshParams::default()),
            StoreConfig::quantized(LshParams::default()),
        ] {
            let mut store = flat(16, StoreConfig { policy: CompactionPolicy::disabled(), ..cfg });
            for v in &vecs {
                store.insert(v);
            }
            for id in dead {
                store.delete(id);
            }
            assert_eq!(store.stats().totals().tombstones, dead.len());
            let live = vecs.len() - dead.len();
            // An exhaustive pass scores every live row and no tombstone —
            // the exact tier's `All` arm and the quantized sweep alike.
            let before = scanned(&store);
            store.search(&vecs[0], 5, &ExactScan);
            assert_eq!(scanned(&store) - before, live as u64, "{:?}", cfg.tier);
            // A blocked pass on the exact tier scores exactly the live
            // nominees `candidate_count` reports: tombstoned nominations
            // are skipped, not counted. (The quantized tier ignores the
            // source and sweeps the same live rows again.)
            let before = scanned(&store);
            store.search(&vecs[0], 5, &LshCandidates);
            let want = match cfg.tier {
                ScoringTier::Exact => store.candidate_count(&vecs[0], &LshCandidates),
                ScoringTier::Quantized { .. } => live,
            };
            assert_eq!(scanned(&store) - before, want as u64, "{:?}", cfg.tier);
        }
    }
}
