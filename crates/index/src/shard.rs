//! The store: per-shard slabs behind one routed, durable surface.
//!
//! [`ShardedStore`] is the crate's one store; `ShardedStore::new(dim, 1,
//! cfg)` is the flat one. It places every vector in one of `n_shards`
//! crate-private slabs (`store.rs`) through a pluggable [`Router`]:
//! by default a deterministic hash of the id
//! ([`crate::router::HashRouter`]), or a learned k-means coarse quantizer
//! ([`crate::router::IvfRouter`]) that co-locates geometrically-similar
//! vectors so a query needs to probe only its `nprobe` nearest cells
//! instead of fanning out to every shard — the sublinear-scan step. Each
//! shard keeps its own segments, signatures, and tombstones, and runs the
//! shared [`CompactionPolicy`] locally: a busy shard compacts without
//! pausing its siblings. Placements are remembered per id, so a re-upsert
//! that the router sends elsewhere moves the row (tombstone in the old
//! shard, insert in the new), and [`ShardedStore::rebalance`] replays that
//! move for every row the current router disagrees with — the online
//! answer to centroid drift under churn, observable through
//! [`ShardedStats::imbalance`] and the per-shard mean placement residuals.
//!
//! There is **one search core**: a query is prepared once (all shards
//! share one configuration — same seed, same banding, same router — so it
//! is normalized and signed once, not per shard), the router picks its
//! probe set, and
//!
//! * on the **exact tier** every probed shard scores the rows the
//!   [`CandidateSource`] nominates and the ranked per-shard lists k-way
//!   **heap merge** (`merge_ranked`) into one global top-k. Ids are
//!   unique across shards and ties break by id, so merged results are
//!   identical to what one flat store would return — the routing is
//!   invisible to callers (property-tested in `tests/prop_index.rs`);
//! * on the **quantized tier** ([`crate::ScoringTier::Quantized`]) a
//!   **counting select** picks the `r = rerank_factor × k` rows to re-rank
//!   across all probed shards at once. Pass 1 writes every probed row's
//!   Hamming distance into one per-query buffer (tombstones at a sentinel)
//!   and tallies a `bits + 1`-bin histogram; the cut `T` is the smallest
//!   distance with `count(d ≤ T) ≥ r`; pass 2 walks the buffer once more,
//!   re-ranks every row with `d < T` with the f32 kernel — its vector read
//!   through the (shard, segment, row) the walk already holds — and keeps
//!   the `r − count(d < T)` smallest ids among the rows at `T`. That is
//!   exactly the `r` smallest rows under the (distance, id) total order: a
//!   *global* selection, so quantized results are bit-identical across
//!   shard layouts (property-tested in `tests/prop_quantized.rs` and
//!   against a brute-force reference in `tests/prop_select.rs`), and its
//!   cost is two linear walks however the distances are distributed.
//!
//! [`ShardedStore::search`], [`search_probed`](ShardedStore::search_probed),
//! [`search_batch`](ShardedStore::search_batch) and
//! [`search_batch_probed`](ShardedStore::search_batch_probed) are wrappers
//! over that core; a batch is the same per-query call spread across the
//! workspace's crossbeam scoped workers ([`crate::parallel`]).
//!
//! Every shard centres its signature hyperplanes on the router's sample
//! mean ([`Router::mean`]), so a row's signature — and with it the quantized
//! tier's answer — depends on the router, never on which shard the row sits
//! in. [`ShardedStore::install_router`] re-signs every row when the mean
//! moves.
//!
//! Snapshots persist through the `TBIX` v5 binary codec
//! ([`crate::snapshot`]): one merged entry list plus the shard count, and
//! the router section (centroids and sample mean) under a learned router.

use crate::candidates::CandidateSource;
use crate::engine::Queryable;
use crate::lsh::mask_tail;
use crate::parallel::par_chunk_map;
use crate::router::{splitmix64, HashRouter, IvfRouter, Router};
use crate::simd::{dot, l2_normalize, rank_cmp, DistHistogram, Hit, TopK};
use crate::snapshot::{self, RouterSnapshot, StoreSnapshot, MAX_SNAPSHOT_SHARDS};
use crate::store::{
    coarse_r, CompactionPolicy, ScoringTier, StoreConfig, StoreStats, VectorSink, VectorStore,
};
use crate::wal::{DurabilityPolicy, FsStorage, Storage, WalRecord, WalSet, WalStats};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-shard observability: one [`StoreStats`] per shard, plus the sums and
/// lifetime probe counters. Serializable so the serving tier
/// (`tabbin-serve`) can ship it verbatim as the `Stats` reply's storage
/// section.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardedStats {
    /// Stats of every shard, in shard order.
    pub shards: Vec<StoreStats>,
    /// Queries answered over the store's lifetime (single searches count 1,
    /// batches count their length).
    pub queries: u64,
    /// Shards probed across those queries — `queries × n_shards` under full
    /// fan-out; under IVF routing the ratio `shards_probed / queries` is
    /// the observable sublinearity claim.
    pub shards_probed: u64,
}

impl ShardedStats {
    /// The whole-store aggregate across shards.
    pub fn totals(&self) -> StoreStats {
        let mut t = StoreStats::default();
        for s in &self.shards {
            t.live += s.live;
            t.tombstones += s.tombstones;
            t.segments += s.segments;
            t.sealed_segments += s.sealed_segments;
            t.pending_rows += s.pending_rows;
            t.rows_scanned += s.rows_scanned;
        }
        t
    }

    /// Per-shard pending depth (tombstones + unsealed rows), shard order —
    /// the head-of-line-blocking signal: a shard whose depth runs away is
    /// the one stalling fan-out queries while its siblings idle.
    pub fn depths(&self) -> Vec<usize> {
        self.shards.iter().map(StoreStats::pending_depth).collect()
    }

    /// Placement skew: the largest shard's live count over the mean live
    /// count (`1.0` = perfectly even, and by convention when the store is
    /// empty). This is the rebalance trigger signal — a learned router
    /// whose centroids drifted under churn shows up here before it shows up
    /// in latency.
    pub fn imbalance(&self) -> f64 {
        let max = self.shards.iter().map(|s| s.live).max().unwrap_or(0);
        let total: usize = self.shards.iter().map(|s| s.live).sum();
        if total == 0 || self.shards.is_empty() {
            return 1.0;
        }
        max as f64 * self.shards.len() as f64 / total as f64
    }

    /// Mean shards probed per query (`n_shards` under full fan-out), or
    /// `0.0` before any query ran.
    pub fn avg_shards_probed(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.shards_probed as f64 / self.queries as f64
    }
}

/// The vector store: `n_shards` independent slabs behind a
/// pluggable [`Router`] (hash placement + full fan-out by default, learned
/// IVF placement + `nprobe`-bounded probing optionally), parallel fan-out
/// queries, and a k-way merged global top-k. See the [module docs](self)
/// for the design.
#[derive(Debug)]
pub struct ShardedStore {
    dim: usize,
    shards: Vec<VectorStore>,
    next_id: u64,
    router: Arc<dyn Router>,
    /// Where each id physically lives. Maintained for every router (the
    /// hash router's placements just always agree with the hash), so
    /// `shard_of` stays O(1) even after a re-route or rebalance moved rows
    /// away from where the current router would put them.
    placements: HashMap<u64, u32>,
    /// Per-shard placement residual accumulators `(sum, count)` — the
    /// centroid-drift signal. Approximate by design: deletes don't subtract
    /// (the signal tracks drift since the last rebalance, which resets it).
    residuals: Vec<(f64, u64)>,
    queries: AtomicU64,
    shards_probed: AtomicU64,
    /// The durability tier, present only for stores opened through
    /// [`open_durable`](Self::open_durable): every mutation appends one
    /// record before it is acknowledged. Behind a `Mutex` so flush/stats
    /// work through `&self` (the serving tier holds the store in an
    /// `Arc`).
    wal: Option<Mutex<WalSet>>,
}

impl Clone for ShardedStore {
    fn clone(&self) -> Self {
        Self {
            dim: self.dim,
            shards: self.shards.clone(),
            next_id: self.next_id,
            router: Arc::clone(&self.router),
            placements: self.placements.clone(),
            residuals: self.residuals.clone(),
            queries: AtomicU64::new(self.queries.load(Ordering::Relaxed)),
            shards_probed: AtomicU64::new(self.shards_probed.load(Ordering::Relaxed)),
            // A clone is an in-memory replica: two writers appending to one
            // log would interleave LSNs incoherently, so the clone is
            // non-durable by construction.
            wal: None,
        }
    }
}

impl ShardedStore {
    /// An empty store of `n_shards` shards for `dim`-dimensional vectors,
    /// every shard built from the same `cfg` (shared seed ⇒ shared LSH
    /// hyperplanes, which is what makes per-shard signatures compatible),
    /// hyperplanes through the origin.
    ///
    /// # Panics
    /// On `n_shards == 0`, `n_shards` past the snapshot format's shard
    /// bound (65536 — so `save` can never write a file `load` rejects),
    /// `dim == 0`, a zero `seal_threshold`, LSH params with zero
    /// bands/rows, or a [`ScoringTier::Quantized`] tier without LSH or with
    /// a zero `rerank_factor`.
    pub fn new(dim: usize, n_shards: usize, cfg: StoreConfig) -> Self {
        Self::with_router(dim, n_shards, cfg, Arc::new(HashRouter))
    }

    /// An empty store placing and probing through an explicit `router` —
    /// [`ShardedStore::new`] with [`HashRouter`] swapped for, typically, a
    /// trained [`IvfRouter`] — whose shards centre their signature
    /// hyperplanes on the router's sample mean.
    ///
    /// # Panics
    /// Everything [`ShardedStore::new`] panics on, plus a learned router
    /// whose cell count, centroid or mean dimensionality disagrees with
    /// `n_shards`/`dim` (IVF requires `nlist == n_shards`).
    pub fn with_router(
        dim: usize,
        n_shards: usize,
        cfg: StoreConfig,
        router: Arc<dyn Router>,
    ) -> Self {
        assert!(n_shards > 0, "ShardedStore needs at least one shard");
        assert!(
            n_shards <= MAX_SNAPSHOT_SHARDS as usize,
            "ShardedStore supports at most {MAX_SNAPSHOT_SHARDS} shards (asked for {n_shards})"
        );
        check_router_geometry(router.as_ref(), n_shards, dim);
        let shards = (0..n_shards).map(|_| VectorStore::new(dim, cfg, router.mean())).collect();
        Self {
            dim,
            shards,
            next_id: 0,
            router,
            placements: HashMap::new(),
            residuals: vec![(0.0, 0); n_shards],
            queries: AtomicU64::new(0),
            shards_probed: AtomicU64::new(0),
            wal: None,
        }
    }

    /// An exact-scan-only sharded store with default segment sizing.
    pub fn exact(dim: usize, n_shards: usize) -> Self {
        Self::new(dim, n_shards, StoreConfig::default())
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Live vectors across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(VectorStore::len).sum()
    }

    /// Whether no shard holds a live vector.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(VectorStore::is_empty)
    }

    /// Whether LSH candidate generation is enabled (uniform across shards).
    pub fn has_lsh(&self) -> bool {
        self.shards[0].has_lsh()
    }

    /// The configured scoring tier (uniform across shards).
    pub fn tier(&self) -> ScoringTier {
        self.shards[0].config().tier
    }

    /// The shard `id` lives in: the recorded placement when the id has
    /// been upserted (O(1)), or the hash route for ids never seen — which
    /// is where [`HashRouter`] would put them, so lookups on dead ids stay
    /// deterministic and simply find nothing.
    pub fn shard_of(&self, id: u64) -> usize {
        match self.placements.get(&id) {
            Some(&s) => s as usize,
            None => (splitmix64(id) % self.shards.len() as u64) as usize,
        }
    }

    /// The active router's short name (`"hash"`, `"ivf"`) for stats/logs.
    pub fn router_name(&self) -> &'static str {
        self.router.name()
    }

    /// Whether placement follows vector geometry (a learned router), i.e.
    /// whether probing fewer than `n_shards` shards is meaningful.
    pub fn routed(&self) -> bool {
        self.router.is_learned()
    }

    /// Per-shard mean placement residual (`1 - cos(centroid, v)` averaged
    /// over the rows upserted into each shard since the last
    /// [`rebalance`](Self::rebalance)) — the centroid-drift signal. All
    /// zeros under a geometry-blind router.
    pub fn mean_residuals(&self) -> Vec<f64> {
        self.residuals.iter().map(|&(sum, n)| if n == 0 { 0.0 } else { sum / n as f64 }).collect()
    }

    /// Whether live-row skew has crossed `max_imbalance`
    /// ([`ShardedStats::imbalance`], `1.0` = even) — the cheap check
    /// callers poll to decide when [`rebalance`](Self::rebalance) is worth
    /// its O(moved rows) cost.
    pub fn needs_rebalance(&self, max_imbalance: f64) -> bool {
        self.stats().imbalance() > max_imbalance
    }

    /// Swaps the router without moving any data: existing placements stay
    /// where they physically are (queries remain correct — results are
    /// layout-independent), new upserts follow the new router, and the
    /// drift accumulators restart against the new centroids. When the new
    /// router's sample mean differs from the old one, every shard re-signs
    /// its rows through the compaction rewrite, so the store answers as one
    /// built with this router would. Call [`rebalance`](Self::rebalance)
    /// afterwards to migrate existing rows.
    ///
    /// # Panics
    /// If a learned router's geometry disagrees with the store (same checks
    /// as [`with_router`](Self::with_router)).
    pub fn install_router(&mut self, router: Arc<dyn Router>) {
        check_router_geometry(router.as_ref(), self.shards.len(), self.dim);
        for shard in &mut self.shards {
            shard.recentre(router.mean());
        }
        self.router = router;
        self.reset_residuals();
        // Centroids are not logged as WAL records; a durable store persists
        // them by checkpointing immediately, so reopening reconstructs the
        // same router (and the same probe decisions and signatures) from the
        // snapshot.
        if self.wal.is_some() {
            self.checkpoint().expect("checkpoint after router install failed");
        }
    }

    /// Re-places every live row the current router disagrees with: each
    /// move tombstones the row in its old shard and re-inserts it in the
    /// router's choice through the normal upsert path, so the existing
    /// compaction policy reclaims the holes. Returns the number of rows
    /// moved. Query results are unchanged bit-for-bit — coarse selection
    /// and ranking are layout-independent by construction — but probe sets
    /// become accurate again, and the drift accumulators reset.
    pub fn rebalance(&mut self) -> usize {
        let n = self.shards.len();
        let mut ids: Vec<u64> = self.placements.keys().copied().collect();
        ids.sort_unstable();
        let mut moves: Vec<(u64, usize, usize, Vec<f32>)> = Vec::new();
        for id in ids {
            let from = self.placements[&id] as usize;
            let Some(v) = self.shards[from].get(id) else { continue };
            let to = self.router.place(id, v, n);
            if to != from {
                moves.push((id, from, to, v.to_vec()));
            }
        }
        for (id, from, to, v) in &moves {
            self.shards[*from].delete(*id);
            self.shards[*to].upsert_normalized(*id, v);
            self.placements.insert(*id, *to as u32);
        }
        // Moves log in their destination shard only (no source-side
        // tombstone record) and the whole batch group-commits once — one
        // fsync for the entire rebalance under `Always`.
        if let Some(wal) = &self.wal {
            let mut w = wal.lock().expect("WAL lock poisoned");
            for (id, _, to, v) in &moves {
                w.append(*to, &WalRecord::Move { id: *id, vector: v.clone() })
                    .expect("WAL append failed; refusing to acknowledge an unlogged rebalance");
            }
            w.commit().expect("WAL commit failed");
        }
        self.reset_residuals();
        moves.len()
    }

    /// Appends one record and commits per the policy. Panics on I/O
    /// failure: a durable store must never acknowledge a mutation its log
    /// rejected — crashing is the honest outcome.
    fn log_mutation(&mut self, shard: usize, rec: WalRecord) {
        let Some(wal) = &self.wal else { return };
        let mut w = wal.lock().expect("WAL lock poisoned");
        w.append(shard, &rec)
            .expect("WAL append failed; refusing to acknowledge an unlogged mutation");
        w.commit().expect("WAL commit failed");
    }

    /// Zeroes the drift accumulators and re-accumulates each live row's
    /// residual against its current shard under the current router.
    fn reset_residuals(&mut self) {
        self.residuals = vec![(0.0, 0); self.shards.len()];
        if !self.router.is_learned() {
            return;
        }
        let mut ids: Vec<u64> = self.placements.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let shard = self.placements[&id] as usize;
            if let Some(v) = self.shards[shard].get(id) {
                if let Some(res) = self.router.residual(v, shard) {
                    self.residuals[shard].0 += res;
                    self.residuals[shard].1 += 1;
                }
            }
        }
    }

    /// Per-shard stats, shard order; `.totals()` for the aggregate.
    pub fn stats(&self) -> ShardedStats {
        ShardedStats {
            shards: self.shards.iter().map(VectorStore::stats).collect(),
            queries: self.queries.load(Ordering::Relaxed),
            shards_probed: self.shards_probed.load(Ordering::Relaxed),
        }
    }

    /// Total compaction runs across all shards over the store's lifetime.
    pub fn compactions(&self) -> u64 {
        self.shards.iter().map(VectorStore::compactions).sum()
    }

    /// Every shard's recorded compaction pauses (seconds), concatenated in
    /// shard order — the raw series the `index` bench turns into p50/p99.
    /// Each shard retains at least its most recent
    /// [`crate::MAX_PAUSE_SAMPLES`] runs (trimmed amortized, see
    /// that constant's docs).
    pub fn compaction_pauses(&self) -> Vec<f64> {
        self.shards.iter().flat_map(|s| s.compaction_pauses().iter().copied()).collect()
    }

    /// Inserts under a fresh auto-assigned id (global across shards) and
    /// returns it.
    pub fn insert(&mut self, v: &[f32]) -> u64 {
        let id = self.next_id;
        self.upsert(id, v);
        id
    }

    /// Inserts or replaces `id` in the shard the router places it — moving
    /// it (tombstone + re-insert) when a previous copy lives elsewhere. The
    /// vector is L2-normalized on the way in (zero vectors are stored as-is
    /// and score 0 against everything). The touched shards may run a policy
    /// compaction afterwards; siblings are untouched.
    ///
    /// # Panics
    /// If `v.len()` differs from the store dimension.
    pub fn upsert(&mut self, id: u64, v: &[f32]) {
        assert_eq!(
            v.len(),
            self.dim,
            "upsert of a {}-dim vector into a {}-dim store",
            v.len(),
            self.dim
        );
        // Normalize once up front: the router ranks centroids over the same
        // unit vector the shard stores.
        let mut nv = v.to_vec();
        l2_normalize(&mut nv);
        let target = self.router.place(id, &nv, self.shards.len());
        if let Some(&old) = self.placements.get(&id) {
            if old as usize != target {
                self.shards[old as usize].delete(id);
            }
        }
        self.shards[target].upsert_normalized(id, &nv);
        self.placements.insert(id, target as u32);
        if let Some(res) = self.router.residual(&nv, target) {
            self.residuals[target].0 += res;
            self.residuals[target].1 += 1;
        }
        self.next_id = self.next_id.max(id + 1);
        // One record per mutation, in the *destination* shard's log: the
        // record is an absolute state assignment for the id, so the
        // tombstone in the old shard needs no record of its own (replay's
        // winner rule deletes loser copies).
        self.log_mutation(target, WalRecord::Upsert { id, vector: nv });
    }

    /// Tombstones `id` in its shard; returns whether it was live.
    pub fn delete(&mut self, id: u64) -> bool {
        let shard = self.shard_of(id);
        self.placements.remove(&id);
        let was_live = self.shards[shard].delete(id);
        if was_live {
            // Deleting a dead id is a no-op and logs nothing.
            self.log_mutation(shard, WalRecord::Delete { id });
        }
        was_live
    }

    /// The live normalized vector stored under `id`.
    pub fn get(&self, id: u64) -> Option<&[f32]> {
        self.shards[self.shard_of(id)].get(id)
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: u64) -> bool {
        self.shards[self.shard_of(id)].contains(id)
    }

    /// Compacts every shard now, regardless of policy — an explicit
    /// maintenance sweep; steady-state mutation relies on the per-shard
    /// policy instead.
    pub fn compact(&mut self) {
        for s in &mut self.shards {
            s.compact();
        }
    }

    // --- queries -----------------------------------------------------------

    /// Top-`k` search, full fan-out: every shard is probed. Scores are dot
    /// products of normalized vectors (cosine similarity); ties break by
    /// ascending id, so the output is identical to one flat store's over
    /// the same corpus. `source` picks the exact tier's candidate rows
    /// ([`crate::ExactScan`] or [`crate::LshCandidates`]); the quantized
    /// tier sweeps every signature regardless. Fewer than `k` hits come
    /// back when the source yields fewer candidates (or the store is
    /// small).
    ///
    /// # Panics
    /// If `q.len()` differs from the store dimension.
    pub fn search(&self, q: &[f32], k: usize, source: &dyn CandidateSource) -> Vec<Hit> {
        self.search_probed(q, k, source, self.shards.len())
    }

    /// [`search`](Self::search) bounded to the router's `nprobe` nearest
    /// cells — the one search core every query path runs. Under a
    /// geometry-blind router the bound is ignored (probing a subset of
    /// hash-placed shards would drop neighbors); under IVF with
    /// `nprobe == n_shards` the probe set is every shard in ascending
    /// order, so results are bit-identical to full fan-out.
    pub fn search_probed(
        &self,
        q: &[f32],
        k: usize,
        source: &dyn CandidateSource,
        nprobe: usize,
    ) -> Vec<Hit> {
        let prepared = self.shards[0].prepare_query(q);
        let ctx = prepared.ctx();
        let probes = self.router.probe(&prepared.nq, nprobe, self.shards.len());
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.shards_probed.fetch_add(probes.len() as u64, Ordering::Relaxed);
        match self.tier() {
            ScoringTier::Exact => {
                let lists: Vec<Vec<Hit>> = probes
                    .iter()
                    .map(|&si| self.shards[si].scan_prepared(&ctx, k, source).into_sorted())
                    .collect();
                merge_ranked(&lists, k)
            }
            ScoringTier::Quantized { rerank_factor } => {
                let qsig = ctx.packed.expect("an LSH store packs every query's signature");
                self.counting_select(&prepared.nq, qsig, &probes, coarse_r(k, rerank_factor), k)
            }
        }
    }

    /// The quantized tier over the probed shards (see the
    /// [module docs](self)): pass 1 tallies every row's Hamming distance,
    /// the histogram gives the cut, pass 2 re-ranks the rows under it by
    /// location, and the `r − count(d < T)` smallest ids among the rows at
    /// the cut re-rank last. The f32 top-k is a function of the re-ranked
    /// *set* alone, so the order the survivors arrive in never shows.
    fn counting_select(
        &self,
        nq: &[f32],
        qsig: &[u64],
        probes: &[usize],
        r: usize,
        k: usize,
    ) -> Vec<Hit> {
        // One distance per probed row, tombstones included: sized up front,
        // pass 1 never reallocates.
        let rows = probes.iter().map(|&si| self.shards[si].rows()).sum();
        let mut dists = Vec::with_capacity(rows);
        let mut hist = DistHistogram::new(self.shards[0].sig_bits());
        for &si in probes {
            self.shards[si].hamming_pass(qsig, &mut dists, &mut hist);
        }
        let cut = hist.cut(r);
        let mut topk = TopK::new(k);
        let mut ties = Vec::new();
        let mut rest = dists.as_slice();
        for &si in probes {
            rest = self.shards[si].cut_pass(si as u32, nq, rest, cut.t, &mut topk, &mut ties);
        }
        if ties.len() > cut.ties {
            ties.select_nth_unstable_by_key(cut.ties, |t| t.id);
            ties.truncate(cut.ties);
        }
        for t in &ties {
            let v = self.shards[t.shard as usize].row(t.seg as usize, t.row as usize);
            topk.push(t.id, dot(nq, v));
        }
        topk.into_sorted()
    }

    /// Batched [`search`](Self::search), full fan-out.
    pub fn search_batch(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        source: &dyn CandidateSource,
    ) -> Vec<Vec<Hit>> {
        self.search_batch_probed(queries, k, source, self.shards.len())
    }

    /// [`search_probed`](Self::search_probed) per query, the queries spread
    /// across crossbeam scoped workers once the batch is large enough to
    /// amortize thread spawn; output order is input order.
    pub fn search_batch_probed(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        source: &dyn CandidateSource,
        nprobe: usize,
    ) -> Vec<Vec<Hit>> {
        par_chunk_map(queries, |chunk| {
            chunk.iter().map(|q| self.search_probed(q, k, source, nprobe)).collect()
        })
    }

    /// Rows a full fan-out query for `q` would score, summed across
    /// shards. On the exact tier: the live rows `source` nominates — the
    /// blocking factor to report against the exhaustive `len()`. On the
    /// quantized tier, which consults no source and keeps no band buckets:
    /// `len()` whatever the source, every live row its Hamming pass ranks
    /// (what `rows_scanned` grows by per full fan-out query).
    pub fn candidate_count(&self, q: &[f32], source: &dyn CandidateSource) -> usize {
        self.shards.iter().map(|s| s.candidate_count(q, source)).sum()
    }

    // --- persistence -------------------------------------------------------

    /// Saves the whole store to `path` in the `TBIX` v5 binary format: one
    /// merged entry list (shard order, tombstones dropped) plus the shard
    /// count, and — under a learned router — the router section (centroids,
    /// sample mean and per-shard entry counts) so placements and signature
    /// thresholds restore *exactly*, even for rows an older router placed
    /// somewhere the current one wouldn't. A learned router without a mean
    /// persists a zero one, which centres nothing.
    /// Hash-routed stores skip the section; their ids re-route
    /// deterministically on load. The compaction policy is runtime tuning
    /// and is not part of a snapshot.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let cfg = self.shards[0].config();
        let mut entries = Vec::with_capacity(self.len());
        let mut sigs = Vec::with_capacity(if self.has_lsh() { self.len() } else { 0 });
        let mut counts = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            counts.push(shard.len() as u64);
            entries.extend(shard.live_entries());
            sigs.extend(shard.live_packed_sigs());
        }
        let snap = StoreSnapshot {
            dim: self.dim,
            seed: cfg.seed,
            seal_threshold: cfg.seal_threshold,
            lsh: cfg.lsh,
            rerank: match cfg.tier {
                ScoringTier::Exact => 0,
                ScoringTier::Quantized { rerank_factor } => rerank_factor as u64,
            },
            next_id: self.next_id,
            entries,
            sigs,
            router: self.router.centroids().map(|centroids| RouterSnapshot {
                centroids,
                mean: self.router.mean().map_or_else(|| vec![0.0; self.dim], <[f32]>::to_vec),
                counts,
            }),
        };
        snapshot::write_file(path, &snap, self.shards.len() as u32)
    }

    /// Loads a store from a `TBIX` v5 file; any other version — or
    /// anything that is not `TBIX` — is an error. The shard count comes
    /// from the snapshot header. A router section reconstructs the
    /// [`IvfRouter`] (centroids and sample mean, so shards sign queries at
    /// the thresholds the persisted signatures were taken at) and assigns
    /// entries positionally by the persisted per-shard counts (the save
    /// order), so every placement — and therefore every probe decision —
    /// replays exactly; without one the
    /// store is hash-routed and ids re-route by hash. Entries re-insert
    /// with their persisted vectors and signatures untouched (they were
    /// normalized before capture, and re-normalizing could shift low bits),
    /// so loaded stores answer queries byte-identically.
    pub fn load(path: &Path) -> io::Result<Self> {
        let (n_shards, mut snap) = snapshot::read_file(path)?;
        let n_shards = n_shards as usize;
        let cfg = StoreConfig {
            seal_threshold: snap.seal_threshold,
            lsh: snap.lsh,
            seed: snap.seed,
            tier: match snap.rerank {
                0 => ScoringTier::Exact,
                n => ScoringTier::Quantized { rerank_factor: n as usize },
            },
            policy: CompactionPolicy::default(),
            durability: crate::wal::DurabilityPolicy::Never,
        };
        let (mut store, shard_for): (Self, Vec<u32>) = match &snap.router {
            Some(rs) => {
                if rs.centroids.len() != n_shards {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "router section has {} cells but the header says {n_shards} shards",
                            rs.centroids.len()
                        ),
                    ));
                }
                let router =
                    Arc::new(IvfRouter::from_centroids(rs.centroids.clone(), rs.mean.clone()));
                let shard_for = rs
                    .counts
                    .iter()
                    .enumerate()
                    .flat_map(|(si, &c)| std::iter::repeat_n(si as u32, c as usize))
                    .collect();
                (Self::with_router(snap.dim, n_shards, cfg, router), shard_for)
            }
            None => {
                let store = Self::new(snap.dim, n_shards, cfg);
                let shard_for = snap
                    .entries
                    .iter()
                    .map(|(id, _)| (splitmix64(*id) % n_shards as u64) as u32)
                    .collect();
                (store, shard_for)
            }
        };
        // `validate` pairs every entry of an LSH snapshot with its packed
        // signature, so rows re-insert (and exact-tier band buckets
        // rebuild) without redoing the hyperplane dots per row; the tail
        // mask restores the zero padding the Hamming kernel relies on.
        let bits = snap.lsh.map_or(0, |p| p.bands * p.rows_per_band);
        for sig in &mut snap.sigs {
            mask_tail(sig, bits);
        }
        for (i, ((id, v), &shard)) in snap.entries.iter().zip(&shard_for).enumerate() {
            let sig = snap.sigs.get(i).map(Vec::as_slice);
            store.shards[shard as usize].insert_prepared(*id, v, sig);
            store.placements.insert(*id, shard);
            store.next_id = store.next_id.max(*id + 1);
        }
        store.reset_residuals();
        store.next_id = store.next_id.max(snap.next_id);
        Ok(store)
    }

    // --- durability --------------------------------------------------------

    /// Opens (or creates) a durable store rooted at `dir`: loads the
    /// snapshot the WAL manifest references (if any), replays every
    /// surviving log record, and attaches the per-shard logs so all
    /// subsequent mutations are journaled under `cfg.durability`. See
    /// [`crate::wal`] for the format and recovery guarantees.
    pub fn open_durable(
        dir: &Path,
        dim: usize,
        n_shards: usize,
        cfg: StoreConfig,
    ) -> io::Result<Self> {
        Self::open_durable_with(dir, dim, n_shards, cfg, None, Box::new(FsStorage::new()))
    }

    /// [`open_durable`](Self::open_durable) with an explicit router for
    /// the *fresh* case. When the manifest references a snapshot the
    /// snapshot's own router section wins (it is what past placements were
    /// logged against); `router` is ignored.
    pub fn open_durable_with_router(
        dir: &Path,
        dim: usize,
        n_shards: usize,
        cfg: StoreConfig,
        router: Arc<dyn Router>,
    ) -> io::Result<Self> {
        Self::open_durable_with(dir, dim, n_shards, cfg, Some(router), Box::new(FsStorage::new()))
    }

    /// The fully explicit durable open: injectable [`Storage`] (the
    /// crash-recovery property tests pass a fault shim that kills the log
    /// at an arbitrary byte offset) and optional fresh-case router.
    ///
    /// Replay applies the surviving records of *all* shards in global LSN
    /// order. Each record is an absolute state assignment, so later
    /// records win over earlier ones and a torn tail in one shard's log
    /// cannot resurrect a copy a surviving later record superseded — the
    /// recovered store is bit-identical to a store that executed exactly
    /// the durable prefix.
    pub fn open_durable_with(
        dir: &Path,
        dim: usize,
        n_shards: usize,
        cfg: StoreConfig,
        router: Option<Arc<dyn Router>>,
        storage: Box<dyn Storage>,
    ) -> io::Result<Self> {
        let (wal, recovery) = WalSet::open(dir, n_shards, cfg.durability, storage)?;
        let mut store = match &recovery.snapshot {
            Some(path) => {
                let loaded = Self::load(path)?;
                if loaded.dim != dim || loaded.shards.len() != n_shards {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "durable dir holds a {}-dim × {}-shard snapshot but the store \
                             opened as {dim}-dim × {n_shards}-shard",
                            loaded.dim,
                            loaded.shards.len()
                        ),
                    ));
                }
                loaded
            }
            None => match router {
                Some(r) => Self::with_router(dim, n_shards, cfg, r),
                None => Self::new(dim, n_shards, cfg),
            },
        };

        // Merge the per-shard logs into one globally LSN-ordered history
        // and replay it through the normal (unlogged — the WAL attaches
        // below) mutation steps. The shard each record lands in is the
        // shard whose log held it, not what the current router would pick:
        // physical placement survives restarts even when the router that
        // produced it did not.
        let mut history: Vec<(u64, usize, &WalRecord)> = Vec::new();
        for (shard, recs) in recovery.records.iter().enumerate() {
            for (lsn, rec) in recs {
                history.push((*lsn, shard, rec));
            }
        }
        history.sort_unstable_by_key(|&(lsn, _, _)| lsn);
        for (_, shard, rec) in history {
            match rec {
                WalRecord::Upsert { id, vector } | WalRecord::Move { id, vector } => {
                    if let Some(&old) = store.placements.get(id) {
                        if old as usize != shard {
                            store.shards[old as usize].delete(*id);
                        }
                    }
                    store.shards[shard].upsert_normalized(*id, vector);
                    store.placements.insert(*id, shard as u32);
                    store.next_id = store.next_id.max(*id + 1);
                }
                WalRecord::Delete { id } => {
                    if let Some(old) = store.placements.remove(id) {
                        store.shards[old as usize].delete(*id);
                    }
                }
            }
        }
        store.reset_residuals();
        store.wal = Some(Mutex::new(wal));
        Ok(store)
    }

    /// Whether this store journals its mutations (was opened through
    /// [`open_durable`](Self::open_durable)).
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Checkpoints a durable store: flushes the logs, saves a
    /// `snap-<lsn>.tbix` snapshot into the WAL directory, and folds —
    /// the manifest now references the snapshot and fresh empty segments,
    /// and the folded segments plus the previous snapshot are deleted.
    /// Returns the fold LSN. Errors on a non-durable store.
    pub fn checkpoint(&self) -> io::Result<u64> {
        let Some(wal) = &self.wal else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "checkpoint requires a store opened with open_durable",
            ));
        };
        let mut w = wal.lock().expect("WAL lock poisoned");
        w.flush()?;
        let fold_lsn = w.last_lsn();
        let name = format!("snap-{fold_lsn:020}.tbix");
        self.save(&w.dir().join(&name))?;
        w.fold(fold_lsn, name)?;
        Ok(fold_lsn)
    }

    /// Fsyncs any unsynced WAL backlog now, regardless of policy. A no-op
    /// on non-durable stores (so callers like graceful shutdown need not
    /// care).
    pub fn wal_flush(&self) -> io::Result<()> {
        match &self.wal {
            Some(w) => w.lock().expect("WAL lock poisoned").flush(),
            None => Ok(()),
        }
    }

    /// WAL observability counters, or `None` for a non-durable store.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(|w| w.lock().expect("WAL lock poisoned").stats())
    }

    /// Swaps the fsync policy `StoreConfig::durability` set at open. A
    /// no-op on non-durable stores.
    pub fn set_durability(&self, policy: DurabilityPolicy) -> io::Result<()> {
        match &self.wal {
            Some(w) => w.lock().expect("WAL lock poisoned").set_policy(policy),
            None => Ok(()),
        }
    }

    /// Overrides the WAL segment rotation threshold (tests exercise
    /// rotation and fold without writing 64 MiB). A no-op on non-durable
    /// stores.
    pub fn set_wal_segment_cap(&self, bytes: u64) {
        if let Some(w) = &self.wal {
            w.lock().expect("WAL lock poisoned").set_segment_cap(bytes);
        }
    }
}

impl Drop for ShardedStore {
    /// Best-effort flush so a graceful exit under `Interval`/`Never`
    /// leaves nothing in the OS cache. Crashes skip this — that is what
    /// replay is for.
    fn drop(&mut self) {
        if let Some(wal) = &self.wal {
            if let Ok(mut w) = wal.lock() {
                let _ = w.flush();
            }
        }
    }
}

impl VectorSink for ShardedStore {
    fn dim(&self) -> usize {
        self.dim
    }

    fn insert(&mut self, v: &[f32]) -> u64 {
        ShardedStore::insert(self, v)
    }
}

impl Queryable for ShardedStore {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        ShardedStore::len(self)
    }

    fn has_lsh(&self) -> bool {
        ShardedStore::has_lsh(self)
    }

    fn tier(&self) -> ScoringTier {
        ShardedStore::tier(self)
    }

    fn routes(&self) -> usize {
        self.n_shards()
    }

    fn routed(&self) -> bool {
        ShardedStore::routed(self)
    }

    fn search_probed(
        &self,
        q: &[f32],
        k: usize,
        source: &dyn CandidateSource,
        nprobe: usize,
    ) -> Vec<Hit> {
        ShardedStore::search_probed(self, q, k, source, nprobe)
    }

    fn search_batch_probed(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        source: &dyn CandidateSource,
        nprobe: usize,
    ) -> Vec<Vec<Hit>> {
        ShardedStore::search_batch_probed(self, queries, k, source, nprobe)
    }
}

/// The checks a router must pass to serve an `n_shards`-shard store of
/// `dim`-dimensional vectors: one cell per shard, and centroids and mean of
/// the store's dimension.
fn check_router_geometry(router: &dyn Router, n_shards: usize, dim: usize) {
    if let Some(centroids) = router.centroids() {
        assert_eq!(
            centroids.len(),
            n_shards,
            "router has {} cells but the store has {n_shards} shards",
            centroids.len()
        );
        assert!(
            centroids.iter().all(|c| c.len() == dim),
            "router centroids must be {dim}-dimensional"
        );
    }
    if let Some(mean) = router.mean() {
        assert_eq!(mean.len(), dim, "router mean must be {dim}-dimensional");
    }
}

/// K-way merge of ranked hit lists (each sorted best-first by
/// [`rank_cmp`]'s order) into the global top-`k`, via a heap of one head
/// per list: pop the best head, advance its list, repeat. Cost is
/// `O(k log s)` for `s` shards instead of re-sorting every hit.
fn merge_ranked(lists: &[Vec<Hit>], k: usize) -> Vec<Hit> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// One list's current head; the heap orders heads so the best-ranked
    /// hit surfaces first (`BinaryHeap` is a max-heap, so `cmp` inverts
    /// `rank_cmp`).
    struct Head {
        hit: Hit,
        list: u32,
        pos: u32,
    }

    impl PartialEq for Head {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Head {}
    impl PartialOrd for Head {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Head {
        fn cmp(&self, other: &Self) -> Ordering {
            rank_cmp(&other.hit, &self.hit)
        }
    }

    let mut heap = BinaryHeap::with_capacity(lists.len());
    for (li, list) in lists.iter().enumerate() {
        if let Some(&hit) = list.first() {
            heap.push(Head { hit, list: li as u32, pos: 0 });
        }
    }
    let mut out = Vec::with_capacity(k.min(lists.iter().map(Vec::len).sum()));
    while out.len() < k {
        let Some(head) = heap.pop() else { break };
        out.push(head.hit);
        let pos = head.pos + 1;
        if let Some(&hit) = lists[head.list as usize].get(pos as usize) {
            heap.push(Head { hit, list: head.list, pos });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::{ExactScan, LshCandidates};
    use crate::store::LshParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The default-source choice the engine layer makes, inlined for tests
    /// that predate it: LSH when the store has it, exact scan otherwise.
    fn query_batch(store: &ShardedStore, queries: &[Vec<f32>], k: usize) -> Vec<Vec<Hit>> {
        if store.has_lsh() {
            store.search_batch(queries, k, &LshCandidates)
        } else {
            store.search_batch(queries, k, &ExactScan)
        }
    }

    fn random_vecs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect()
    }

    fn cfg(lsh: bool) -> StoreConfig {
        StoreConfig {
            seal_threshold: 16,
            lsh: lsh.then_some(LshParams::default()),
            seed: 42,
            policy: CompactionPolicy::disabled(),
            ..StoreConfig::default()
        }
    }

    #[test]
    fn merge_ranked_equals_flat_sort() {
        let lists = vec![
            vec![Hit { id: 1, score: 0.9 }, Hit { id: 4, score: 0.4 }],
            vec![Hit { id: 2, score: 0.9 }, Hit { id: 5, score: 0.1 }],
            vec![],
            vec![Hit { id: 3, score: 0.6 }],
        ];
        let mut flat: Vec<Hit> = lists.iter().flatten().copied().collect();
        flat.sort_by(rank_cmp);
        assert_eq!(merge_ranked(&lists, 3), flat[..3].to_vec());
        assert_eq!(merge_ranked(&lists, 10), flat, "k past the total returns everything");
        assert!(merge_ranked(&lists, 0).is_empty());
    }

    #[test]
    fn routing_is_deterministic_and_spreads() {
        let store = ShardedStore::exact(4, 4);
        let mut per_shard = [0usize; 4];
        for id in 0..1000u64 {
            let s = store.shard_of(id);
            assert_eq!(s, store.shard_of(id), "routing must be pure");
            per_shard[s] += 1;
        }
        for (s, n) in per_shard.iter().enumerate() {
            assert!(
                (150..=350).contains(n),
                "shard {s} got {n} of 1000 sequential ids — routing is striping"
            );
        }
    }

    #[test]
    fn insert_assigns_global_sequential_ids() {
        let vecs = random_vecs(30, 6, 1);
        let mut store = ShardedStore::new(6, 3, cfg(false));
        let ids: Vec<u64> = vecs.iter().map(|v| store.insert(v)).collect();
        assert_eq!(ids, (0..30).collect::<Vec<u64>>());
        assert_eq!(store.len(), 30);
        let totals = store.stats().totals();
        assert_eq!(totals.live, 30);
        assert!(store.stats().shards.iter().all(|s| s.live > 0), "every shard populated");
        // Each vector finds itself across the shard fan-out.
        for (i, v) in vecs.iter().enumerate() {
            assert_eq!(store.search(v, 1, &ExactScan)[0].id, i as u64);
        }
    }

    #[test]
    fn sharded_matches_single_store_bit_for_bit() {
        for lsh in [false, true] {
            let vecs = random_vecs(120, 10, 2);
            let mut single = ShardedStore::new(10, 1, cfg(lsh));
            let mut sharded = ShardedStore::new(10, 4, cfg(lsh));
            for v in &vecs {
                single.insert(v);
                sharded.insert(v);
            }
            // Mutate both the same way.
            for id in [3u64, 17, 44, 90] {
                single.delete(id);
                sharded.delete(id);
            }
            single.upsert(7, &vecs[50]);
            sharded.upsert(7, &vecs[50]);

            let source: &dyn CandidateSource = if lsh { &LshCandidates } else { &ExactScan };
            let queries: Vec<Vec<f32>> = vecs[..20].to_vec();
            let a = single.search_batch(&queries, 8, source);
            let b = sharded.search_batch(&queries, 8, source);
            assert_eq!(a, b, "lsh={lsh}: sharded results diverged");
            for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "lsh={lsh}: score bits differ");
            }
        }
    }

    #[test]
    fn quantized_sharded_matches_single_store_bit_for_bit() {
        let quant = StoreConfig { tier: ScoringTier::Quantized { rerank_factor: 4 }, ..cfg(true) };
        let vecs = random_vecs(120, 10, 2);
        let mut single = ShardedStore::new(10, 1, quant);
        let mut sharded = ShardedStore::new(10, 4, quant);
        for v in &vecs {
            single.insert(v);
            sharded.insert(v);
        }
        for id in [3u64, 17, 44, 90] {
            single.delete(id);
            sharded.delete(id);
        }
        single.upsert(7, &vecs[50]);
        sharded.upsert(7, &vecs[50]);
        let queries: Vec<Vec<f32>> = vecs[..20].to_vec();
        for source in [&ExactScan as &dyn CandidateSource, &LshCandidates] {
            let a = single.search_batch(&queries, 8, source);
            let b = sharded.search_batch(&queries, 8, source);
            assert_eq!(a, b, "quantized sharded results diverged");
            for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
                assert_eq!(x.score.to_bits(), y.score.to_bits(), "score bits differ");
            }
        }
    }

    #[test]
    fn upsert_and_delete_route_to_the_owning_shard() {
        let vecs = random_vecs(40, 8, 3);
        let mut store = ShardedStore::new(8, 4, cfg(false));
        for v in &vecs {
            store.insert(v);
        }
        store.upsert(5, &vecs[9]);
        assert_eq!(store.len(), 40, "upsert replaces, not grows");
        assert_eq!(store.stats().totals().tombstones, 1);
        assert!(store.contains(5));
        assert!(store.delete(5));
        assert!(!store.delete(5), "double delete reports dead");
        assert!(store.get(5).is_none());
        assert_eq!(store.len(), 39);
        assert!(store.search(&vecs[9], 40, &ExactScan).iter().all(|h| h.id != 5));
    }

    #[test]
    fn per_shard_policy_compacts_only_the_busy_shard() {
        let vecs = random_vecs(80, 6, 4);
        let policy = CompactionPolicy { max_tombstone_ratio: 0.2, max_segments: 64 };
        let mut store = ShardedStore::new(6, 4, StoreConfig { policy, ..cfg(false) });
        for v in &vecs {
            store.insert(v);
        }
        // Delete every id one shard owns; only that shard should compact.
        let victim = store.shard_of(0);
        let victims: Vec<u64> = (0..80u64).filter(|&id| store.shard_of(id) == victim).collect();
        for &id in &victims {
            store.delete(id);
        }
        assert!(!store.compaction_pauses().is_empty(), "policy never ran");
        let stats = store.stats();
        assert_eq!(stats.shards[victim].live, 0);
        assert_eq!(stats.shards[victim].tombstones, 0, "victim shard left uncompacted");
        for (si, s) in stats.shards.iter().enumerate() {
            if si != victim {
                assert_eq!(s.tombstones, 0, "untouched shard {si} has tombstones");
            }
        }
        assert_eq!(store.len(), 80 - victims.len());
    }

    #[test]
    fn snapshot_roundtrips_a_mutated_store_byte_identical() {
        let vecs = random_vecs(90, 12, 5);
        let mut store = ShardedStore::new(12, 4, cfg(true));
        for v in &vecs {
            store.insert(v);
        }
        for id in [2u64, 30, 61, 77] {
            store.delete(id);
        }
        store.upsert(10, &vecs[40]);
        let queries: Vec<Vec<f32>> = vecs[20..35].to_vec();
        let before = query_batch(&store, &queries, 7);

        let path =
            std::env::temp_dir().join(format!("tabbin_index_sharded_{}.tbix", std::process::id()));
        store.save(&path).expect("save");
        let loaded = ShardedStore::load(&path).expect("load");
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.n_shards(), 4);
        assert_eq!(loaded.len(), store.len());
        let after = query_batch(&loaded, &queries, 7);
        assert_eq!(after, before);
        for (a, b) in after.iter().flatten().zip(before.iter().flatten()) {
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        // Fresh ids keep allocating past the old counter.
        let mut loaded = loaded;
        assert_eq!(loaded.insert(&vecs[0]), 90);
    }

    #[test]
    fn single_store_snapshot_loads_as_one_shard() {
        let vecs = random_vecs(25, 8, 6);
        let mut single = ShardedStore::new(8, 1, cfg(false));
        for v in &vecs {
            single.insert(v);
        }
        let path = std::env::temp_dir()
            .join(format!("tabbin_index_single_as_sharded_{}.tbix", std::process::id()));
        single.save(&path).expect("save");
        let loaded = ShardedStore::load(&path).expect("load");
        // The shard count is the file's, not the caller's: a 4-shard save
        // over the same path loads back as 4 shards.
        let mut s4 = ShardedStore::new(8, 4, cfg(false));
        for v in &vecs {
            s4.insert(v);
        }
        s4.save(&path).expect("save sharded");
        let loaded4 = ShardedStore::load(&path).expect("load sharded");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.n_shards(), 1);
        assert_eq!(loaded4.n_shards(), 4);
        let want = single.search(&vecs[3], 5, &ExactScan);
        assert_eq!(loaded.search(&vecs[3], 5, &ExactScan), want);
        assert_eq!(loaded4.search(&vecs[3], 5, &ExactScan), want);
    }

    #[test]
    fn candidate_count_sums_across_shards() {
        let vecs = random_vecs(60, 8, 7);
        let mut store = ShardedStore::new(8, 3, cfg(true));
        let mut single = ShardedStore::new(8, 1, cfg(true));
        for v in &vecs {
            store.insert(v);
            single.insert(v);
        }
        // Same planes, same signatures ⇒ identical candidate sets, just
        // partitioned differently.
        assert_eq!(
            store.candidate_count(&vecs[0], &LshCandidates),
            single.candidate_count(&vecs[0], &LshCandidates)
        );
        assert_eq!(store.candidate_count(&vecs[0], &ExactScan), 60);
    }

    #[test]
    fn candidate_count_on_a_quantized_store_is_every_live_row() {
        let vecs = random_vecs(60, 8, 7);
        let quant = StoreConfig { tier: ScoringTier::Quantized { rerank_factor: 4 }, ..cfg(true) };
        let mut store = ShardedStore::new(8, 3, quant);
        for v in &vecs {
            store.insert(v);
        }
        for id in [4u64, 9, 33] {
            store.delete(id);
        }
        // No source is consulted and no bucket exists: the count is the
        // live rows the Hamming pass ranks, whichever source is named —
        // exactly what one full fan-out query adds to `rows_scanned`.
        assert_eq!(store.candidate_count(&vecs[0], &LshCandidates), 57);
        assert_eq!(store.candidate_count(&vecs[0], &ExactScan), 57);
        let before = store.stats().totals().rows_scanned;
        store.search(&vecs[0], 5, &LshCandidates);
        assert_eq!(store.stats().totals().rows_scanned - before, 57);
    }

    #[test]
    fn empty_sharded_store_returns_no_hits() {
        let store = ShardedStore::exact(8, 4);
        assert!(store.is_empty());
        assert!(store.search(&[1.0; 8], 5, &ExactScan).is_empty());
        assert!(store.search_batch(&[vec![1.0; 8]], 5, &ExactScan)[0].is_empty());
        assert!(store.search_batch(&[], 5, &ExactScan).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        ShardedStore::exact(8, 0);
    }

    #[test]
    fn stats_expose_per_shard_pending_depth() {
        let vecs = random_vecs(40, 6, 8);
        let mut store = ShardedStore::new(6, 4, cfg(false));
        for v in &vecs {
            store.insert(v);
        }
        let stats = store.stats();
        // seal_threshold 16 over ~10 rows per shard: every shard's rows sit
        // in its unsealed tail, so depth == rows; no tombstones yet.
        assert_eq!(stats.depths().len(), 4);
        for (s, depth) in stats.shards.iter().zip(stats.depths()) {
            assert_eq!(s.pending_rows, s.live, "all rows should be unsealed");
            assert_eq!(depth, s.pending_depth());
            assert_eq!(depth, s.pending_rows + s.tombstones);
        }
        assert_eq!(stats.totals().pending_rows, 40);
        // Deletes deepen exactly the owning shard's backlog: the row stays
        // in the unsealed tail *and* counts as a tombstone until compaction.
        let victim = store.shard_of(0);
        let before = store.stats().depths();
        store.delete(0);
        let after = store.stats();
        for (shard, (&b, a)) in before.iter().zip(after.depths()).enumerate() {
            let expect = if shard == victim { b + 1 } else { b };
            assert_eq!(a, expect, "shard {shard} depth moved unexpectedly");
        }
        assert_eq!(after.shards[victim].tombstones, 1);
    }

    /// `n` vectors around 4 well-separated anchors — the distribution IVF
    /// routing is built for.
    fn clustered_vecs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let anchors: Vec<Vec<f32>> =
            (0..4).map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect();
        (0..n)
            .map(|i| {
                let a = &anchors[i % 4];
                a.iter().map(|x| x + rng.random_range(-0.1f32..0.1)).collect()
            })
            .collect()
    }

    fn ivf_store(vecs: &[Vec<f32>], dim: usize, cfg: StoreConfig) -> ShardedStore {
        let router = std::sync::Arc::new(IvfRouter::train(vecs, 4, cfg.seed));
        let mut store = ShardedStore::with_router(dim, 4, cfg, router);
        for v in vecs {
            store.insert(v);
        }
        store
    }

    #[test]
    fn ivf_placement_co_locates_and_probes_a_subset() {
        let vecs = clustered_vecs(80, 8, 21);
        let store = ivf_store(&vecs, 8, cfg(false));
        assert_eq!(store.router_name(), "ivf");
        assert!(store.routed());
        // Same-cluster vectors land together: ids i and i+4 share an anchor.
        let mut agree = 0usize;
        for i in 0..76u64 {
            if store.shard_of(i) == store.shard_of(i + 4) {
                agree += 1;
            }
        }
        assert!(agree >= 70, "only {agree}/76 same-cluster pairs co-located");
        // nprobe=1 finds the self-hit (it lives in the probed cell), and
        // the counters see exactly one probed shard for that query.
        let before = store.stats();
        let hits = store.search_probed(&vecs[0], 1, &ExactScan, 1);
        assert_eq!(hits[0].id, 0);
        let after = store.stats();
        assert_eq!(after.queries - before.queries, 1);
        assert_eq!(after.shards_probed - before.shards_probed, 1);
        // Full probe matches a hash-routed store bit-for-bit.
        let mut hashed = ShardedStore::new(8, 4, cfg(false));
        for v in &vecs {
            hashed.insert(v);
        }
        for q in &vecs[..10] {
            let a = store.search_probed(q, 5, &ExactScan, 4);
            let b = hashed.search(q, 5, &ExactScan);
            assert_eq!(a, b, "full-probe routed results diverged from hash routing");
        }
    }

    #[test]
    fn counters_and_imbalance_are_observable() {
        let vecs = random_vecs(40, 6, 22);
        let mut store = ShardedStore::new(6, 4, cfg(false));
        for v in &vecs {
            store.insert(v);
        }
        store.search(&vecs[0], 3, &ExactScan);
        store.search_batch(&vecs[..5], 3, &ExactScan);
        let stats = store.stats();
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.shards_probed, 24, "hash routing always full-fans");
        assert!((stats.avg_shards_probed() - 4.0).abs() < 1e-9);
        assert!(stats.imbalance() >= 1.0);
        assert!(stats.totals().rows_scanned > 0, "exact scans count scanned rows");
        assert!((ShardedStats::default().imbalance() - 1.0).abs() < 1e-9);
        // Hash routing spreads sequential ids well enough to stay near even.
        assert!(stats.imbalance() < 2.0, "imbalance {} on a hash store", stats.imbalance());
    }

    #[test]
    fn rebalance_moves_rows_without_changing_results() {
        let vecs = clustered_vecs(60, 8, 23);
        // Build hash-routed (geometry-blind placement), then install a
        // trained router: placements disagree until rebalance migrates them.
        let mut store = ShardedStore::new(8, 4, cfg(false));
        for v in &vecs {
            store.insert(v);
        }
        let queries: Vec<Vec<f32>> = vecs[..10].to_vec();
        let before = store.search_batch(&queries, 5, &ExactScan);
        let router = std::sync::Arc::new(IvfRouter::train(&vecs, 4, 42));
        store.install_router(router);
        let moved = store.rebalance();
        assert!(moved > 0, "a trained router should disagree with hash placement somewhere");
        assert_eq!(store.len(), 60, "rebalance must not lose rows");
        let after = store.search_batch(&queries, 5, &ExactScan);
        assert_eq!(before, after, "rebalance changed full fan-out results");
        assert_eq!(store.rebalance(), 0, "rebalance must be idempotent");
        // Post-rebalance, placements agree with the router, so residuals
        // are small on a tightly clustered corpus.
        for r in store.mean_residuals() {
            assert!(r < 0.5, "mean residual {r} after rebalance");
        }
    }

    #[test]
    fn hash_routed_signatures_are_the_zero_threshold_sign_bits() {
        use crate::lsh::{pack_signature, random_planes, signature_of};
        let vecs = clustered_vecs(90, 16, 25);
        let quant = StoreConfig { tier: ScoringTier::Quantized { rerank_factor: 4 }, ..cfg(true) };
        for cfg in [cfg(true), quant] {
            let mut store = ShardedStore::new(16, 4, cfg);
            for v in &vecs {
                store.insert(v);
            }
            store.delete(8);
            store.upsert(3, &vecs[70]);
            let lsh = cfg.lsh.expect("LSH config");
            let planes = random_planes(lsh.bands * lsh.rows_per_band, 16, cfg.seed);
            let mut checked = 0;
            for shard in &store.shards {
                for ((_, v), sig) in shard.live_entries().iter().zip(shard.live_packed_sigs()) {
                    assert_eq!(sig, pack_signature(&signature_of(&planes, v)), "{:?}", cfg.tier);
                    checked += 1;
                }
            }
            assert_eq!(checked, store.len());
        }
    }

    #[test]
    fn installing_a_router_re_signs_only_when_its_mean_moves() {
        let vecs = clustered_vecs(60, 8, 26);
        let mut store = ShardedStore::new(8, 4, cfg(true));
        for v in &vecs {
            store.insert(v);
        }
        let origin_sigs: Vec<Vec<u64>> =
            store.shards.iter().flat_map(VectorStore::live_packed_sigs).collect();
        let router = Arc::new(IvfRouter::train(&vecs, 4, 42));
        store.install_router(router.clone());
        assert_eq!(store.compactions(), 4, "every shard re-signed through the rewrite");
        let centred_sigs: Vec<Vec<u64>> =
            store.shards.iter().flat_map(VectorStore::live_packed_sigs).collect();
        assert_ne!(origin_sigs, centred_sigs, "centring changed no signature");
        // The same mean again moves no threshold: nothing is rewritten.
        store.install_router(router);
        assert_eq!(store.compactions(), 4);
        // Back to hash routing: hyperplanes through the origin, the original
        // bits restored.
        store.install_router(Arc::new(HashRouter));
        assert_eq!(store.compactions(), 8);
        let restored: Vec<Vec<u64>> =
            store.shards.iter().flat_map(VectorStore::live_packed_sigs).collect();
        assert_eq!(restored, origin_sigs);
    }

    #[test]
    fn upsert_moves_a_row_the_router_reassigns() {
        let vecs = clustered_vecs(40, 8, 24);
        let mut store = ivf_store(&vecs, 8, cfg(false));
        // Re-upsert id 0 with a vector from a different cluster: the row
        // must follow its geometry to the new shard.
        let old_shard = store.shard_of(0);
        let donor = (0..4).find(|&i| {
            let mut nv = vecs[i + 1].clone();
            crate::simd::l2_normalize(&mut nv);
            store.router.place(0, &nv, 4) != old_shard
        });
        let donor = donor.expect("some cluster maps elsewhere");
        store.upsert(0, &vecs[donor + 1]);
        assert_ne!(store.shard_of(0), old_shard, "row did not move with its geometry");
        assert_eq!(store.len(), 40, "move replaced, not grew");
        assert_eq!(store.search(&vecs[donor + 1], 1, &ExactScan)[0].id, 0);
    }
}
