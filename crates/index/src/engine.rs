//! The query-execution layer: planning and caching in front of pure
//! storage.
//!
//! Before this module existed, every consumer called the storage tiers
//! directly and re-made the same decisions — which candidate source to use,
//! how wide to probe, how to amortize per-query overhead. [`QueryEngine`]
//! owns those decisions and the stores become pure storage behind the
//! [`Queryable`] trait (scan a candidate set, return ranked hits — nothing
//! else):
//!
//! * **Planning** ([`QueryPlan`]) — over an exact-tier store the engine
//!   picks the candidate source ([`ProbePolicy`]: exact below a corpus-size
//!   cutoff where scans are cheap and recall matters, LSH blocking above
//!   it, or forced either way; a quantized store always sweeps its
//!   signatures, so its plan never blocks) and an ef-style **probe width**: it over-fetches `k × probe_width`
//!   candidates so a cached result can serve any smaller `k` as a prefix —
//!   prefixes of a ranked top-`m` list are exactly the top-`k` for `k ≤ m`.
//!   Over a router-driven store it also resolves an **`nprobe`**
//!   ([`NprobePolicy`]): how many shards each query visits. `Auto` keeps
//!   full fan-out on small or hash-routed corpora and drops to a quarter of
//!   the shards once a learned router has enough rows per shard for the
//!   sublinear scan to pay.
//! * **Caching** — an LRU keyed on the *normalized* query vector's bits
//!   (plus the planned source), so scaled duplicates of one direction hit
//!   the same entry. Mutation invalidates: any `&mut` access to the store
//!   goes through [`QueryEngine::store_mut`], which clears the cache.
//!
//! Results are **bit-identical** to calling storage directly with the same
//! source and a `k`-prefix of the same fetch depth — planning, caching, and
//! [`QueryEngine::query_batch`] are performance features, never result
//! features. The serving crate (`tabbin-serve`) pins this end to end over
//! a TCP loopback.

use crate::candidates::{CandidateSource, ExactScan, LshCandidates};
use crate::simd::Hit;
use crate::store::ScoringTier;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What the engine needs from a storage tier: dimension/size/routing
/// introspection for planning, and probe-bounded ranked scans. Implemented
/// by [`crate::ShardedStore`]; the trait is the seam tests substitute
/// fakes through.
pub trait Queryable: Send + Sync {
    /// Vector dimensionality the tier stores.
    fn dim(&self) -> usize;

    /// Live vectors in the tier.
    fn len(&self) -> usize;

    /// Whether the tier holds no live vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the tier maintains LSH buckets (makes
    /// [`LshCandidates`] meaningful).
    fn has_lsh(&self) -> bool;

    /// How the tier scores candidates (see [`ScoringTier`]), so plans —
    /// and cache keys — reflect the scoring path.
    fn tier(&self) -> ScoringTier;

    /// How many routing targets (shards) the tier fans a query across.
    fn routes(&self) -> usize;

    /// Whether placement is geometry-aware (a learned router), making a
    /// sub-`routes()` probe set meaningful. Hash-routed tiers answer
    /// `false` and always scan everything.
    fn routed(&self) -> bool;

    /// Ranked top-`k` for one query under an explicit candidate source,
    /// bounded to the `nprobe` nearest routing cells.
    fn search_probed(
        &self,
        q: &[f32],
        k: usize,
        source: &dyn CandidateSource,
        nprobe: usize,
    ) -> Vec<Hit>;

    /// [`search_probed`](Self::search_probed) for many queries.
    fn search_batch_probed(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        source: &dyn CandidateSource,
        nprobe: usize,
    ) -> Vec<Vec<Hit>>;
}

/// How the engine picks a candidate source per query over an exact-tier
/// store (a quantized store's coarse pass consults no source).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbePolicy {
    /// LSH blocking when the store has it **and** the corpus is larger than
    /// `exact_cutoff` live vectors; exact scan otherwise. Small corpora
    /// scan faster than they block, and exact recall is free there.
    Auto {
        /// Corpus size at or below which exact scan wins.
        exact_cutoff: usize,
    },
    /// Always exact scan (recall 1.0) — the evaluation protocols' choice.
    Exact,
    /// Always LSH blocking (falls back to exact when the store has no LSH).
    Lsh,
}

/// How many routing cells (shards) the engine lets each query probe when
/// the store's router is learned (see [`Queryable::routed`]). Irrelevant —
/// and resolved to full fan-out — over hash-routed stores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum NprobePolicy {
    /// Full fan-out on small or hash-routed corpora; `routes / 4` (at
    /// least 1) once a learned router serves ≥ 1024 rows at ≥ 64 rows per
    /// shard, where the sublinear scan pays for the recall trade.
    #[default]
    Auto,
    /// Always probe every shard — recall identical to hash routing.
    All,
    /// Probe exactly this many cells (clamped to `1..=routes`).
    Fixed(usize),
}

/// Construction-time options for a [`QueryEngine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Candidate-source choice (see [`ProbePolicy`]).
    pub probe: ProbePolicy,
    /// Ef-style over-fetch factor: the engine fetches `k × probe_width`
    /// hits from storage and serves `k`-prefixes, so nearby `k`s hit the
    /// same cache entry. `1` disables over-fetching.
    pub probe_width: usize,
    /// LRU entries the result cache holds; `0` disables caching.
    pub cache_capacity: usize,
    /// Shard-probe budget over routed stores (see [`NprobePolicy`]).
    pub nprobe: NprobePolicy,
}

impl Default for EngineConfig {
    /// Auto source selection with a 1024-row exact cutoff, 2× probe width,
    /// a 1024-entry cache, and auto `nprobe`.
    fn default() -> Self {
        Self {
            probe: ProbePolicy::Auto { exact_cutoff: 1024 },
            probe_width: 2,
            cache_capacity: 1024,
            nprobe: NprobePolicy::Auto,
        }
    }
}

impl EngineConfig {
    /// A config that always scans exactly and never over-fetches — what
    /// the evaluation protocols use to reproduce the paper's numbers.
    /// Probes every shard so recall stays 1.0 even over a routed store.
    pub fn exact() -> Self {
        Self {
            probe: ProbePolicy::Exact,
            probe_width: 1,
            nprobe: NprobePolicy::All,
            ..Self::default()
        }
    }

    /// A config that always uses LSH blocking (the paper's §4.1 recipe).
    pub fn lsh() -> Self {
        Self { probe: ProbePolicy::Lsh, ..Self::default() }
    }

    /// This config with the cache disabled — for measuring the pure
    /// storage path, or corpora where queries never repeat.
    pub fn without_cache(self) -> Self {
        Self { cache_capacity: 0, ..self }
    }
}

/// One query's resolved execution plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryPlan {
    /// Hits fetched from storage (`k × probe_width`); the caller sees the
    /// `k`-prefix.
    pub fetch_k: usize,
    /// Whether the candidate pass is LSH-blocked (vs. exact scan); always
    /// `false` when `quantized`.
    pub lsh: bool,
    /// Whether the store scores through its quantized coarse-then-re-rank
    /// tier ([`ScoringTier::Quantized`]) rather than pure f32 scans.
    pub quantized: bool,
    /// Shards each query visits, resolved from [`NprobePolicy`]; equals
    /// [`Queryable::routes`] for full fan-out.
    pub nprobe: usize,
}

/// Engine observability: cache and storage-call counters, snapshotted by
/// [`QueryEngine::stats`]. Serializable so the serving tier can ship it in
/// a `Stats` reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Queries answered from the LRU cache.
    pub cache_hits: u64,
    /// Queries that went to storage.
    pub cache_misses: u64,
    /// Entries currently cached.
    pub cache_len: usize,
    /// Configured cache capacity (0 = disabled).
    pub cache_capacity: usize,
    /// `search_probed`/`search_batch_probed` calls issued to storage.
    pub store_batches: u64,
    /// Queries those calls carried (≥ `store_batches`; the ratio is the
    /// achieved coalescing factor).
    pub store_queries: u64,
}

/// The query-execution engine over one storage tier. See the
/// [module docs](self) for the design. All query paths take `&self`, so
/// one engine behind an `Arc` serves many threads concurrently.
#[derive(Debug)]
pub struct QueryEngine<S> {
    store: S,
    cfg: EngineConfig,
    cache: Mutex<LruCache>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    store_batches: AtomicU64,
    store_queries: AtomicU64,
}

impl<S: Queryable> QueryEngine<S> {
    /// Wraps a storage tier. The engine owns the store; read access goes
    /// through [`store`](Self::store), mutation through
    /// [`store_mut`](Self::store_mut) (which invalidates the cache).
    pub fn new(store: S, cfg: EngineConfig) -> Self {
        assert!(cfg.probe_width > 0, "probe_width must be positive");
        Self {
            store,
            cfg,
            cache: Mutex::new(LruCache::new(cfg.cache_capacity)),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            store_batches: AtomicU64::new(0),
            store_queries: AtomicU64::new(0),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the underlying store. **Clears the result
    /// cache** — any mutation can change any cached top-k.
    pub fn store_mut(&mut self) -> &mut S {
        self.cache.get_mut().expect("cache lock poisoned").clear();
        &mut self.store
    }

    /// Unwraps the engine back into its store.
    pub fn into_store(self) -> S {
        self.store
    }

    /// Vector dimensionality served.
    pub fn dim(&self) -> usize {
        self.store.dim()
    }

    /// Live vectors served.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether no vector is stored.
    pub fn is_empty(&self) -> bool {
        self.store.len() == 0
    }

    /// The plan the engine would execute for one query at this `k`.
    pub fn plan(&self, k: usize) -> QueryPlan {
        let quantized = matches!(self.store.tier(), ScoringTier::Quantized { .. });
        let lsh = !quantized
            && self.store.has_lsh()
            && match self.cfg.probe {
                ProbePolicy::Exact => false,
                ProbePolicy::Lsh => true,
                ProbePolicy::Auto { exact_cutoff } => self.store.len() > exact_cutoff,
            };
        let routes = self.store.routes().max(1);
        let nprobe = match self.cfg.nprobe {
            NprobePolicy::All => routes,
            NprobePolicy::Fixed(n) => n.clamp(1, routes),
            NprobePolicy::Auto => {
                let len = self.store.len();
                if self.store.routed() && len >= 1024 && len / routes >= 64 {
                    (routes / 4).max(1)
                } else {
                    routes
                }
            }
        };
        QueryPlan { fetch_k: k.saturating_mul(self.cfg.probe_width), lsh, quantized, nprobe }
    }

    /// Cache/storage counters right now.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_len: self.cache.lock().expect("cache lock poisoned").len(),
            cache_capacity: self.cfg.cache_capacity,
            store_batches: self.store_batches.load(Ordering::Relaxed),
            store_queries: self.store_queries.load(Ordering::Relaxed),
        }
    }

    /// Top-`k` for one query under the engine's plan: cache lookup on the
    /// normalized vector, then one storage scan on miss.
    ///
    /// The cache *key* is the normalized vector (scaled duplicates share an
    /// entry); the *scan* gets the caller's raw vector, exactly as a direct
    /// storage call would — so engine results are bit-identical to storage
    /// results, normalization round-off included.
    pub fn query(&self, q: &[f32], k: usize) -> Vec<Hit> {
        let plan = self.plan(k);
        let source: &dyn CandidateSource = if plan.lsh { &LshCandidates } else { &ExactScan };
        if self.cfg.cache_capacity > 0 {
            let key = CacheKey::of(&normalize(q), &plan);
            if let Some(hits) = self.cache.lock().expect("cache lock poisoned").get(&key, k) {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
                return hits;
            }
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
            let full = self.store.search_probed(q, plan.fetch_k, source, plan.nprobe);
            self.store_batches.fetch_add(1, Ordering::Relaxed);
            self.store_queries.fetch_add(1, Ordering::Relaxed);
            let mut out = full.clone();
            self.cache.lock().expect("cache lock poisoned").insert(key, plan.fetch_k, full);
            out.truncate(k);
            return out;
        }
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        self.store_batches.fetch_add(1, Ordering::Relaxed);
        self.store_queries.fetch_add(1, Ordering::Relaxed);
        let mut out = self.store.search_probed(q, plan.fetch_k, source, plan.nprobe);
        out.truncate(k);
        out
    }

    /// Top-`k` for many queries: cached entries answer immediately, the
    /// misses go to storage as **one** `search_batch_probed` call, and
    /// outputs come back in input order.
    pub fn query_batch(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<Hit>> {
        let plan = self.plan(k);
        let source: &dyn CandidateSource = if plan.lsh { &LshCandidates } else { &ExactScan };

        if self.cfg.cache_capacity == 0 {
            self.cache_misses.fetch_add(queries.len() as u64, Ordering::Relaxed);
            if !queries.is_empty() {
                self.store_batches.fetch_add(1, Ordering::Relaxed);
                self.store_queries.fetch_add(queries.len() as u64, Ordering::Relaxed);
            }
            let mut lists =
                self.store.search_batch_probed(queries, plan.fetch_k, source, plan.nprobe);
            for l in &mut lists {
                l.truncate(k);
            }
            return lists;
        }

        let keys: Vec<CacheKey> =
            queries.iter().map(|q| CacheKey::of(&normalize(q), &plan)).collect();
        let mut out: Vec<Option<Vec<Hit>>> = vec![None; queries.len()];
        let mut miss_idx = Vec::new();
        {
            let mut cache = self.cache.lock().expect("cache lock poisoned");
            for (i, key) in keys.iter().enumerate() {
                match cache.get(key, k) {
                    Some(hits) => out[i] = Some(hits),
                    None => miss_idx.push(i),
                }
            }
        }
        self.cache_hits.fetch_add((queries.len() - miss_idx.len()) as u64, Ordering::Relaxed);
        self.cache_misses.fetch_add(miss_idx.len() as u64, Ordering::Relaxed);
        if !miss_idx.is_empty() {
            let miss_queries: Vec<Vec<f32>> =
                miss_idx.iter().map(|&i| queries[i].clone()).collect();
            let lists =
                self.store.search_batch_probed(&miss_queries, plan.fetch_k, source, plan.nprobe);
            self.store_batches.fetch_add(1, Ordering::Relaxed);
            self.store_queries.fetch_add(miss_idx.len() as u64, Ordering::Relaxed);
            let mut cache = self.cache.lock().expect("cache lock poisoned");
            for (&i, full) in miss_idx.iter().zip(lists) {
                let mut hits = full.clone();
                hits.truncate(k);
                cache.insert(keys[i].clone(), plan.fetch_k, full);
                out[i] = Some(hits);
            }
        }
        out.into_iter().map(|hits| hits.expect("every query answered")).collect()
    }
}

/// The shared workspace normalization ([`crate::simd::l2_normalize`] —
/// identical bits to what the stores score from, which is what makes the
/// cache key sound), as an owned copy.
fn normalize(q: &[f32]) -> Vec<f32> {
    let mut nq = q.to_vec();
    crate::simd::l2_normalize(&mut nq);
    nq
}

// ---------------------------------------------------------------------------
// LRU cache
// ---------------------------------------------------------------------------

/// Cache key: the normalized query's exact bit pattern plus the planned
/// candidate source, scoring tier, and probe budget — two plans over one
/// vector must not share results.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    bits: Vec<u32>,
    lsh: bool,
    quantized: bool,
    nprobe: usize,
}

impl CacheKey {
    fn of(nq: &[f32], plan: &QueryPlan) -> Self {
        Self {
            bits: nq.iter().map(|x| x.to_bits()).collect(),
            lsh: plan.lsh,
            quantized: plan.quantized,
            nprobe: plan.nprobe,
        }
    }
}

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot {
    key: CacheKey,
    /// The fetch depth the hits were ranked at; any `k ≤ fetch_k` (or any
    /// `k` at all when the list came back short — storage was exhausted)
    /// serves as a prefix.
    fetch_k: usize,
    hits: Vec<Hit>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU over ranked hit lists: `HashMap` for lookup, a
/// slab-backed doubly-linked list for recency. All operations are O(1).
#[derive(Debug)]
struct LruCache {
    cap: usize,
    map: HashMap<CacheKey, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl LruCache {
    fn new(cap: usize) -> Self {
        Self { cap, map: HashMap::new(), slots: Vec::new(), free: Vec::new(), head: NIL, tail: NIL }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// The cached `k`-prefix for `key`, if an entry can serve it; bumps the
    /// entry to most-recently-used.
    fn get(&mut self, key: &CacheKey, k: usize) -> Option<Vec<Hit>> {
        let slot = *self.map.get(key)?;
        let servable = {
            let s = &self.slots[slot];
            s.fetch_k >= k || s.hits.len() < s.fetch_k
        };
        if !servable {
            return None;
        }
        self.unlink(slot);
        self.push_front(slot);
        let s = &self.slots[slot];
        Some(s.hits[..k.min(s.hits.len())].to_vec())
    }

    /// Caches `hits` as the ranked top-`fetch_k` for `key`, replacing any
    /// existing entry and evicting the least-recently-used past capacity.
    fn insert(&mut self, key: CacheKey, fetch_k: usize, hits: Vec<Hit>) {
        if self.cap == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot].fetch_k = fetch_k;
            self.slots[slot].hits = hits;
            self.unlink(slot);
            self.push_front(slot);
            return;
        }
        if self.map.len() == self.cap {
            let victim = self.tail;
            self.unlink(victim);
            let old = &self.slots[victim];
            self.map.remove(&old.key);
            self.free.push(victim);
        }
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot { key: key.clone(), fetch_k, hits, prev: NIL, next: NIL };
                i
            }
            None => {
                self.slots.push(Slot { key: key.clone(), fetch_k, hits, prev: NIL, next: NIL });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{CompactionPolicy, LshParams, StoreConfig};
    use crate::ShardedStore;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vecs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect()
    }

    /// A small flat (one-shard) test store; `lsh` picks the banding (e.g.
    /// `Some(LshParams::default())`), `None` leaves exact scan only.
    fn store_with(vecs: &[Vec<f32>], lsh: Option<LshParams>) -> ShardedStore {
        let cfg = StoreConfig {
            seal_threshold: 16,
            lsh,
            seed: 42,
            policy: CompactionPolicy::disabled(),
            ..StoreConfig::default()
        };
        let mut store = ShardedStore::new(vecs[0].len(), 1, cfg);
        for v in vecs {
            store.insert(v);
        }
        store
    }

    #[test]
    fn engine_matches_direct_storage_prefixes() {
        let vecs = random_vecs(60, 8, 1);
        let store = store_with(&vecs, None);
        let engine = QueryEngine::new(store_with(&vecs, None), EngineConfig::exact());
        for q in vecs.iter().take(10) {
            let direct = store.search(q, 5, &ExactScan);
            assert_eq!(engine.query(q, 5), direct);
        }
        // Batched path agrees with the single path.
        let queries: Vec<Vec<f32>> = vecs[..10].to_vec();
        let batched = engine.query_batch(&queries, 5);
        for (q, want) in queries.iter().zip(&batched) {
            assert_eq!(&engine.query(q, 5), want);
        }
    }

    #[test]
    fn probe_width_overfetch_serves_exact_prefixes() {
        let vecs = random_vecs(50, 8, 2);
        let store = store_with(&vecs, None);
        let cfg = EngineConfig { probe_width: 3, ..EngineConfig::exact() };
        let engine = QueryEngine::new(store_with(&vecs, None), cfg);
        assert_eq!(
            engine.plan(4),
            QueryPlan { fetch_k: 12, lsh: false, quantized: false, nprobe: 1 }
        );
        for q in vecs.iter().take(8) {
            assert_eq!(engine.query(q, 4), store.search(q, 4, &ExactScan));
        }
    }

    #[test]
    fn cache_hits_serve_smaller_k_as_prefix() {
        let vecs = random_vecs(40, 6, 3);
        let cfg = EngineConfig { probe_width: 2, ..EngineConfig::exact() };
        let engine = QueryEngine::new(store_with(&vecs, None), cfg);
        let ten = engine.query(&vecs[0], 10); // fetches 20, caches
        let five = engine.query(&vecs[0], 5); // prefix of the cached 20
        assert_eq!(five, ten[..5].to_vec());
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.store_queries, 1, "second query never reached storage");
        // k=12 still fits the cached fetch depth of 20 and serves as a hit;
        // k=25 exceeds it, misses, and refetches deeper.
        let twelve = engine.query(&vecs[0], 12);
        assert_eq!(twelve.len(), 12);
        assert_eq!(twelve[..10].to_vec(), ten);
        assert_eq!(engine.stats().cache_hits, 2);
        let deep = engine.query(&vecs[0], 25);
        assert_eq!(deep[..10].to_vec(), ten[..10].to_vec());
        assert_eq!(engine.stats().cache_misses, 2);
    }

    #[test]
    fn scaled_duplicate_queries_share_a_cache_entry() {
        let vecs = random_vecs(30, 6, 4);
        let engine = QueryEngine::new(store_with(&vecs, None), EngineConfig::exact());
        let a = engine.query(&vecs[3], 5);
        let double: Vec<f32> = vecs[3].iter().map(|x| x * 2.0).collect();
        let b = engine.query(&double, 5);
        assert_eq!(a, b);
        assert_eq!(engine.stats().cache_hits, 1, "scaled duplicate missed the cache");
    }

    #[test]
    fn short_corpus_results_serve_any_k() {
        // 5 vectors, fetch depth 10 → the cached list is exhaustive, so
        // every larger k is servable without refetching.
        let vecs = random_vecs(5, 4, 5);
        let engine = QueryEngine::new(store_with(&vecs, None), EngineConfig::exact());
        let all = engine.query(&vecs[0], 10);
        assert_eq!(all.len(), 5);
        assert_eq!(engine.query(&vecs[0], 40).len(), 5);
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn auto_policy_switches_on_corpus_size() {
        let vecs = random_vecs(30, 6, 6);
        let cfg = EngineConfig {
            probe: ProbePolicy::Auto { exact_cutoff: 20 },
            ..EngineConfig::default()
        };
        let lsh_engine = QueryEngine::new(store_with(&vecs, Some(LshParams::default())), cfg);
        assert!(lsh_engine.plan(5).lsh, "30 > 20 with LSH available must block");
        let small = QueryEngine::new(store_with(&vecs[..10], Some(LshParams::default())), cfg);
        assert!(!small.plan(5).lsh, "10 ≤ 20 must scan exactly");
        let no_lsh = QueryEngine::new(store_with(&vecs, None), cfg);
        assert!(!no_lsh.plan(5).lsh, "no LSH in the store, no LSH in the plan");
    }

    /// A stub tier that only answers planning introspection — lets the
    /// nprobe-resolution rules be pinned without building a real corpus.
    struct RoutedStub {
        len: usize,
        routes: usize,
        routed: bool,
    }

    impl Queryable for RoutedStub {
        fn dim(&self) -> usize {
            4
        }
        fn len(&self) -> usize {
            self.len
        }
        fn has_lsh(&self) -> bool {
            false
        }
        fn tier(&self) -> ScoringTier {
            ScoringTier::Exact
        }
        fn routes(&self) -> usize {
            self.routes
        }
        fn routed(&self) -> bool {
            self.routed
        }
        fn search_probed(
            &self,
            _q: &[f32],
            _k: usize,
            _source: &dyn CandidateSource,
            _nprobe: usize,
        ) -> Vec<Hit> {
            Vec::new()
        }
        fn search_batch_probed(
            &self,
            queries: &[Vec<f32>],
            _k: usize,
            _source: &dyn CandidateSource,
            _nprobe: usize,
        ) -> Vec<Vec<Hit>> {
            vec![Vec::new(); queries.len()]
        }
    }

    #[test]
    fn nprobe_policy_resolves_by_corpus_shape() {
        let engine = |len, routes, routed, nprobe| {
            QueryEngine::new(
                RoutedStub { len, routes, routed },
                EngineConfig { nprobe, ..EngineConfig::default() },
            )
        };
        // Auto: large routed corpora drop to routes/4; small ones, thin
        // shards, and unrouted stores keep full fan-out.
        assert_eq!(engine(10_000, 16, true, NprobePolicy::Auto).plan(10).nprobe, 4);
        assert_eq!(engine(500, 16, true, NprobePolicy::Auto).plan(10).nprobe, 16);
        assert_eq!(engine(1500, 64, true, NprobePolicy::Auto).plan(10).nprobe, 64);
        assert_eq!(engine(10_000, 16, false, NprobePolicy::Auto).plan(10).nprobe, 16);
        // All and Fixed (clamped both ways).
        assert_eq!(engine(10_000, 16, true, NprobePolicy::All).plan(10).nprobe, 16);
        assert_eq!(engine(10_000, 16, true, NprobePolicy::Fixed(3)).plan(10).nprobe, 3);
        assert_eq!(engine(10_000, 16, true, NprobePolicy::Fixed(0)).plan(10).nprobe, 1);
        assert_eq!(engine(10_000, 16, true, NprobePolicy::Fixed(99)).plan(10).nprobe, 16);
        // A flat (one-shard) store resolves to its one route.
        let flat =
            QueryEngine::new(store_with(&random_vecs(10, 4, 13), None), EngineConfig::default());
        assert_eq!(flat.plan(5).nprobe, 1);
    }

    #[test]
    fn mutation_through_store_mut_invalidates_the_cache() {
        let vecs = random_vecs(20, 6, 7);
        let mut engine = QueryEngine::new(store_with(&vecs, None), EngineConfig::exact());
        let before = engine.query(&vecs[0], 3);
        assert_eq!(before[0].id, 0);
        engine.store_mut().delete(0);
        let after = engine.query(&vecs[0], 3);
        assert!(after.iter().all(|h| h.id != 0), "stale cache served a deleted id");
        assert_eq!(engine.stats().cache_len, 1, "old entries survived the invalidation");
    }

    #[test]
    fn cache_disabled_still_answers_correctly() {
        let vecs = random_vecs(30, 6, 8);
        let store = store_with(&vecs, None);
        let engine =
            QueryEngine::new(store_with(&vecs, None), EngineConfig::exact().without_cache());
        for q in vecs.iter().take(5) {
            assert_eq!(engine.query(q, 5), store.search(q, 5, &ExactScan));
        }
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.cache_len, 0);
    }

    #[test]
    fn lru_evicts_oldest_and_bumps_on_get() {
        let plan = QueryPlan { fetch_k: 1, lsh: false, quantized: false, nprobe: 1 };
        let mut lru = LruCache::new(2);
        let ka = CacheKey::of(&[1.0], &plan);
        let kb = CacheKey::of(&[2.0], &plan);
        let kc = CacheKey::of(&[3.0], &plan);
        lru.insert(ka.clone(), 1, vec![Hit { id: 1, score: 0.5 }]);
        lru.insert(kb.clone(), 1, vec![Hit { id: 2, score: 0.5 }]);
        assert!(lru.get(&ka, 1).is_some(), "touch A so B is the LRU entry");
        lru.insert(kc.clone(), 1, vec![Hit { id: 3, score: 0.5 }]);
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&kb, 1).is_none(), "B must have been evicted");
        assert!(lru.get(&ka, 1).is_some());
        assert!(lru.get(&kc, 1).is_some());
        lru.clear();
        assert_eq!(lru.len(), 0);
        assert!(lru.get(&ka, 1).is_none());
    }

    #[test]
    fn quantized_store_flows_through_plan_and_results() {
        let vecs = random_vecs(50, 8, 12);
        let cfg = StoreConfig {
            seal_threshold: 16,
            seed: 42,
            policy: CompactionPolicy::disabled(),
            ..StoreConfig::quantized(LshParams::default())
        };
        let mut store = ShardedStore::new(8, 1, cfg);
        for v in &vecs {
            store.insert(v);
        }
        let direct = store.search(&vecs[0], 5, &ExactScan);
        // A quantized store never plans LSH blocking, whatever the policy.
        let blocked = QueryEngine::new(store.clone(), EngineConfig::lsh());
        assert!(!blocked.plan(5).lsh && blocked.plan(5).quantized);
        let engine = QueryEngine::new(store, EngineConfig::exact());
        let plan = engine.plan(5);
        assert!(plan.quantized, "plan must reflect the store's tier");
        assert!(!plan.lsh);
        // Engine results are bit-identical to direct quantized storage
        // calls, and the second query is a cache hit under the
        // tier-carrying key.
        assert_eq!(engine.query(&vecs[0], 5), direct);
        assert_eq!(engine.query(&vecs[0], 5), direct);
        assert_eq!(engine.stats().cache_hits, 1);
    }
}
