//! Property tests for the retrieval layer: LSH-accelerated top-k must track
//! exact scan closely, the mutation lifecycle must never change what a
//! query returns, and the sharded tier must be indistinguishable from one
//! flat store — routing and merging are implementation details.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabbin_index::{
    CandidateSource, CompactionPolicy, EngineConfig, ExactScan, LshCandidates, LshParams,
    QueryEngine, ShardedStore, StoreConfig,
};

/// Random centered embeddings: draw uniform vectors, then subtract the mean
/// so the corpus is isotropic around the origin — the shape hyperplane LSH
/// actually faces after `tabbin_eval::center`.
fn centered_random(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items: Vec<Vec<f32>> =
        (0..n).map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect();
    let mut mean = vec![0.0f32; dim];
    for v in &items {
        for (m, x) in mean.iter_mut().zip(v) {
            *m += x;
        }
    }
    for m in &mut mean {
        *m /= n as f32;
    }
    for v in &mut items {
        for (x, m) in v.iter_mut().zip(&mean) {
            *x -= m;
        }
    }
    items
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Recall@10 of LSH-blocked top-k against exact scan stays ≥ 0.9 on
    /// random centered embeddings — uniform data is LSH's worst case (no
    /// cluster structure to exploit), so this bounds realistic corpora from
    /// below. The banding (16 bands × 3 rows) is deliberately recall-heavy.
    #[test]
    fn lsh_topk_recall_at_10_beats_090(seed in 0u64..10_000) {
        const N: usize = 200;
        const DIM: usize = 16;
        const K: usize = 10;
        let items = centered_random(N, DIM, seed);
        let cfg = StoreConfig {
            seal_threshold: 64, // 200 rows => 4 segments, exercising the fan-out
            lsh: Some(LshParams { bands: 16, rows_per_band: 3 }),
            seed: seed ^ 0xdead_beef,
            policy: CompactionPolicy::default(),
            ..StoreConfig::default()
        };
        let mut store = ShardedStore::new(DIM, 1, cfg);
        for v in &items {
            store.insert(v);
        }
        let mut hit_total = 0usize;
        let mut want_total = 0usize;
        for q in items.iter().take(32) {
            let exact = store.search(q, K, &ExactScan);
            let lsh = store.search(q, K, &LshCandidates);
            want_total += exact.len();
            for e in &exact {
                if lsh.iter().any(|h| h.id == e.id) {
                    hit_total += 1;
                }
            }
        }
        let recall = hit_total as f64 / want_total as f64;
        prop_assert!(recall >= 0.9, "recall@10 {recall:.3} below 0.9 (seed {seed})");
    }

    /// Upserts and deletes never corrupt retrieval: after arbitrary
    /// mutations, querying a live id's own vector returns that id first,
    /// and deleted ids never surface.
    #[test]
    fn mutations_preserve_retrieval_invariants(
        seed in 0u64..10_000,
        n_delete in 1usize..30,
    ) {
        const N: usize = 60;
        const DIM: usize = 12;
        let items = centered_random(N, DIM, seed);
        let cfg = StoreConfig {
            seal_threshold: 16,
            lsh: Some(LshParams::default()),
            seed,
            policy: CompactionPolicy::default(),
            ..StoreConfig::default()
        };
        let mut store = ShardedStore::new(DIM, 1, cfg);
        for v in &items {
            store.insert(v);
        }
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
        let mut deleted = Vec::new();
        for _ in 0..n_delete {
            let id = rng.random_range(0..N as u64);
            if store.delete(id) {
                deleted.push(id);
            }
        }
        for (i, v) in items.iter().enumerate() {
            let id = i as u64;
            let hits = store.search(v, 5, &ExactScan);
            if deleted.contains(&id) {
                prop_assert!(hits.iter().all(|h| h.id != id), "deleted id {id} surfaced");
            } else {
                prop_assert!(hits[0].id == id, "live id {} not its own top hit", id);
            }
        }
        // Compaction is invisible to queries.
        let before = store.search_batch(&items[..10], 5, &LshCandidates);
        store.compact();
        prop_assert_eq!(store.search_batch(&items[..10], 5, &LshCandidates), before);
    }

    /// Sharding is invisible: an N-shard store answers every query exactly
    /// like the flat `ShardedStore::new(dim, 1, cfg)` over the same corpus — same ids, same
    /// score bits — under both candidate sources and through arbitrary
    /// upsert/delete mutations. This is the routing + k-way-merge
    /// equivalence the sharded tier is built on (ids are unique across
    /// shards, ties break by id, and shards share LSH hyperplanes, so the
    /// blocked candidate union is partition-independent).
    #[test]
    fn sharded_topk_equals_single_store_topk(
        seed in 0u64..10_000,
        n_shards in 1usize..6,
        lsh_bit in 0u8..2,
        n_mutations in 0usize..25,
    ) {
        const N: usize = 90;
        const DIM: usize = 12;
        let use_lsh = lsh_bit == 1;
        let items = centered_random(N, DIM, seed);
        let cfg = StoreConfig {
            seal_threshold: 16,
            lsh: use_lsh.then_some(LshParams::default()),
            seed: seed ^ 0x5eed,
            policy: CompactionPolicy::default(),
            ..StoreConfig::default()
        };
        let mut single = ShardedStore::new(DIM, 1, cfg);
        let mut sharded = ShardedStore::new(DIM, n_shards, cfg);
        for v in &items {
            single.insert(v);
            sharded.insert(v);
        }
        // The same mutation script drives both stores (policy compactions
        // fire independently per store/shard — they must not matter).
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(97));
        for _ in 0..n_mutations {
            let id = rng.random_range(0..N as u64);
            if rng.random_range(0..2) == 0 {
                let v = &items[rng.random_range(0..N)];
                single.upsert(id, v);
                sharded.upsert(id, v);
            } else {
                prop_assert_eq!(single.delete(id), sharded.delete(id));
            }
        }
        prop_assert_eq!(single.len(), sharded.len());
        let source: &dyn CandidateSource = if use_lsh { &LshCandidates } else { &ExactScan };
        let queries = &items[..16];
        let a = single.search_batch(queries, 10, source);
        let b = sharded.search_batch(queries, 10, source);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!(x == y, "query diverged (lsh={use_lsh}): {x:?} vs {y:?}");
            for (hx, hy) in x.iter().zip(y) {
                prop_assert_eq!(hx.score.to_bits(), hy.score.to_bits());
            }
        }
        // Serial and batched sharded paths agree too.
        for (q, want) in queries.iter().zip(&b) {
            prop_assert_eq!(&sharded.search(q, 10, source), want);
        }
    }

    /// A mutated multi-shard store survives a binary snapshot round-trip
    /// byte-identically: save → load replays every query with the same ids
    /// and score bits, and keeps allocating fresh ids past the old counter.
    #[test]
    fn sharded_snapshot_roundtrip_replays_queries(
        seed in 0u64..10_000,
        n_shards in 2usize..6,
    ) {
        const N: usize = 70;
        const DIM: usize = 10;
        let items = centered_random(N, DIM, seed);
        let cfg = StoreConfig {
            seal_threshold: 16,
            lsh: Some(LshParams::default()),
            seed: seed ^ 0xf11e,
            policy: CompactionPolicy::default(),
            ..StoreConfig::default()
        };
        let mut store = ShardedStore::new(DIM, n_shards, cfg);
        for v in &items {
            store.insert(v);
        }
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(131));
        for _ in 0..12 {
            let id = rng.random_range(0..N as u64);
            if rng.random_range(0..2) == 0 {
                store.upsert(id, &items[rng.random_range(0..N)]);
            } else {
                store.delete(id);
            }
        }
        let queries = &items[..12];
        let before = store.search_batch(queries, 8, &LshCandidates);

        let path = std::env::temp_dir().join(format!(
            "tabbin_prop_sharded_{}_{}_{}.tbix",
            std::process::id(),
            seed,
            n_shards
        ));
        store.save(&path).expect("save");
        let loaded = ShardedStore::load(&path).expect("load");
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(loaded.n_shards(), n_shards);
        prop_assert_eq!(loaded.len(), store.len());
        let after = loaded.search_batch(queries, 8, &LshCandidates);
        for (x, y) in before.iter().flatten().zip(after.iter().flatten()) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        let mut loaded = loaded;
        let fresh = loaded.insert(&items[0]);
        prop_assert!(fresh >= N as u64, "fresh id {} collided below {}", fresh, N);
    }

    /// The query-execution layer is result-invisible: an engine with
    /// caching and ef-style over-fetch returns exactly the `k`-prefix of a
    /// direct storage scan under the same candidate source — on first
    /// sight (cache miss), on repeat (cache hit), and at a smaller `k`
    /// served as a cached prefix.
    #[test]
    fn engine_is_bit_identical_to_direct_storage(
        seed in 0u64..10_000,
        probe_width in 1usize..4,
        lsh_bit in 0u8..2,
    ) {
        const N: usize = 80;
        const DIM: usize = 12;
        const K: usize = 7;
        let use_lsh = lsh_bit == 1;
        let items = centered_random(N, DIM, seed);
        let cfg = StoreConfig {
            seal_threshold: 16,
            lsh: use_lsh.then_some(LshParams::default()),
            seed: seed ^ 0xe9e,
            policy: CompactionPolicy::default(),
            ..StoreConfig::default()
        };
        let mut store = ShardedStore::new(DIM, 1, cfg);
        let mut shadow = ShardedStore::new(DIM, 1, cfg);
        for v in &items {
            store.insert(v);
            shadow.insert(v);
        }
        let ecfg = EngineConfig {
            probe_width,
            ..if use_lsh { EngineConfig::lsh() } else { EngineConfig::exact() }
        };
        let engine = QueryEngine::new(store, ecfg);
        let source: &dyn CandidateSource = if use_lsh { &LshCandidates } else { &ExactScan };
        for q in items.iter().take(12) {
            let want = shadow.search(q, K, source);
            let miss = engine.query(q, K);
            let hit = engine.query(q, K);
            let prefix = engine.query(q, K - 2);
            prop_assert!(miss == want, "cache-miss path diverged: {miss:?} vs {want:?}");
            prop_assert!(hit == want, "cache-hit path diverged: {hit:?} vs {want:?}");
            prop_assert!(prefix == want[..K - 2], "cached prefix diverged: {prefix:?}");
            for (a, b) in miss.iter().zip(&want) {
                prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
        let stats = engine.stats();
        prop_assert!(stats.cache_hits >= 24, "prefix requests missed: {:?}", stats);
    }
}
