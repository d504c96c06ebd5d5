//! Properties of the one search core, over both scoring tiers × hash / IVF
//! routers × {1, 4, 16} shards under upsert/delete churn — what made it
//! safe to delete the second store, the separate batch path, the quantized
//! tier's bucket-subset candidate path and the per-call `nprobe` override:
//!
//! * a batch is bitwise the per-query call, below and above the fan-out
//!   threshold;
//! * a quantized store answers bitwise the same whichever candidate source
//!   the caller names, at every `nprobe`;
//! * the flat store equals the N-shard store at full fan-out — under hash
//!   routing `ShardedStore::new(dim, 1, cfg)`, under IVF routing a one-cell
//!   `IvfRouter::train` over the same sample, whose mean (and therefore
//!   whose signature thresholds) the N-cell router shares;
//! * an engine configured with `NprobePolicy::Fixed(n)` answers — and
//!   caches — exactly what `search_probed(.., n)` returns.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tabbin_index::parallel::PARALLEL_TASK_THRESHOLD;
use tabbin_index::{
    CandidateSource, EngineConfig, ExactScan, Hit, IvfRouter, LshCandidates, LshParams,
    NprobePolicy, QueryEngine, ShardedStore, StoreConfig,
};

const DIM: usize = 16;
const N: usize = 144;
const K: usize = 7;
const SHARD_COUNTS: [usize; 3] = [1, 4, 16];

/// One strategy value in `0..12` names a cell of the tier × router ×
/// shard-count grid: `(quantized, ivf, n_shards)`.
fn layout(code: usize) -> (bool, bool, usize) {
    (code % 2 == 1, code / 2 % 2 == 1, SHARD_COUNTS[code / 4])
}

/// Clustered embeddings (8 sign-pattern anchors, jittered members): enough
/// structure for IVF cells and LSH buckets to mean something, enough jitter
/// for ties to be rare but present.
fn corpus(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let anchors: Vec<Vec<f32>> = (0..8)
        .map(|_| {
            (0..DIM).map(|_| if rng.random_range(0u32..2) == 0 { 1.0 } else { -1.0f32 }).collect()
        })
        .collect();
    (0..N)
        .map(|i| anchors[i % 8].iter().map(|x| x + rng.random_range(-0.4f32..0.4)).collect())
        .collect()
}

/// Small segments (several per shard, policy compaction live) on either
/// tier; the exact tier keeps LSH on so both candidate sources are real.
fn config(quantized: bool, seed: u64) -> StoreConfig {
    let params = LshParams::default_blocking();
    let base =
        if quantized { StoreConfig::quantized(params) } else { StoreConfig::with_lsh(params) };
    StoreConfig { seal_threshold: 16, seed: seed ^ 0xc0de, ..base }
}

/// A store over `items` (ids = indices) behind a hash or corpus-trained IVF
/// router, then `n_mutations` scripted upserts and deletes — the same
/// script for the same `seed`, whatever the layout.
fn churned_store(
    items: &[Vec<f32>],
    cfg: StoreConfig,
    n_shards: usize,
    ivf: bool,
    seed: u64,
    n_mutations: usize,
) -> ShardedStore {
    let mut store = if ivf {
        let router = Arc::new(IvfRouter::train(items, n_shards, cfg.seed));
        ShardedStore::with_router(DIM, n_shards, cfg, router)
    } else {
        ShardedStore::new(DIM, n_shards, cfg)
    };
    for v in items {
        store.insert(v);
    }
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37));
    for _ in 0..n_mutations {
        let id = rng.random_range(0..N as u64);
        if rng.random_range(0..3) == 0 {
            store.delete(id);
        } else {
            store.upsert(id, &items[rng.random_range(0..N)]);
        }
    }
    store
}

/// Ids and score *bits*: `Hit`'s `==` already compares scores, this makes
/// the bitwise claim explicit (and `-0.0 != 0.0`).
fn bits(hits: &[Hit]) -> Vec<(u64, u32)> {
    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
}

fn sources() -> [(&'static str, &'static dyn CandidateSource); 2] {
    [("exact", &ExactScan), ("lsh", &LshCandidates)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `search_batch_probed(qs, k, s, n)[i]` is bitwise
    /// `search_probed(&qs[i], k, s, n)`, for a batch that stays serial and
    /// one that fans out across workers.
    #[test]
    fn batch_is_bitwise_the_per_query_call(
        seed in 0u64..10_000,
        cell in 0usize..12,
        n_mutations in 0usize..40,
    ) {
        let (quantized, ivf, n_shards) = layout(cell);
        let items = corpus(seed);
        let store = churned_store(&items, config(quantized, seed), n_shards, ivf, seed, n_mutations);
        for n_queries in [PARALLEL_TASK_THRESHOLD - 5, 3 * PARALLEL_TASK_THRESHOLD] {
            let queries: Vec<Vec<f32>> = items.iter().step_by(5).take(n_queries).cloned().collect();
            for nprobe in [1, n_shards.div_ceil(2), n_shards] {
                for (name, source) in sources() {
                    let batch = store.search_batch_probed(&queries, K, source, nprobe);
                    prop_assert_eq!(batch.len(), queries.len());
                    for (q, got) in queries.iter().zip(&batch) {
                        let want = store.search_probed(q, K, source, nprobe);
                        prop_assert!(
                            bits(got) == bits(&want),
                            "{} source, nprobe {}, batch of {}: {:?} vs {:?}",
                            name, nprobe, n_queries, got, want
                        );
                    }
                }
            }
        }
        // Full fan-out is the `nprobe = n_shards` case of the same core.
        let q = &items[3];
        prop_assert_eq!(
            bits(&store.search(q, K, &ExactScan)),
            bits(&store.search_probed(q, K, &ExactScan, n_shards))
        );
        prop_assert_eq!(
            store.search_batch(&items[..4], K, &ExactScan),
            store.search_batch_probed(&items[..4], K, &ExactScan, n_shards)
        );
    }

    /// The quantized coarse pass sweeps the probed cells' signatures whatever
    /// source is named: `&ExactScan` and `&LshCandidates` are one path.
    #[test]
    fn quantized_store_ignores_the_candidate_source(
        seed in 0u64..10_000,
        cell in 0usize..12,
        n_mutations in 0usize..40,
    ) {
        let (_, ivf, n_shards) = layout(cell);
        let items = corpus(seed);
        let store = churned_store(&items, config(true, seed), n_shards, ivf, seed, n_mutations);
        let queries: Vec<Vec<f32>> = items.iter().step_by(9).cloned().collect();
        for nprobe in 1..=n_shards {
            for q in &queries {
                let sweep = store.search_probed(q, K, &ExactScan, nprobe);
                let named_lsh = store.search_probed(q, K, &LshCandidates, nprobe);
                prop_assert!(
                    bits(&sweep) == bits(&named_lsh),
                    "nprobe {}: {:?} vs {:?}", nprobe, sweep, named_lsh
                );
            }
            prop_assert_eq!(
                store.search_batch_probed(&queries, K, &ExactScan, nprobe),
                store.search_batch_probed(&queries, K, &LshCandidates, nprobe)
            );
        }
    }

    /// The flat store is the reference: an N-shard store — hash- or
    /// IVF-routed — answers full fan-out queries bitwise like the one-shard
    /// store under the same kind of router after the same mutation script.
    /// (An IVF store signs at its router's mean, which a one-cell router
    /// trained on the same sample shares; the hash-routed flat store signs
    /// through the origin.)
    #[test]
    fn flat_store_equals_n_shard_store_at_full_fanout(
        seed in 0u64..10_000,
        cell in 4usize..12,
        n_mutations in 0usize..40,
    ) {
        let (quantized, ivf, n_shards) = layout(cell);
        let items = corpus(seed);
        let cfg = config(quantized, seed);
        let flat = churned_store(&items, cfg, 1, ivf, seed, n_mutations);
        let sharded = churned_store(&items, cfg, n_shards, ivf, seed, n_mutations);
        prop_assert_eq!(flat.len(), sharded.len());
        let queries: Vec<Vec<f32>> = items.iter().step_by(7).cloned().collect();
        for (name, source) in sources() {
            for q in &queries {
                let want = flat.search(q, K, source);
                let got = sharded.search(q, K, source);
                prop_assert!(
                    bits(&got) == bits(&want),
                    "{} source over {} shards: {:?} vs {:?}", name, n_shards, got, want
                );
            }
            prop_assert_eq!(
                sharded.search_batch(&queries, K, source),
                flat.search_batch(&queries, K, source)
            );
        }
    }

    /// `NprobePolicy::Fixed(n)` is the one way to pin a probe budget: the
    /// engine answers the `k`-prefix of
    /// `search_probed(q, fetch_k, source, n)`, plans and keys its cache on
    /// the clamped `n`, and serves repeats and smaller `k`s from that entry.
    #[test]
    fn fixed_nprobe_engine_answers_and_caches_as_search_probed(
        seed in 0u64..10_000,
        cell in 0usize..12,
        n_mutations in 0usize..40,
        nprobe in 0usize..20,
        blocked in 0u8..2,
        probe_width in 1usize..4,
    ) {
        let (quantized, ivf, n_shards) = layout(cell);
        let blocked = blocked == 1;
        let items = corpus(seed);
        let store = churned_store(&items, config(quantized, seed), n_shards, ivf, seed, n_mutations);
        let reference = store.clone();
        let ecfg = EngineConfig {
            nprobe: NprobePolicy::Fixed(nprobe),
            probe_width,
            ..if blocked { EngineConfig::lsh() } else { EngineConfig::exact() }
        };
        let engine = Arc::new(QueryEngine::new(store, ecfg));
        let plan = engine.plan(K);
        let want_nprobe = nprobe.clamp(1, n_shards);
        prop_assert_eq!(plan.nprobe, want_nprobe);
        prop_assert_eq!(plan.fetch_k, K * probe_width);
        // A quantized store never plans LSH blocking.
        prop_assert_eq!(plan.lsh, blocked && !quantized);
        let source: &dyn CandidateSource = if plan.lsh { &LshCandidates } else { &ExactScan };

        let queries: Vec<Vec<f32>> = items.iter().step_by(11).cloned().collect();
        for q in &queries {
            let mut want = reference.search_probed(q, plan.fetch_k, source, want_nprobe);
            want.truncate(K);
            let before = engine.stats();
            let miss = engine.query(q, K);
            let after_miss = engine.stats();
            // Nothing was cached yet: the first call misses and scans once.
            prop_assert!(after_miss.cache_hits == before.cache_hits, "nothing cached yet");
            prop_assert_eq!(after_miss.cache_misses - before.cache_misses, 1);
            prop_assert_eq!(after_miss.store_queries - before.store_queries, 1);
            let hit = engine.query(q, K);
            let prefix = engine.query(q, K - 2);
            let after = engine.stats();
            prop_assert!(bits(&miss) == bits(&want), "miss {:?} vs {:?}", miss, want);
            prop_assert_eq!(bits(&hit), bits(&want));
            // A smaller k is a cached prefix: both later calls are hits and
            // neither reaches the store.
            prop_assert_eq!(bits(&prefix), bits(&want[..(K - 2).min(want.len())]));
            prop_assert_eq!(after.cache_misses - before.cache_misses, 1);
            prop_assert_eq!(after.cache_hits - before.cache_hits, 2);
            prop_assert_eq!(after.store_queries - before.store_queries, 1);
        }
        // The batched entry point runs the same plan.
        let direct: Vec<Vec<Hit>> = queries.iter().map(|q| engine.query(q, K)).collect();
        prop_assert_eq!(&engine.query_batch(&queries, K), &direct);
        // Every query in the two loops probed exactly the fixed budget
        // (under a hash router the bound is ignored: full fan-out).
        let stats = engine.store().stats();
        let per_query = if ivf { want_nprobe } else { n_shards };
        prop_assert_eq!(stats.shards_probed, stats.queries * per_query as u64);
    }
}
