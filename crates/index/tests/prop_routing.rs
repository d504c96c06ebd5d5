//! Property tests for learned IVF routing: full-fan-out probes must be
//! bit-identical to a flat store under the same centring (hash routing
//! where there are no signatures, a one-cell router trained on the same
//! sample where there are), `nprobe = nlist/4` must keep recall@10 ≥ 0.95
//! on clustered corpora, TBIX round-trips must restore every routing
//! decision exactly, rebalancing under churn must never change a top-k bit,
//! and installing a router then rebalancing must land on the store that
//! router would have built.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use tabbin_index::{
    ExactScan, HashRouter, IvfRouter, LshParams, Router, ShardedStore, StoreConfig,
};

/// Clustered embeddings: random ±1 sign-pattern anchors with jittered
/// members — the geometry IVF cells are built to carve.
fn clustered(n_clusters: usize, per_cluster: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vecs = Vec::with_capacity(n_clusters * per_cluster);
    for _ in 0..n_clusters {
        let center: Vec<f32> =
            (0..dim).map(|_| if rng.random_range(0u32..2) == 0 { 1.0 } else { -1.0f32 }).collect();
        for _ in 0..per_cluster {
            vecs.push(
                center.iter().map(|x| x + rng.random_range(-0.1f32..0.1)).collect::<Vec<_>>(),
            );
        }
    }
    vecs
}

fn exact_cfg() -> StoreConfig {
    StoreConfig { seal_threshold: 32, lsh: None, seed: 42, ..StoreConfig::default() }
}

fn quantized_cfg() -> StoreConfig {
    StoreConfig { seal_threshold: 32, ..StoreConfig::quantized(LshParams::default_blocking()) }
}

/// An IVF-routed store over `n_shards` cells trained on the corpus itself,
/// plus the corpus inserted in id order.
fn ivf_store(vecs: &[Vec<f32>], n_shards: usize, cfg: StoreConfig) -> ShardedStore {
    let router = Arc::new(IvfRouter::train(vecs, n_shards, cfg.seed));
    let mut store = ShardedStore::with_router(vecs[0].len(), n_shards, cfg, router);
    for v in vecs {
        store.insert(v);
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property (a): with `nprobe == nlist` the probe set is every shard,
    /// and because merged top-k is shard-layout-independent, an IVF-routed
    /// store answers bit-for-bit like one flat store with the same
    /// signature centre — serial and batched. On the exact tier without
    /// LSH there are no signatures and the reference is hash routing; on
    /// the quantized tier it is a one-cell router trained on the same
    /// sample, whose mean the 8-cell router shares.
    #[test]
    fn full_fanout_is_bit_identical_to_hash_routing(seed in 0u64..10_000) {
        const N_SHARDS: usize = 8;
        let vecs = clustered(6, 20, 16, seed);
        for (cfg, name) in [(exact_cfg(), "hash"), (quantized_cfg(), "ivf")] {
            let ivf = ivf_store(&vecs, N_SHARDS, cfg);
            let hash = if name == "hash" {
                let mut hash = ShardedStore::new(16, N_SHARDS, cfg);
                for v in &vecs {
                    hash.insert(v);
                }
                hash
            } else {
                ivf_store(&vecs, 1, cfg)
            };
            prop_assert_eq!(ivf.router_name(), "ivf");
            prop_assert_eq!(hash.router_name(), name);
            let queries: Vec<Vec<f32>> = vecs.iter().step_by(7).cloned().collect();
            for q in &queries {
                let a = ivf.search_probed(q, 5, &ExactScan, N_SHARDS);
                let b = hash.search(q, 5, &ExactScan);
                prop_assert_eq!(&a, &b);
                for (x, y) in a.iter().zip(&b) {
                    prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
                }
            }
            let ab = ivf.search_batch_probed(&queries, 5, &ExactScan, N_SHARDS);
            let bb = hash.search_batch(&queries, 5, &ExactScan);
            prop_assert_eq!(ab, bb);
        }
    }

    /// Property (b): probing only `nlist / 4` cells keeps recall@10 ≥ 0.95
    /// against an exact flat scan on clustered corpora — the sublinear
    /// trade the router exists to make.
    #[test]
    fn quarter_nprobe_keeps_recall_at_10(seed in 0u64..10_000) {
        const K: usize = 10;
        const NLIST: usize = 8;
        let vecs = clustered(NLIST, 25, 32, seed);
        let mut flat = ShardedStore::new(32, 1, exact_cfg());
        for v in &vecs {
            flat.insert(v);
        }
        let ivf = ivf_store(&vecs, NLIST, exact_cfg());
        let mut hit_total = 0usize;
        let mut want_total = 0usize;
        for q in vecs.iter().step_by(5).take(32) {
            let want = flat.search(q, K, &ExactScan);
            let got = ivf.search_probed(q, K, &ExactScan, NLIST / 4);
            want_total += want.len();
            hit_total += want.iter().filter(|e| got.iter().any(|h| h.id == e.id)).count();
        }
        let recall = hit_total as f64 / want_total as f64;
        prop_assert!(recall >= 0.95, "nprobe={} recall@10 {recall:.4} below 0.95 (seed {seed})",
            NLIST / 4);
        // And the probe budget really was sublinear.
        let stats = ivf.stats();
        prop_assert!(stats.avg_shards_probed() <= (NLIST / 4) as f64 + 1e-9);
    }

    /// Property (c): a TBIX round-trip restores the router kind, every
    /// placement, and every probed top-k bit — including rows a delete /
    /// upsert cycle moved around before the save.
    #[test]
    fn tbix_v3_roundtrip_restores_routing_decisions(seed in 0u64..10_000) {
        const NLIST: usize = 4;
        let vecs = clustered(4, 18, 16, seed);
        let mut store = ivf_store(&vecs, NLIST, quantized_cfg());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31));
        for _ in 0..8 {
            store.delete(rng.random_range(0u64..vecs.len() as u64));
        }
        let up = rng.random_range(0u64..vecs.len() as u64);
        store.upsert(up, &vecs[(up as usize + 5) % vecs.len()]);

        let queries: Vec<Vec<f32>> = vecs.iter().step_by(6).cloned().collect();
        let before: Vec<_> =
            queries.iter().map(|q| store.search_probed(q, 6, &ExactScan, 2)).collect();

        let path = std::env::temp_dir()
            .join(format!("tabbin_prop_route_v3_{}_{seed}.tbix", std::process::id()));
        store.save(&path).expect("save");
        let loaded = ShardedStore::load(&path).expect("load");
        std::fs::remove_file(&path).ok();

        // Router kind and per-id placement must survive the round trip.
        prop_assert_eq!(loaded.router_name(), "ivf");
        for id in 0..vecs.len() as u64 {
            if store.contains(id) {
                prop_assert_eq!(loaded.shard_of(id), store.shard_of(id));
            }
        }
        for (q, want) in queries.iter().zip(&before) {
            let got = loaded.search_probed(q, 6, &ExactScan, 2);
            prop_assert_eq!(&got, want);
            for (a, b) in got.iter().zip(want) {
                prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    /// Property (d): installing a learned router on a hash-routed store and
    /// rebalancing under churn moves rows between shards without changing a
    /// single top-k bit, and a second rebalance is a no-op.
    #[test]
    fn rebalance_under_churn_preserves_topk_bits(
        seed in 0u64..10_000,
        n_delete in 1usize..15,
    ) {
        let vecs = clustered(4, 20, 16, seed);
        let mut store = ShardedStore::new(16, 4, exact_cfg());
        for v in &vecs {
            store.insert(v);
        }
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(13));
        for _ in 0..n_delete {
            store.delete(rng.random_range(0u64..vecs.len() as u64));
        }
        for _ in 0..4 {
            let id = rng.random_range(0u64..vecs.len() as u64);
            store.upsert(id, &vecs[(id as usize + 3) % vecs.len()]);
        }
        let queries: Vec<Vec<f32>> = vecs.iter().step_by(8).cloned().collect();
        let before = store.search_batch(&queries, 5, &ExactScan);

        store.install_router(Arc::new(IvfRouter::train(&vecs, 4, seed)));
        let moved = store.rebalance();
        prop_assert!(moved > 0, "a learned router should disagree with hashing somewhere");
        let after = store.search_batch(&queries, 5, &ExactScan);
        prop_assert_eq!(&after, &before);
        for (a, b) in after.iter().flatten().zip(before.iter().flatten()) {
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        // Rebalance must be idempotent once every row sits in its cell.
        prop_assert_eq!(store.rebalance(), 0);
    }

    /// Property (e): installing a trained router on a populated, churned,
    /// hash-routed quantized store and rebalancing re-signs every row at
    /// the router's mean and moves it to its cell — after which the store
    /// answers bitwise like a fresh store built with that router over the
    /// same live rows, at every `nprobe`.
    #[test]
    fn install_then_rebalance_equals_a_fresh_routed_store(
        seed in 0u64..10_000,
        n_mutations in 0usize..30,
    ) {
        const NLIST: usize = 4;
        let vecs = clustered(4, 20, 16, seed);
        let mut store = ShardedStore::new(16, NLIST, quantized_cfg());
        // The raw vector behind every live id, for the fresh store.
        let mut live = BTreeMap::new();
        for (id, v) in (0u64..).zip(&vecs) {
            store.upsert(id, v);
            live.insert(id, v.clone());
        }
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(29));
        for _ in 0..n_mutations {
            let id = rng.random_range(0u64..vecs.len() as u64);
            if rng.random_range(0..3) == 0 {
                store.delete(id);
                live.remove(&id);
            } else {
                let v = vecs[rng.random_range(0..vecs.len())].clone();
                store.upsert(id, &v);
                live.insert(id, v);
            }
        }
        let router = Arc::new(IvfRouter::train(&vecs, NLIST, seed));
        store.install_router(router.clone());
        store.rebalance();

        let mut fresh = ShardedStore::with_router(16, NLIST, quantized_cfg(), router);
        for (&id, v) in &live {
            fresh.upsert(id, v);
        }
        prop_assert_eq!(store.len(), fresh.len());
        for q in vecs.iter().step_by(6) {
            for nprobe in 1..=NLIST {
                for k in [1, 5, 12] {
                    let got = store.search_probed(q, k, &ExactScan, nprobe);
                    let want = fresh.search_probed(q, k, &ExactScan, nprobe);
                    prop_assert!(got == want, "nprobe {}, k {}: {:?} vs {:?}", nprobe, k, got, want);
                    for (a, b) in got.iter().zip(&want) {
                        prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
                    }
                }
            }
        }
    }

    /// Satellite pin: training is bit-deterministic — two routers trained
    /// on the same sample with the same seed carry identical centroid bits
    /// and make identical probe decisions.
    #[test]
    fn training_twice_is_bit_identical(seed in 0u64..10_000) {
        let vecs = clustered(5, 12, 16, seed);
        let a = IvfRouter::train(&vecs, 6, seed);
        let b = IvfRouter::train(&vecs, 6, seed);
        let (ca, cb) = (a.centroids().unwrap(), b.centroids().unwrap());
        for (x, y) in ca.iter().flatten().zip(cb.iter().flatten()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        for q in vecs.iter().step_by(3) {
            prop_assert_eq!(a.probe(q, 2, 6), b.probe(q, 2, 6));
            prop_assert_eq!(a.place(0, q, 6), b.place(0, q, 6));
        }
    }
}

/// The hash router ignores `nprobe` by design: it cannot rank shards, so
/// bounding the probe set would silently drop recall. Pinned here so a
/// future "optimization" doesn't change it.
#[test]
fn hash_router_always_probes_everything() {
    let router = HashRouter;
    assert_eq!(router.probe(&[1.0, 0.0], 1, 5), vec![0, 1, 2, 3, 4]);
    assert!(!router.is_learned());
}
