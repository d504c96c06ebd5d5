//! Property tests for the quantized scoring tier: the coarse sign-bit pass
//! plus f32 re-rank must keep recall@10 ≥ 0.99 on clustered corpora, stay
//! bit-identical across shard layouts and mutations, and survive snapshot
//! round-trips.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabbin_index::wal::crc32;
use tabbin_index::{
    ExactScan, LshCandidates, LshParams, ScoringTier, ShardedStore, StoreConfig,
    DEFAULT_RERANK_FACTOR, SNAPSHOT_VERSION,
};

/// Clustered embeddings: `n_clusters` random ±1 sign-pattern centers with
/// `per_cluster` jittered members each — the shape real embedding corpora
/// have, and the one sign-bit signatures are built for. Cluster sizes stay
/// below `coarse_r(10, 4) = 40`, so the coarse pass retains every
/// same-cluster neighbor and recall losses can only come from cross-cluster
/// ties.
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

/// Uniform centered embeddings, for the bit-identity properties where
/// recall does not matter but adversarial (structure-free) data does.
fn centered_random(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect()
}

fn quantized_cfg() -> StoreConfig {
    StoreConfig { seal_threshold: 32, ..StoreConfig::quantized(LshParams::default_blocking()) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// ISSUE 6 acceptance pin: with 128-bit signatures
    /// ([`LshParams::default_blocking`]) and the default re-rank factor,
    /// quantized top-10 recovers ≥ 0.99 of the exact-tier top-10 on
    /// clustered corpora.
    #[test]
    fn quantized_recall_at_10_beats_099(seed in 0u64..10_000) {
        const K: usize = 10;
        let vecs = clustered(6, 25, 32, seed);
        let params = LshParams::default_blocking();
        let mut exact = ShardedStore::new(32, 1, StoreConfig::with_lsh(params));
        let mut quant = ShardedStore::new(32, 1, quantized_cfg());
        for v in &vecs {
            exact.insert(v);
            quant.insert(v);
        }
        let mut hit_total = 0usize;
        let mut want_total = 0usize;
        for q in vecs.iter().step_by(4).take(32) {
            let want = exact.search(q, K, &ExactScan);
            let got = quant.search(q, K, &ExactScan);
            want_total += want.len();
            for e in &want {
                if got.iter().any(|h| h.id == e.id) {
                    hit_total += 1;
                }
            }
        }
        let recall = hit_total as f64 / want_total as f64;
        prop_assert!(recall >= 0.99, "quantized recall@10 {recall:.4} below 0.99 (seed {seed})");
    }

    /// Shard layout is invisible under the quantized tier: the global
    /// coarse top-R makes a 4-shard store answer bit-for-bit like one flat
    /// store, through arbitrary deletes and upserts, over both candidate
    /// sources, serial and batched.
    #[test]
    fn quantized_sharded_is_bit_identical_to_flat(
        seed in 0u64..10_000,
        n_delete in 1usize..20,
    ) {
        const N: usize = 80;
        const DIM: usize = 16;
        let vecs = centered_random(N, DIM, seed);
        let mut flat = ShardedStore::new(DIM, 1, quantized_cfg());
        let mut sharded = ShardedStore::new(DIM, 4, quantized_cfg());
        for v in &vecs {
            flat.insert(v);
            sharded.insert(v);
        }
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(17));
        for _ in 0..n_delete {
            let id = rng.random_range(0u64..N as u64);
            flat.delete(id);
            sharded.delete(id);
        }
        let up = rng.random_range(0u64..N as u64);
        flat.upsert(up, &vecs[(up as usize + 7) % N]);
        sharded.upsert(up, &vecs[(up as usize + 7) % N]);

        let queries: Vec<Vec<f32>> = vecs.iter().step_by(9).cloned().collect();
        for q in &queries {
            prop_assert_eq!(flat.search(q, 5, &ExactScan), sharded.search(q, 5, &ExactScan));
            prop_assert_eq!(
                flat.search(q, 5, &LshCandidates),
                sharded.search(q, 5, &LshCandidates)
            );
        }
        let fb = flat.search_batch(&queries, 5, &ExactScan);
        let sb = sharded.search_batch(&queries, 5, &ExactScan);
        for (a, b) in fb.iter().flatten().zip(sb.iter().flatten()) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }
}

/// A quantized sharded store survives a TBIX round-trip: the tier, the
/// packed signatures, and every score bit replay identically after
/// save/load.
#[test]
fn tbix_v2_quantized_sharded_roundtrip_replays_bit_identically() {
    let vecs = clustered(4, 20, 16, 303);
    let mut store = ShardedStore::new(16, 4, quantized_cfg());
    for v in &vecs {
        store.insert(v);
    }
    for id in [2u64, 31, 64] {
        store.delete(id);
    }
    let queries: Vec<Vec<f32>> = vecs.iter().step_by(5).cloned().collect();
    let before = store.search_batch(&queries, 6, &ExactScan);

    let path =
        std::env::temp_dir().join(format!("tabbin_prop_quant_v2_{}.tbix", std::process::id()));
    store.save(&path).expect("save");
    let loaded = ShardedStore::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    assert_eq!(
        loaded.tier(),
        ScoringTier::Quantized { rerank_factor: DEFAULT_RERANK_FACTOR },
        "tier must persist through TBIX"
    );
    let after = loaded.search_batch(&queries, 6, &ExactScan);
    assert_eq!(after, before);
    for (a, b) in after.iter().flatten().zip(before.iter().flatten()) {
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "replay must be bit-identical");
    }
}

/// Corrupt signature widths are rejected at the snapshot boundary with a
/// diagnosable error, not a panic deep in the Hamming kernel: a well-formed
/// (CRC-valid) v4 file whose header claims 7 signature words per entry
/// where 128-bit signatures pack into 2.
#[test]
fn from_snapshot_rejects_signature_width_mismatch() {
    let cfg = quantized_cfg();
    let lsh = cfg.lsh.expect("quantized config has LSH");
    let vecs = centered_random(12, 8, 505);
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"TBIX");
    bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes()); // one shard
    bytes.extend_from_slice(&8u32.to_le_bytes()); // dim
    bytes.extend_from_slice(&(cfg.seal_threshold as u64).to_le_bytes());
    bytes.extend_from_slice(&cfg.seed.to_le_bytes());
    bytes.push(1);
    bytes.extend_from_slice(&(lsh.bands as u32).to_le_bytes());
    bytes.extend_from_slice(&(lsh.rows_per_band as u32).to_le_bytes());
    bytes.extend_from_slice(&(DEFAULT_RERANK_FACTOR as u64).to_le_bytes());
    bytes.extend_from_slice(&7u32.to_le_bytes()); // wrong: 128 bits are 2 words
    bytes.push(0); // no router section
    bytes.extend_from_slice(&(vecs.len() as u64).to_le_bytes()); // next_id
    bytes.extend_from_slice(&(vecs.len() as u64).to_le_bytes());
    for (id, v) in vecs.iter().enumerate() {
        bytes.extend_from_slice(&(id as u64).to_le_bytes());
        for x in v {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        bytes.extend_from_slice(&[0u8; 7 * 8]);
    }
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    let path =
        std::env::temp_dir().join(format!("tabbin_prop_quant_width_{}.tbix", std::process::id()));
    std::fs::write(&path, &bytes).expect("write crafted file");
    let err = ShardedStore::load(&path).expect_err("wrong width must be rejected");
    std::fs::remove_file(&path).ok();
    assert!(err.to_string().contains("signature width mismatch"), "unexpected error: {err}");
}
