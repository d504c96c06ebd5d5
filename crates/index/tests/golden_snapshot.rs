//! The snapshot compatibility pin: `tests/data/golden-v4.tbix` is a small
//! checked-in `TBIX` v4 file (IVF-routed, quantized, 4 shards, a few dozen
//! rows) written once by the `#[ignore]`d generator below. Every build must
//! load it, answer the pinned top-k from it (ids and score bits) and re-save
//! it byte for byte; anything that is not `TBIX` v4 — the retired v1 / v2 /
//! v3 layouts, a JSON body, a truncated or bit-flipped file — must come back
//! as an `io::Error`, never a panic.
//!
//! The pinned scores are build-independent by construction: every row and
//! query has exactly four ±1 components, so normalized entries are ±0.5 and
//! every dot product is a multiple of 0.25 — exact in `f32` under any
//! summation order, with or without FMA. The pinned query runs at full
//! fan-out, so centroid rounding cannot move it either.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use tabbin_index::lsh::random_planes;
use tabbin_index::wal::crc32;
use tabbin_index::{
    ExactScan, IvfRouter, LshCandidates, LshParams, ScoringTier, ShardedStore, StoreConfig,
    DEFAULT_RERANK_FACTOR, SNAPSHOT_VERSION,
};

const DIM: usize = 16;
const N_SHARDS: usize = 4;
const N_ROWS: usize = 48;
const K: usize = 5;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden-v4.tbix")
}

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tabbin_golden_{tag}_{}.tbix", std::process::id()))
}

/// Row `i` of the golden corpus: four ±1 components picked by a fixed
/// multiplicative hash — no RNG, so the corpus is the same text forever.
fn row(i: usize) -> Vec<f32> {
    let mut v = vec![0.0f32; DIM];
    let mut h = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut placed = 0;
    while placed < 4 {
        h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let slot = (h >> 33) as usize % DIM;
        if v[slot] == 0.0 {
            v[slot] = if h >> 63 == 0 { 1.0 } else { -1.0 };
            placed += 1;
        }
    }
    v
}

/// The pinned query: row 7 with one of its four components moved.
fn query() -> Vec<f32> {
    let base = row(7);
    let drop = base.iter().position(|x| *x != 0.0).expect("four nonzero components");
    let add = base.iter().position(|x| *x == 0.0).expect("twelve zero components");
    let mut q = base;
    q[drop] = 0.0;
    q[add] = 1.0;
    q
}

/// What `golden-v4.tbix` answers for [`query`] at full fan-out, `K` hits:
/// `(id, score bits)`, printed by the generator.
const PINNED: [(u64, u32); K] = [
    (7, 0.75f32.to_bits()),
    (10, 0.5f32.to_bits()),
    (16, 0.5f32.to_bits()),
    (26, 0.5f32.to_bits()),
    (28, 0.5f32.to_bits()),
];

/// What the file holds, for the shape checks.
const PINNED_LEN: usize = 45;

fn golden_config() -> StoreConfig {
    StoreConfig { seal_threshold: 8, ..StoreConfig::quantized(LshParams::default_blocking()) }
}

/// Writes `tests/data/golden-v4.tbix`. Run once, by hand, when the format
/// version changes (and paste the printed pins above):
/// `cargo test -p tabbin-index --test golden_snapshot -- --ignored --nocapture`
#[test]
#[ignore = "generator: rewrites the checked-in golden file"]
fn write_golden_v4() {
    let cfg = golden_config();
    let rows: Vec<Vec<f32>> = (0..N_ROWS).map(row).collect();
    let router = Arc::new(IvfRouter::train(&rows, N_SHARDS, cfg.seed));
    let mut store = ShardedStore::with_router(DIM, N_SHARDS, cfg, router);
    for r in &rows {
        store.insert(r);
    }
    // Tombstones and a moved row, so the saved order is not insert order.
    for id in [3u64, 20, 41] {
        assert!(store.delete(id));
    }
    store.upsert(11, &rows[30]);
    // The query's signature must not hinge on rounding: every hyperplane
    // projection stays well clear of zero.
    let lsh = cfg.lsh.expect("quantized config has LSH");
    let planes = random_planes(lsh.bands * lsh.rows_per_band, DIM, cfg.seed);
    let nq: Vec<f32> = query().iter().map(|x| x * 0.5).collect();
    for p in &planes {
        let margin: f32 = p.iter().zip(&nq).map(|(a, b)| a * b).sum();
        assert!(margin.abs() > 1e-4, "pick another query: projection {margin} is a near-tie");
    }
    std::fs::create_dir_all(golden_path().parent().expect("data dir")).expect("mkdir");
    store.save(&golden_path()).expect("save golden file");
    let hits = store.search(&query(), K, &ExactScan);
    println!("const PINNED_LEN: usize = {};", store.len());
    println!(
        "const PINNED: [(u64, u32); K] = {:?};",
        hits.iter().map(|h| (h.id, h.score.to_bits())).collect::<Vec<_>>()
    );
}

#[test]
fn golden_v4_loads_answers_the_pinned_topk_and_resaves_byte_identical() {
    let golden = std::fs::read(golden_path()).expect("checked-in golden file");
    assert_eq!(&golden[..4], b"TBIX");
    assert_eq!(golden[4..8], SNAPSHOT_VERSION.to_le_bytes());
    let store = ShardedStore::load(&golden_path()).expect("golden file must load");
    assert_eq!(store.dim(), DIM);
    assert_eq!(store.n_shards(), N_SHARDS);
    assert_eq!(store.len(), PINNED_LEN);
    assert_eq!(store.router_name(), "ivf");
    assert_eq!(store.tier(), ScoringTier::Quantized { rerank_factor: DEFAULT_RERANK_FACTOR });
    assert!(!store.contains(3) && !store.contains(20) && !store.contains(41));

    for source in [&ExactScan as &dyn tabbin_index::CandidateSource, &LshCandidates] {
        let hits = store.search(&query(), K, source);
        let got: Vec<(u64, u32)> = hits.iter().map(|h| (h.id, h.score.to_bits())).collect();
        assert_eq!(got, PINNED, "the golden file answers differently");
    }
    // Bounded probes stay inside the pinned answer's score order.
    let probed = store.search_probed(&query(), K, &ExactScan, 2);
    assert!(!probed.is_empty() && probed.windows(2).all(|w| w[0].score >= w[1].score));

    let path = scratch_path("resave");
    store.save(&path).expect("re-save");
    let resaved = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    assert!(resaved == golden, "re-saving the loaded golden store changed its bytes");
}

/// Loads `bytes` as a snapshot file and demands an error mentioning `want`.
fn refused(tag: &str, bytes: &[u8], want: &str) {
    let path = scratch_path(tag);
    std::fs::write(&path, bytes).expect("write crafted file");
    let result = ShardedStore::load(&path);
    std::fs::remove_file(&path).ok();
    let err = match result {
        Ok(_) => panic!("{tag}: a file that is not TBIX v4 loaded"),
        Err(err) => err,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}: {err}");
    assert!(err.to_string().contains(want), "{tag}: unhelpful error: {err}");
}

#[test]
fn older_versions_json_truncation_and_bit_flips_are_io_errors() {
    // Hand-built headers in the layouts earlier builds wrote: v1 (vectors
    // only), v2 (+ re-rank factor and signature width), v3 (+ router flag);
    // none carried a CRC footer. One 2-dim entry each, on two shards.
    for version in [1u32, 2, 3] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"TBIX");
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes()); // shards
        bytes.extend_from_slice(&2u32.to_le_bytes()); // dim
        bytes.extend_from_slice(&16u64.to_le_bytes()); // seal_threshold
        bytes.extend_from_slice(&7u64.to_le_bytes()); // seed
        bytes.push(0); // no LSH
        if version >= 2 {
            bytes.extend_from_slice(&0u64.to_le_bytes()); // rerank: exact tier
            bytes.extend_from_slice(&0u32.to_le_bytes()); // no packed signatures
        }
        if version >= 3 {
            bytes.push(0); // no router section
        }
        bytes.extend_from_slice(&1u64.to_le_bytes()); // next_id
        bytes.extend_from_slice(&1u64.to_le_bytes()); // entries
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        bytes.extend_from_slice(&0.0f32.to_le_bytes());
        refused(&format!("v{version}"), &bytes, "unsupported snapshot version");
        // A v4-style footer does not make an old version acceptable.
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        refused(&format!("v{version}_crc"), &bytes, "unsupported snapshot version");
    }
    refused("v5", b"TBIX\x05\x00\x00\x00rest", "unsupported snapshot version");

    // The JSON codec earlier builds also read.
    let json = br#"{"version":1,"dim":2,"seed":7,"seal_threshold":16,"lsh":null,"next_id":1,"entries":[[0,[1.0,0.0]]]}"#;
    refused("json", json, "not a TBIX snapshot");
    refused("empty", b"", "not a TBIX snapshot");

    // Every proper prefix of the golden file is refused...
    let golden = std::fs::read(golden_path()).expect("checked-in golden file");
    for cut in [4, 7, 8, 11, 12, 40, golden.len() / 2, golden.len() - 4, golden.len() - 1] {
        let path = scratch_path(&format!("cut{cut}"));
        std::fs::write(&path, &golden[..cut]).expect("write truncated file");
        let result = ShardedStore::load(&path);
        std::fs::remove_file(&path).ok();
        assert!(result.is_err(), "a {cut}-byte prefix of the golden file loaded");
    }
    // ...and so is a flipped bit anywhere past the version field, by the
    // CRC footer (a flip inside the magic or version reads as another
    // format and is refused as such).
    for pos in [8, 9, 30, golden.len() / 3, golden.len() / 2, golden.len() - 5, golden.len() - 1] {
        let mut bad = golden.clone();
        bad[pos] ^= 0x04;
        refused(&format!("flip{pos}"), &bad, "CRC mismatch");
    }
    for pos in 0..8 {
        let mut bad = golden.clone();
        bad[pos] ^= 0x04;
        let path = scratch_path(&format!("flip{pos}"));
        std::fs::write(&path, &bad).expect("write flipped file");
        let result = ShardedStore::load(&path);
        std::fs::remove_file(&path).ok();
        assert!(result.is_err(), "a flipped bit in byte {pos} of the header loaded");
    }
}
