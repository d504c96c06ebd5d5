//! Retrieval-layer micro-benchmark: `tabbin_index` batched top-k against
//! the pre-store baseline (a scalar cosine scan per query), for the flat
//! store (`ShardedStore::new(DIM, 1, ..)`) and a 4-shard one — each served
//! through the `QueryEngine` (`Queryable`-trait) path the whole workspace
//! uses. The engines run cache-off and at probe
//! width 1, so the figures measure storage, not result reuse; a separate
//! `cache` entry reports the LRU hit path on repeated queries.
//!
//! The quantized scoring tier is measured alongside: the same corpus behind
//! `ScoringTier::Quantized`: every query is a full Hamming pass over the
//! packed sign-bit signatures (the popcount kernel) and a counting select
//! of the closest `rerank_factor × k`, followed by an f32 re-rank of them —
//! the tier's headline trade, a scan over ~64×-denser data.
//!
//! The IVF-routed tier is the headline of the routing PR: the same corpus
//! behind a k-means coarse quantizer (`IvfRouter`, 16 cells) with the
//! engine's Auto `nprobe` policy bounding each query to its 4 nearest
//! cells — timed pairwise against a hash-routed quantized store of the
//! *same* shard count (hash routing forces full fan-out, so the pair
//! isolates what learned placement buys at fixed topology) and asserted
//! ≥ 1.5× it at recall@10 ≥ 0.95 (2.0–2.7× with the counting select).
//!
//! Besides the criterion samples, this writes `BENCH_index.json` at the
//! workspace root — QPS for every path, the speedup, recall@10 against
//! exact scan (including the quantized tier's, pinned ≥ 0.99, and the
//! routed tier's, pinned ≥ 0.95 with `shards_probed < nlist`), and (for
//! the sharded tier) policy-driven compaction pause p50/p99 under
//! steady-state overwrite churn — so successive PRs accumulate a perf
//! trajectory. The printed figures are the written
//! figures: both come from the same formatted strings, so the log and the
//! JSON cannot drift.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tabbin_eval::cosine;
use tabbin_index::{
    CompactionPolicy, DurabilityPolicy, EngineConfig, IvfRouter, LshParams, NprobePolicy,
    QueryEngine, ShardedStore, StoreConfig, DEFAULT_RERANK_FACTOR,
};

/// Corpus size / dimension of the headline measurement.
const N_VECTORS: usize = 10_000;
const DIM: usize = 128;
const K: usize = 10;
/// Queries per timed batch.
const N_QUERIES: usize = 256;
/// Shards in the sharded tier's measurement.
const N_SHARDS: usize = 4;
/// Cells (= shards) of the IVF-routed measurement; at 10k rows the
/// engine's Auto policy resolves `nprobe = NLIST / 4`.
const NLIST: usize = 16;

/// Clustered corpus: 250 topic directions with jittered members — the shape
/// table/column embeddings actually have (tables cluster by topic), and the
/// regime both LSH banding and sign-bit quantization are tuned for. Topic
/// population (10k / 250 = 40 rows) stays within the quantized tier's
/// re-rank budget (`rerank_factor × k` = 40 at k = 10), the regime where a
/// sign-bit coarse pass is exact-by-construction: every same-topic row fits
/// in the coarse set, so the f32 re-rank sees the full true top-k.
fn clustered_corpus(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_clusters = 250;
    let centers: Vec<Vec<f32>> = (0..n_clusters)
        .map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect())
        .collect();
    (0..n)
        .map(|i| {
            let c = &centers[i % n_clusters];
            c.iter().map(|x| x + rng.random_range(-0.15f32..0.15)).collect()
        })
        .collect()
}

/// The pre-store baseline: one full scalar-cosine scan plus top-k selection
/// per query, exactly what `rank_by_cosine` callers paid before the
/// retrieval layer existed.
fn exact_scan_topk(corpus: &[Vec<f32>], q: &[f32], k: usize) -> Vec<(usize, f64)> {
    let mut scored: Vec<(usize, f64)> =
        corpus.iter().enumerate().map(|(i, v)| (i, cosine(q, v))).collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// Recall of `hits` (per query) against precomputed exact top-k lists —
/// the exact baseline depends only on (corpus, queries), so callers
/// compute it once and score every tier against the same lists.
fn recall_vs_exact(exact_lists: &[Vec<(usize, f64)>], hits: &[Vec<tabbin_index::Hit>]) -> f64 {
    let mut hit = 0usize;
    let mut want = 0usize;
    for (exact, got) in exact_lists.iter().zip(hits) {
        want += exact.len();
        hit += exact.iter().filter(|(i, _)| got.iter().any(|h| h.id == *i as u64)).count();
    }
    hit as f64 / want as f64
}

/// The `q`-quantile of `samples` (nearest-rank), in milliseconds.
fn quantile_ms(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx] * 1e3
}

fn bench_index(c: &mut Criterion) {
    let corpus = clustered_corpus(N_VECTORS, DIM, 17);
    let queries: Vec<Vec<f32>> = corpus.iter().take(N_QUERIES).cloned().collect();

    let cfg = StoreConfig::with_lsh(LshParams::default_blocking());
    let mut store = ShardedStore::new(DIM, 1, cfg);
    for v in &corpus {
        store.insert(v);
    }
    assert_eq!(store.len(), N_VECTORS);
    assert!(
        store.stats().totals().sealed_segments >= 2,
        "10k rows should span several sealed segments"
    );

    // The sharded tier over the same corpus and blocking geometry.
    let mut sharded = ShardedStore::new(DIM, N_SHARDS, cfg);
    for v in &corpus {
        sharded.insert(v);
    }
    assert_eq!(sharded.len(), N_VECTORS);
    assert!(sharded.stats().shards.iter().all(|s| s.live > 0), "hash routing left a shard empty");

    // The quantized tier over the same corpus and signature geometry: full
    // coarse sign-bit scans, so its figure measures the packed popcount
    // kernel plus f32 re-rank — a full scan over ~64×-denser data.
    let qcfg = StoreConfig::quantized(LshParams::default_blocking());
    let mut quant = ShardedStore::new(DIM, 1, qcfg);
    for v in &corpus {
        quant.insert(v);
    }
    let mut quant_sharded = ShardedStore::new(DIM, N_SHARDS, qcfg);
    for v in &corpus {
        quant_sharded.insert(v);
    }

    // The IVF-routed tier: a k-means coarse quantizer trained on an
    // every-4th corpus sample routes each row to its nearest-centroid
    // shard, and queries probe only the `nprobe` nearest cells — the same
    // quantized scoring inside each probed shard, over a quarter of the
    // corpus per query.
    let sample: Vec<Vec<f32>> = corpus.iter().step_by(4).cloned().collect();
    let router = Arc::new(IvfRouter::train(&sample, NLIST, qcfg.seed));
    let mut routed = ShardedStore::with_router(DIM, NLIST, qcfg, router);
    for v in &corpus {
        routed.insert(v);
    }
    assert_eq!(routed.len(), N_VECTORS);
    // Its hash-routed twin: same shard count, same scoring tier, but ids
    // spread by splitmix64 — so every query must fan to all 16 shards.
    // This is the routed tier's paired baseline: the only variable between
    // the two stores is the router.
    let mut hash16 = ShardedStore::new(DIM, NLIST, qcfg);
    for v in &corpus {
        hash16.insert(v);
    }
    assert_eq!(hash16.len(), N_VECTORS);

    // All tiers serve through the `QueryEngine` (the `Queryable`-trait
    // path every consumer uses). Cache off and probe width 1: these rounds
    // measure storage scans, not result reuse.
    let storage_path = EngineConfig { probe_width: 1, ..EngineConfig::lsh() }.without_cache();
    let store = QueryEngine::new(store, storage_path);
    let sharded = QueryEngine::new(sharded, storage_path);
    let coarse_path = EngineConfig::exact().without_cache();
    let quant = QueryEngine::new(quant, coarse_path);
    let quant_sharded = QueryEngine::new(quant_sharded, coarse_path);
    let hash16 = QueryEngine::new(hash16, coarse_path);
    assert!(quant.plan(K).quantized, "quantized store must plan a quantized pass");
    assert_eq!(hash16.plan(K).nprobe, NLIST, "hash routing must plan full fan-out");
    // The routed engine lets the Auto policy pick the probe budget: 10k
    // rows over 16 learned cells is deep enough to drop to NLIST / 4.
    let routed =
        QueryEngine::new(routed, EngineConfig { nprobe: NprobePolicy::Auto, ..coarse_path });
    let nprobe = routed.plan(K).nprobe;
    assert_eq!(nprobe, NLIST / 4, "Auto nprobe must go sublinear at this depth");

    // Recall@10 against the exact baseline, over the timed query set.
    let exact_lists: Vec<Vec<(usize, f64)>> =
        queries.iter().map(|q| exact_scan_topk(&corpus, q, K)).collect();
    let recall = recall_vs_exact(&exact_lists, &store.query_batch(&queries, K));
    let sharded_recall = recall_vs_exact(&exact_lists, &sharded.query_batch(&queries, K));
    let quant_recall = recall_vs_exact(&exact_lists, &quant.query_batch(&queries, K));
    let routed_recall = recall_vs_exact(&exact_lists, &routed.query_batch(&queries, K));
    let hash16_recall = recall_vs_exact(&exact_lists, &hash16.query_batch(&queries, K));
    assert!(hash16_recall >= 0.99, "full fan-out baseline recall@10 {hash16_recall:.4} degraded");

    // QPS: median of 5 timed batches each.
    let time_qps = |f: &dyn Fn() -> usize| -> f64 {
        let mut qps: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                let n = black_box(f());
                n as f64 / start.elapsed().as_secs_f64()
            })
            .collect();
        qps.sort_by(f64::total_cmp);
        qps[qps.len() / 2]
    };
    let exact_qps = time_qps(&|| {
        // The baseline is slow enough that a fraction of the batch gives a
        // stable per-query figure.
        let sample = &queries[..32];
        for q in sample {
            black_box(exact_scan_topk(&corpus, q, K));
        }
        sample.len()
    });
    // The two store tiers are compared with paired, interleaved rounds —
    // each round times one full batch on each — so clock/thermal drift
    // between measurement instants hits both tiers equally instead of
    // biasing whichever ran later. Medians over 9 rounds.
    let mut single_rounds = Vec::with_capacity(9);
    let mut sharded_rounds = Vec::with_capacity(9);
    let mut quant_rounds = Vec::with_capacity(9);
    let mut quant_sharded_rounds = Vec::with_capacity(9);
    let mut routed_rounds = Vec::with_capacity(9);
    let mut hash16_rounds = Vec::with_capacity(9);
    for _ in 0..9 {
        let start = Instant::now();
        black_box(store.query_batch(&queries, K));
        single_rounds.push(queries.len() as f64 / start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(sharded.query_batch(&queries, K));
        sharded_rounds.push(queries.len() as f64 / start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(quant.query_batch(&queries, K));
        quant_rounds.push(queries.len() as f64 / start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(quant_sharded.query_batch(&queries, K));
        quant_sharded_rounds.push(queries.len() as f64 / start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(routed.query_batch(&queries, K));
        routed_rounds.push(queries.len() as f64 / start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(hash16.query_batch(&queries, K));
        hash16_rounds.push(queries.len() as f64 / start.elapsed().as_secs_f64());
    }
    single_rounds.sort_by(f64::total_cmp);
    sharded_rounds.sort_by(f64::total_cmp);
    quant_rounds.sort_by(f64::total_cmp);
    quant_sharded_rounds.sort_by(f64::total_cmp);
    routed_rounds.sort_by(f64::total_cmp);
    hash16_rounds.sort_by(f64::total_cmp);
    let batched_qps = single_rounds[single_rounds.len() / 2];
    let sharded_qps = sharded_rounds[sharded_rounds.len() / 2];
    let quant_qps = quant_rounds[quant_rounds.len() / 2];
    let quant_sharded_qps = quant_sharded_rounds[quant_sharded_rounds.len() / 2];
    let routed_qps = routed_rounds[routed_rounds.len() / 2];
    let hash16_qps = hash16_rounds[hash16_rounds.len() / 2];
    let shards_probed = routed.store().stats().avg_shards_probed();
    let speedup = batched_qps / exact_qps;
    // The quantized tier must clearly beat the LSH-blocked engine path while
    // keeping recall@10 within 1% of exact. The bar is the same-run ratio
    // the design holds, not ISSUE 6's 2×: once the batch path became the
    // per-query core the LSH denominator sped up more than the coarse pass
    // (1.3–1.6× with the old entry-bar sweep); the counting select reads
    // 1.4–1.9× on a shared 2-CPU container (ISSUE 25).
    assert!(
        quant_qps >= 1.25 * batched_qps,
        "quantized coarse pass {quant_qps:.1} qps below 1.25x the LSH path {batched_qps:.1} qps"
    );
    assert!(quant_recall >= 0.99, "quantized recall@10 {quant_recall:.4} below 0.99");
    // The ISSUE 7 bar: the sharded quantized pass must not fall behind the
    // sharded LSH path — its one Hamming pass over every probed shard has
    // to stay cheaper than probing every shard's band buckets.
    assert!(
        quant_sharded_qps >= sharded_qps,
        "sharded quantized pass {quant_sharded_qps:.1} qps below the sharded LSH path \
         {sharded_qps:.1} qps — the counting select is not paying off"
    );
    // The ISSUE 9 bars: at the same 16-shard topology, nprobe-bounded routed
    // scans must beat hash routing's forced full fan-out by 1.5x while
    // holding recall@10 at 0.95, and the probe counters must prove the
    // scans were actually sublinear.
    assert!(
        routed_qps >= 1.5 * hash16_qps,
        "routed pass {routed_qps:.1} qps below 1.5x the hash-routed {NLIST}-shard pass \
         {hash16_qps:.1} qps — nprobe={nprobe} is not paying for itself"
    );
    assert!(routed_recall >= 0.95, "routed recall@10 {routed_recall:.4} below 0.95");
    assert!(
        shards_probed < NLIST as f64,
        "routed store probed {shards_probed:.1} of {NLIST} shards per query — not sublinear"
    );

    // The engine's LRU hit path: a cached engine over the same sharded
    // tier, warmed once, then timed on pure repeats — what a serving
    // workload with recurring queries actually pays.
    let cached = QueryEngine::new(
        sharded.store().clone(),
        EngineConfig { probe_width: 1, ..EngineConfig::lsh() },
    );
    let warm = cached.query_batch(&queries, K);
    assert_eq!(warm, sharded.query_batch(&queries, K), "cached engine diverged from storage");
    let cache_qps = time_qps(&|| {
        black_box(cached.query_batch(&queries, K));
        queries.len()
    });
    assert_eq!(cached.stats().store_queries, queries.len() as u64, "timed rounds hit storage");

    // Compaction pauses under steady-state overwrite churn, policy-driven:
    // each upsert over a live id tombstones the old row; every shard
    // compacts itself at 25% dead rows. No caller ever calls compact().
    let churn_policy = CompactionPolicy { max_tombstone_ratio: 0.25, max_segments: 64 };
    let mut churn = ShardedStore::new(DIM, N_SHARDS, StoreConfig { policy: churn_policy, ..cfg });
    const CHURN_LIVE: usize = 8192;
    const CHURN_WRITES: usize = 24_000;
    for v in corpus.iter().take(CHURN_LIVE) {
        churn.insert(v);
    }
    for i in 0..CHURN_WRITES {
        churn.upsert((i % CHURN_LIVE) as u64, &corpus[i % corpus.len()]);
    }
    let mut pauses = churn.compaction_pauses();
    assert!(
        pauses.len() >= N_SHARDS,
        "churn of {CHURN_WRITES} writes must trigger the policy in every shard"
    );
    let n_compactions = churn.compactions();
    let pause_p50 = quantile_ms(&mut pauses, 0.50);
    let pause_p99 = quantile_ms(&mut pauses, 0.99);

    // What durability costs on the ingest path: the same upsert stream
    // against a WAL-backed store at each fsync policy. `Never` appends but
    // never syncs (the group-commit floor); `Interval(10)` is the serving
    // candidate — group commit must keep it within 1.5x of that floor; a
    // per-mutation `Always` fsync is measured on fewer rows because it is
    // honestly, unavoidably slow.
    const DURABLE_ROWS: usize = 4000;
    const ALWAYS_ROWS: usize = 600;
    let ingest_qps = |policy: DurabilityPolicy, rows: usize| -> f64 {
        let dir =
            std::env::temp_dir().join(format!("tabbin_bench_wal_{}_{policy}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut durable = ShardedStore::open_durable(
            &dir,
            DIM,
            N_SHARDS,
            StoreConfig { durability: policy, ..cfg },
        )
        .expect("durable open");
        let start = Instant::now();
        for (i, v) in corpus.iter().take(rows).enumerate() {
            durable.upsert(i as u64, v);
        }
        let qps = rows as f64 / start.elapsed().as_secs_f64();
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
        qps
    };
    let never_qps = ingest_qps(DurabilityPolicy::Never, DURABLE_ROWS);
    let interval_qps = ingest_qps(DurabilityPolicy::Interval(10), DURABLE_ROWS);
    let always_qps = ingest_qps(DurabilityPolicy::Always, ALWAYS_ROWS);
    // The ISSUE 10 bar: group commit must absorb the fsync cost.
    assert!(
        interval_qps >= never_qps / 1.5,
        "Interval(10) ingest {interval_qps:.1} qps fell below 1/1.5 of the Never floor \
         {never_qps:.1} qps — group commit is not absorbing the fsyncs"
    );

    // Format once, print and write the same strings.
    let exact_s = format!("{exact_qps:.1}");
    let batched_s = format!("{batched_qps:.1}");
    let speedup_s = format!("{speedup:.2}");
    let recall_s = format!("{recall:.4}");
    let sharded_qps_s = format!("{sharded_qps:.1}");
    let sharded_recall_s = format!("{sharded_recall:.4}");
    let quant_qps_s = format!("{quant_qps:.1}");
    let quant_sharded_qps_s = format!("{quant_sharded_qps:.1}");
    let quant_recall_s = format!("{quant_recall:.4}");
    let routed_qps_s = format!("{routed_qps:.1}");
    let hash16_qps_s = format!("{hash16_qps:.1}");
    let routed_recall_s = format!("{routed_recall:.4}");
    let routed_speedup_s = format!("{:.2}", routed_qps / hash16_qps);
    let shards_probed_s = format!("{shards_probed:.2}");
    let cache_qps_s = format!("{cache_qps:.1}");
    let pause_p50_s = format!("{pause_p50:.3}");
    let pause_p99_s = format!("{pause_p99:.3}");
    let never_qps_s = format!("{never_qps:.1}");
    let interval_qps_s = format!("{interval_qps:.1}");
    let always_qps_s = format!("{always_qps:.1}");
    println!(
        "index_{N_VECTORS}x{DIM}: exact scan {exact_s} qps, engine(store) query_batch \
         {batched_s} qps ({speedup_s}x), recall@{K} {recall_s}"
    );
    println!(
        "index_{N_VECTORS}x{DIM} quantized(rerank {DEFAULT_RERANK_FACTOR}): coarse pass \
         {quant_qps_s} qps (sharded {quant_sharded_qps_s} qps), recall@{K} {quant_recall_s}"
    );
    println!(
        "index_{N_VECTORS}x{DIM} sharded({N_SHARDS}): engine query_batch {sharded_qps_s} qps, \
         recall@{K} {sharded_recall_s}, cache hit path {cache_qps_s} qps, \
         {n_compactions} policy compactions \
         (pause p50 {pause_p50_s} ms, p99 {pause_p99_s} ms over {CHURN_WRITES} writes)"
    );
    println!(
        "index_{N_VECTORS}x{DIM} routed(nlist {NLIST}, nprobe {nprobe}): {routed_qps_s} qps \
         ({routed_speedup_s}x the hash-routed {NLIST}-shard pass at {hash16_qps_s} qps), \
         recall@{K} {routed_recall_s}, {shards_probed_s}/{NLIST} shards probed per query"
    );
    println!(
        "index_{DURABLE_ROWS}x{DIM} durable ingest: never {never_qps_s} qps, \
         interval(10ms) {interval_qps_s} qps, always {always_qps_s} qps \
         ({ALWAYS_ROWS} rows for always)"
    );
    let json = format!(
        "{{\n  \"bench\": \"vector_store_query\",\n  \"n_vectors\": {N_VECTORS},\n  \
         \"dim\": {DIM},\n  \"k\": {K},\n  \"n_queries\": {N_QUERIES},\n  \
         \"exact_scan_qps\": {exact_s},\n  \"batched_lsh_qps\": {batched_s},\n  \
         \"speedup\": {speedup_s},\n  \"recall_at_10\": {recall_s},\n  \
         \"quantized_coarse_qps\": {quant_qps_s},\n  \
         \"quantized_recall_at_10\": {quant_recall_s},\n  \
         \"quantized_rerank_factor\": {DEFAULT_RERANK_FACTOR},\n  \
         \"cache_hit_qps\": {cache_qps_s},\n  \
         \"sharded\": {{\n    \"n_shards\": {N_SHARDS},\n    \
         \"query_batch_qps\": {sharded_qps_s},\n    \
         \"recall_at_10\": {sharded_recall_s},\n    \
         \"quantized_coarse_qps\": {quant_sharded_qps_s},\n    \
         \"churn_writes\": {CHURN_WRITES},\n    \
         \"compactions\": {n_compactions},\n    \
         \"compaction_pause_ms_p50\": {pause_p50_s},\n    \
         \"compaction_pause_ms_p99\": {pause_p99_s}\n  }},\n  \
         \"routed\": {{\n    \"nlist\": {NLIST},\n    \
         \"nprobe\": {nprobe},\n    \
         \"query_batch_qps\": {routed_qps_s},\n    \
         \"hash_routed_qps\": {hash16_qps_s},\n    \
         \"speedup_vs_hash_routed\": {routed_speedup_s},\n    \
         \"recall_at_10\": {routed_recall_s},\n    \
         \"shards_probed\": {shards_probed_s}\n  }},\n  \
         \"durability\": {{\n    \"ingest_rows\": {DURABLE_ROWS},\n    \
         \"always_rows\": {ALWAYS_ROWS},\n    \
         \"never_qps\": {never_qps_s},\n    \
         \"interval10_qps\": {interval_qps_s},\n    \
         \"always_qps\": {always_qps_s}\n  }}\n}}\n"
    );
    // Prefer the workspace root; fall back to the working directory (and a
    // warning) so a relocated bench binary still reports instead of dying.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_index.json");
    if let Err(first) = std::fs::write(&out, &json) {
        if let Err(second) = std::fs::write("BENCH_index.json", &json) {
            eprintln!("warning: could not write BENCH_index.json ({first}; fallback: {second})");
        }
    }

    let mut g = c.benchmark_group("vector_store_10k_query");
    g.bench_function("exact_scan_baseline", |b| {
        b.iter(|| black_box(exact_scan_topk(&corpus, &queries[0], K)));
    });
    g.bench_function("store_query_lsh", |b| {
        b.iter(|| black_box(store.query(&queries[0], K)));
    });
    g.bench_function("store_query_batch_lsh", |b| {
        b.iter(|| black_box(store.query_batch(&queries[..32], K)));
    });
    g.bench_function("sharded_query_batch_lsh", |b| {
        b.iter(|| black_box(sharded.query_batch(&queries[..32], K)));
    });
    g.bench_function("quantized_query_batch_coarse", |b| {
        b.iter(|| black_box(quant.query_batch(&queries[..32], K)));
    });
    g.bench_function("routed_query_batch_nprobe", |b| {
        b.iter(|| black_box(routed.query_batch(&queries[..32], K)));
    });
    g.finish();

    // Lifecycle costs: upsert throughput (compaction included — the policy
    // amortizes rewrites into the write stream) and explicit compaction.
    let mut g = c.benchmark_group("vector_store_lifecycle");
    g.bench_function("upsert_policy_compacted", |b| {
        let mut s = ShardedStore::new(DIM, 1, StoreConfig::with_lsh(LshParams::default_blocking()));
        let mut next = 0u64;
        b.iter(|| {
            s.upsert(next % 4096, &corpus[(next as usize) % corpus.len()]);
            next += 1;
        });
    });
    g.bench_function("compact_4k", |b| {
        let mut s = ShardedStore::new(DIM, 1, StoreConfig::with_lsh(LshParams::default_blocking()));
        for v in corpus.iter().take(4096) {
            s.insert(v);
        }
        b.iter(|| {
            s.compact();
            black_box(s.len())
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_index
}
criterion_main!(benches);
