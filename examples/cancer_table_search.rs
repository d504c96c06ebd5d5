//! Table search over a CancerKG-profile corpus: embed every table with
//! TabBiN composite embeddings, stream them into a `tabbin-index`
//! `ShardedStore`, and retrieve the most similar tables for a query table —
//! the data-fusion scenario from the paper's introduction, served through
//! the query-execution layer (`QueryEngine`: planned source, LRU result
//! cache) over the sharded tier (IVF-routed shards, k-way merged top-k)
//! instead of a hand-rolled cosine loop.
//!
//! Run with: `cargo run --example cancer_table_search`

use std::sync::Arc;
use tabbin_core::batch::BatchEncoder;
use tabbin_core::config::ModelConfig;
use tabbin_core::pretrain::PretrainOptions;
use tabbin_core::variants::TabBiNFamily;
use tabbin_corpus::{generate, Dataset, GenOptions};
use tabbin_index::{
    EngineConfig, IvfRouter, LshParams, NprobePolicy, QueryEngine, ShardedStore, StoreConfig,
};

fn main() {
    let corpus = generate(Dataset::CancerKg, &GenOptions { n_tables: Some(40), seed: 11 });
    let tables = corpus.plain_tables();
    println!("generated {} CancerKG-profile tables", tables.len());

    let mut family = TabBiNFamily::new(&tables, ModelConfig::tiny(), 11);
    family.pretrain(&tables, &PretrainOptions { steps: 40, batch: 4, ..Default::default() });

    // Embed first, then train the coarse quantizer on the corpus itself: a
    // deterministic k-means router whose cells become the shards. Upserts
    // co-locate under their nearest centroid and queries visit only the
    // `nprobe` nearest cells. The composite dimension is 4 * hidden
    // (data ⊕ HMD ⊕ VMD ⊕ caption). The quantized scoring tier keeps
    // packed sign-bit signatures next to the vectors: queries run a
    // popcount-Hamming coarse pass over the probed shards first and
    // re-rank only the survivors with f32 dots.
    let embs = BatchEncoder::new(&family).embed_tables(&tables);
    let cfg = StoreConfig::quantized(LshParams::default_blocking());
    let router = Arc::new(IvfRouter::train(&embs, 4, cfg.seed));
    let mut store = ShardedStore::with_router(4 * family.cfg.hidden, 4, cfg, router);
    let ids: Vec<u64> = embs
        .iter()
        .map(|e| {
            let id = store.len() as u64;
            store.upsert(id, e);
            id
        })
        .collect();
    let per_shard: Vec<usize> = store.stats().shards.iter().map(|s| s.live).collect();
    println!(
        "indexed {} table embeddings (dim {}) across {} {}-routed shards {:?}",
        store.len(),
        store.dim(),
        store.n_shards(),
        store.router_name(),
        per_shard
    );

    // Serve retrieval through the query-execution layer: the engine plans
    // the quantized store's signature sweep (a quantized plan never blocks
    // on LSH buckets), pins a 2-cell probe budget (Auto keeps full fan-out
    // on a corpus this small), and caches results keyed on the normalized
    // query vector.
    let engine = QueryEngine::new(
        store,
        EngineConfig { nprobe: NprobePolicy::Fixed(2), ..EngineConfig::default() },
    );
    let plan = engine.plan(6);
    println!(
        "scoring tier: {:?} (plan: quantized={}, lsh={}, nprobe={}/{})",
        engine.store().tier(),
        plan.quantized,
        plan.lsh,
        plan.nprobe,
        engine.store().n_shards()
    );

    // Use the first nested-table-carrying table as the query.
    let query = corpus.tables.iter().position(|t| t.table.has_nesting()).unwrap_or(0);
    println!(
        "\nquery table: '{}' (topic: {})",
        corpus.tables[query].table.caption, corpus.tables[query].topic
    );
    // Top-k from the engine (k + 1 so the query's own hit can be dropped).
    let query_emb = engine.store().get(ids[query]).expect("query table was indexed").to_vec();
    let hits = engine.query(&query_emb, 6);
    println!("top 5 most similar tables:");
    let mut hits_same = 0;
    for (rank, hit) in hits.iter().filter(|h| h.id != ids[query]).take(5).enumerate() {
        let i = hit.id as usize;
        let same = corpus.tables[i].topic == corpus.tables[query].topic;
        hits_same += same as usize;
        println!(
            "  {}. '{}' (topic: {}, score {:.3}){}",
            rank + 1,
            corpus.tables[i].table.caption,
            corpus.tables[i].topic,
            hit.score,
            if same { "  <- same topic" } else { "" }
        );
    }
    println!("\n{hits_same}/5 retrieved tables share the query's topic");

    // A repeated query never reaches storage: the engine's LRU serves it.
    let again = engine.query(&query_emb, 6);
    assert_eq!(again, hits, "cached result diverged from the stored scan");
    let stats = engine.stats();
    println!(
        "engine: {} cache hit(s), {} miss(es), {} storage scan(s)",
        stats.cache_hits, stats.cache_misses, stats.store_batches
    );
    let shards = engine.store().stats();
    println!(
        "router: {} — {:.1}/{} shards probed per query, imbalance {:.2}",
        engine.store().router_name(),
        shards.avg_shards_probed(),
        engine.store().n_shards(),
        shards.imbalance()
    );
    assert!(shards.avg_shards_probed() <= 2.0, "Fixed(2) nprobe must bound the probe set");
}
