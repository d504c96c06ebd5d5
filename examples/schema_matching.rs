//! Schema matching via column clustering with LSH blocking: find columns
//! mergeable with a query column across a Webtables-profile corpus — the
//! paper's CC task (§4.1) end to end. Column embeddings live in a
//! `tabbin-index` `ShardedStore` with LSH candidate generation, and the
//! query-execution layer (`QueryEngine`, pinned to LSH blocking) turns the
//! blocking step and the within-block top-k into one SIMD-scored query
//! fanned across IVF-routed shards (shards share hyperplanes, and the
//! probe set visits only the query's nearest cells) instead of a
//! hand-rolled candidate loop over cosines.
//!
//! Run with: `cargo run --example schema_matching`

use std::sync::Arc;
use tabbin_core::batch::BatchEncoder;
use tabbin_core::config::ModelConfig;
use tabbin_core::pretrain::PretrainOptions;
use tabbin_core::variants::TabBiNFamily;
use tabbin_corpus::{generate, Dataset, GenOptions, FILLER_SEM_ID};
use tabbin_index::{
    EngineConfig, IvfRouter, LshCandidates, LshParams, NprobePolicy, QueryEngine, ShardedStore,
    StoreConfig,
};

fn main() {
    let corpus = generate(Dataset::Webtables, &GenOptions { n_tables: Some(40), seed: 5 });
    let tables = corpus.plain_tables();
    let mut family = TabBiNFamily::new(&tables, ModelConfig::tiny(), 5);
    family.pretrain(&tables, &PretrainOptions { steps: 40, batch: 4, ..Default::default() });

    // Embed every non-filler column with the colcomp composite, one batch
    // per table.
    let encoder = BatchEncoder::new(&family);
    let mut refs = Vec::new();
    let mut embs = Vec::new();
    for (ti, lt) in corpus.tables.iter().enumerate() {
        let cols: Vec<usize> =
            (0..lt.column_sem.len()).filter(|&ci| lt.column_sem[ci] != FILLER_SEM_ID).collect();
        refs.extend(cols.iter().map(|&ci| (ti, ci, lt.column_sem[ci])));
        embs.extend(encoder.embed_columns(&lt.table, &cols));
    }
    println!("embedded {} columns from {} tables", embs.len(), tables.len());

    // Index the columns in a sharded store whose shards maintain banded LSH
    // buckets incrementally as the vectors arrive (IVF-routed: a k-means
    // coarse quantizer trained on the embeddings places each column under
    // its nearest centroid). Transformer embeddings are anisotropic, so
    // every shard hashes with the same planes centred on the router's
    // sample mean: hyperplanes through the origin would give nearly every
    // column the same bits.
    // The exact tier with LSH on is the paper's recipe: the band buckets
    // block, the f32 kernel scores what survives. (A quantized store would
    // sweep every signature instead and never consult the buckets.)
    let cfg =
        StoreConfig { seed: 99, ..StoreConfig::with_lsh(LshParams { bands: 8, rows_per_band: 4 }) };
    let router = Arc::new(IvfRouter::train(&embs, 4, cfg.seed));
    let mut store = ShardedStore::with_router(embs[0].len(), 4, cfg, router);
    for (next, v) in embs.iter().enumerate() {
        store.upsert(next as u64, v);
    }
    // The engine owns query execution; `lsh()` pins the plan to blocked
    // candidate generation, the paper's §4.1 recipe; Fixed(2) bounds each
    // query to the two nearest cells (Auto keeps full fan-out this small).
    let engine = QueryEngine::new(
        store,
        EngineConfig { nprobe: NprobePolicy::Fixed(2), ..EngineConfig::lsh() },
    );
    let plan = engine.plan(6);
    println!(
        "scoring tier: {:?} (plan: lsh={}) — f32 dots over the LSH-blocked candidates",
        engine.store().tier(),
        plan.lsh
    );
    assert!(plan.lsh, "the blocking factor below describes the plan the query runs");
    println!(
        "router: {} over {} shards, probing {} cells per query",
        engine.store().router_name(),
        engine.store().n_shards(),
        plan.nprobe
    );

    let query = 0;
    let (qt, qc, qsem) = refs[query];
    let qlabel = corpus.tables[qt].table.hmd.leaf_labels()[qc].to_string();
    let blocked = engine.store().candidate_count(&embs[query], &LshCandidates);
    println!("LSH blocking: {} candidates for the query column instead of {}", blocked, embs.len());
    println!("\nquery column: '{qlabel}' from '{}'", corpus.tables[qt].table.caption);

    // One engine query scores only the blocked candidates (SIMD dots over
    // normalized vectors) and returns the within-block top-k.
    let hits = engine.query(&embs[query], 6);
    println!("top 5 matches within the block:");
    for (rank, hit) in hits.iter().filter(|h| h.id != query as u64).take(5).enumerate() {
        let (ti, ci, sem) = refs[hit.id as usize];
        let label = corpus.tables[ti].table.hmd.leaf_labels()[ci].to_string();
        println!(
            "  {}. '{}' (cos {:.3}){}",
            rank + 1,
            label,
            hit.score,
            if sem == qsem { "  <- true match" } else { "" }
        );
    }
}
