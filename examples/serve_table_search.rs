//! Table search as a network service: embed a CancerKG-profile corpus,
//! stand up the `tabbin-serve` TCP server on a loopback port, and retrieve
//! the most similar tables **over the wire** — the `cancer_table_search`
//! scenario pushed through the full serving stack (wire protocol, event
//! loop with per-turn admission, the query engine called on the loop
//! thread that decoded the request, sharded store).
//!
//! Run with: `cargo run --example serve_table_search`

use std::sync::Arc;
use tabbin_core::batch::BatchEncoder;
use tabbin_core::config::ModelConfig;
use tabbin_core::pretrain::PretrainOptions;
use tabbin_core::variants::TabBiNFamily;
use tabbin_corpus::{generate, Dataset, GenOptions};
use tabbin_index::{EngineConfig, QueryEngine, ShardedStore};
use tabbin_serve::{Client, QueryOutcome, ServeConfig, Server};

fn main() {
    let corpus = generate(Dataset::CancerKg, &GenOptions { n_tables: Some(40), seed: 11 });
    let tables = corpus.plain_tables();
    println!("generated {} CancerKG-profile tables", tables.len());

    let mut family = TabBiNFamily::new(&tables, ModelConfig::tiny(), 11);
    family.pretrain(&tables, &PretrainOptions { steps: 40, batch: 4, ..Default::default() });

    // Embed the tables into the sharded store, then hand it to the engine
    // and put the TCP server in front — port 0 picks a free loopback port.
    let mut store = ShardedStore::exact(4 * family.cfg.hidden, 4);
    let embs = BatchEncoder::new(&family).embed_tables(&tables);
    let ids: Vec<u64> = embs.iter().map(|e| store.insert(e)).collect();
    let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), ServeConfig::default())
        .expect("bind loopback");
    println!("serving {} table embeddings on {}", engine.len(), server.local_addr());

    // Query over the wire: the first nested-table-carrying table.
    let query = corpus.tables.iter().position(|t| t.table.has_nesting()).unwrap_or(0);
    let query_emb = engine.store().get(ids[query]).expect("query table was indexed").to_vec();
    println!(
        "\nquery table: '{}' (topic: {})",
        corpus.tables[query].table.caption, corpus.tables[query].topic
    );

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let hits = match client.query(&query_emb, 6).expect("query over the wire") {
        QueryOutcome::Hits(hits) => hits,
        QueryOutcome::Overloaded { .. } => panic!("one client cannot overload the default queue"),
    };

    println!("top 5 most similar tables (served over TCP):");
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

    // The wire changes nothing: the in-process engine answer is identical,
    // bit for bit.
    let local = engine.query(&query_emb, 6);
    assert_eq!(hits, local, "wire results diverged from the in-process engine");

    // Protocol v2 pipelines: one connection, a window of tagged requests
    // in flight, replies claimed in *reverse* submission order — whatever
    // order they arrive in, every tag's hits must be identical to
    // what the one-at-a-time blocking client gets.
    let mut pipelined =
        Client::connect_windowed(server.local_addr(), 8).expect("pipelined connect");
    let probes: Vec<Vec<f32>> =
        ids.iter().take(12).map(|&id| engine.store().get(id).expect("indexed").to_vec()).collect();
    let tags: Vec<u64> =
        probes.iter().map(|p| pipelined.submit(p, 6).expect("pipelined submit")).collect();
    for (tag, probe) in tags.iter().zip(&probes).rev() {
        let QueryOutcome::Hits(pip) = pipelined.wait(*tag).expect("pipelined wait") else {
            panic!("pipelined query shed");
        };
        let QueryOutcome::Hits(blk) = client.query(probe, 6).expect("blocking query") else {
            panic!("blocking query shed");
        };
        assert_eq!(pip, blk, "pipelined reply diverged from the blocking client");
    }
    println!(
        "pipelined client: {} tagged requests on one connection, claimed out of \
         order, all identical to the blocking client",
        probes.len()
    );
    drop(pipelined);

    // The stats endpoint is the health surface: storage, engine,
    // engine-call, and admission counters in one reply.
    let stats = client.stats().expect("stats over the wire");
    println!(
        "server stats: {} served / {} shed, queue {}/{}, shard depths {:?}, \
         engine {} hit(s) {} miss(es)",
        stats.served,
        stats.shed,
        stats.queue_depth,
        stats.queue_capacity,
        stats.shard_depths,
        stats.engine.cache_hits,
        stats.engine.cache_misses,
    );
    drop(client);
    server.shutdown();
    println!("server shut down cleanly");
}
