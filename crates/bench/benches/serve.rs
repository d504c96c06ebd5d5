//! Serving-tier benchmark: the full `tabbin-serve` stack (tagged-frame
//! wire protocol → readiness-driven event loop → per-turn admission → query
//! engine on the loop thread → sharded store) under closed-loop load at several
//! offered concurrencies, plus a pipelining section that measures what
//! protocol v2 buys: one connection with a window of tagged requests in
//! flight versus the same client at a window of one.
//!
//! Run with `cargo bench -p tabbin-bench --bench serve` (a few seconds
//! after the build).
//!
//! Writes `BENCH_serve.json` at the workspace root: per offered-load level
//! the achieved QPS, request latency p50/p99 (successful requests), the
//! shed rate, the per-client in-flight window, and the engine cache hit
//! rate; then the pipelined-vs-blocking single-connection comparison. The
//! printed figures are the written figures — both come from the same
//! formatted strings.
//!
//! Two asserts live here, not in a test, because they are throughput
//! claims about the event-loop architecture, each against a baseline
//! measured in the same run:
//! - 32 closed-loop clients shed < 5% (v1's thread-starved stack shed 93%);
//! - one pipelined connection with a 32-deep window beats the blocking
//!   client on the same server.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tabbin_index::{EngineConfig, LshParams, QueryEngine, ShardedStore, StoreConfig};
use tabbin_serve::{Client, QueryOutcome, ServeConfig, Server};

const N_VECTORS: usize = 10_000;
const DIM: usize = 128;
const K: usize = 10;
const N_SHARDS: usize = 4;
/// Requests each closed-loop client issues per load level.
const REQUESTS_PER_CLIENT: usize = 400;
/// Offered-load levels: closed-loop client counts.
const LOADS: [usize; 3] = [2, 8, 32];
/// Ceiling on the shed rate at the highest closed-loop load.
const MAX_SHED_RATE: f64 = 0.05;
/// Outstanding-request window of the pipelined connection.
const PIPELINE_WINDOW: usize = 32;
/// Requests each single-connection contender issues.
const PIPELINE_REQUESTS: usize = 6_000;
/// Size of the shared hot-query pool clients repeat from.
const QUERY_POOL_SIZE: usize = 48;
/// Percent of each client's requests drawn from the hot pool; the rest are
/// fresh jittered queries no cache can anticipate.
const REPEAT_PCT: u32 = 75;

/// Same clustered corpus shape as the `index` bench.
fn clustered_corpus(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_clusters = 100;
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

fn build_store(corpus: &[Vec<f32>]) -> ShardedStore {
    let cfg = StoreConfig::with_lsh(LshParams::default_blocking());
    let mut store = ShardedStore::new(DIM, N_SHARDS, cfg);
    for v in corpus {
        store.insert(v);
    }
    store
}

/// One load level's outcome.
struct LoadResult {
    offered: usize,
    served: usize,
    shed: usize,
    wall_secs: f64,
    /// Latencies of successful requests, seconds.
    latencies: Vec<f64>,
    cache_hit_rate: f64,
}

/// Runs `clients` closed-loop clients against a fresh server over `store`,
/// each issuing [`REQUESTS_PER_CLIENT`] requests: [`REPEAT_PCT`]% drawn
/// from the shared hot-query `pool`, the rest fresh jittered queries.
fn run_load(
    store: &ShardedStore,
    corpus: &[Vec<f32>],
    pool: &Arc<Vec<Vec<f32>>>,
    clients: usize,
) -> LoadResult {
    let engine = Arc::new(QueryEngine::new(store.clone(), EngineConfig::lsh()));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), ServeConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let queries: Vec<Vec<f32>> = {
                let mut rng = StdRng::seed_from_u64(0x5e7e + c as u64);
                let pool = Arc::clone(pool);
                (0..REQUESTS_PER_CLIENT)
                    .map(|i| {
                        if rng.random_range(0u32..100) < REPEAT_PCT {
                            // A hot query, byte-identical across clients.
                            pool[rng.random_range(0..pool.len())].clone()
                        } else {
                            let base = &corpus[(c * REQUESTS_PER_CLIENT + i) % corpus.len()];
                            base.iter().map(|x| x + rng.random_range(-0.02f32..0.02)).collect()
                        }
                    })
                    .collect()
            };
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut latencies = Vec::with_capacity(REQUESTS_PER_CLIENT);
                let mut shed = 0usize;
                for q in &queries {
                    let t = Instant::now();
                    match client.query(q, K).expect("request must answer, never hang") {
                        QueryOutcome::Hits(hits) => {
                            black_box(&hits);
                            latencies.push(t.elapsed().as_secs_f64());
                        }
                        QueryOutcome::Overloaded { .. } => shed += 1,
                    }
                }
                (latencies, shed)
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut shed = 0usize;
    for h in handles {
        let (lats, s) = h.join().expect("client thread panicked");
        latencies.extend(lats);
        shed += s;
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let stats = server.stats();
    assert_eq!(stats.shed as usize, shed, "server and client shed counts disagree");
    assert_eq!(stats.served as usize, latencies.len(), "served count mismatch");
    let engine_stats = stats.engine;
    let looked_up = engine_stats.cache_hits + engine_stats.cache_misses;
    server.shutdown();
    LoadResult {
        offered: clients * REQUESTS_PER_CLIENT,
        served: latencies.len(),
        shed,
        wall_secs,
        latencies,
        cache_hit_rate: if looked_up == 0 {
            0.0
        } else {
            engine_stats.cache_hits as f64 / looked_up as f64
        },
    }
}

/// Single-connection throughput: blocking one-outstanding vs pipelined
/// with a [`PIPELINE_WINDOW`]-deep tagged window, same server, same
/// hot-pool query stream. Storage throughput has its own bench; this
/// section isolates the transport — a warmed LRU makes the engine nearly
/// free, so what remains is exactly what pipelining claims to fix: the
/// blocking client burns a full round trip per request, the pipelined
/// one keeps [`PIPELINE_WINDOW`] requests in the pipe.
struct PipelineResult {
    blocking_qps: f64,
    pipelined_qps: f64,
    peak_in_flight: usize,
}

fn run_pipeline_comparison(store: &ShardedStore, pool: &Arc<Vec<Vec<f32>>>) -> PipelineResult {
    let engine = Arc::new(QueryEngine::new(store.clone(), EngineConfig::lsh()));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine), ServeConfig::default())
        .expect("bind loopback");
    let addr = server.local_addr();
    let queries: Vec<&Vec<f32>> =
        (0..PIPELINE_REQUESTS).map(|i| &pool[(i * 31) % pool.len()]).collect();

    // Warm the engine LRU so both contenders pay the same (tiny) engine
    // cost and the measurement is transport-bound.
    let mut warm = Client::connect(addr).expect("connect warm");
    for q in pool.iter() {
        warm.query(q, K).expect("warm query");
    }
    drop(warm);

    // Baseline: the same client at a window of one outstanding request.
    let mut blocking = Client::connect(addr).expect("connect blocking");
    let t = Instant::now();
    for q in &queries {
        match blocking.query(q, K).expect("blocking query") {
            QueryOutcome::Hits(hits) => {
                black_box(&hits);
            }
            QueryOutcome::Overloaded { .. } => panic!("one blocking client shed"),
        }
    }
    let blocking_qps = queries.len() as f64 / t.elapsed().as_secs_f64();
    drop(blocking);

    // Contender: same stream, one connection, PIPELINE_WINDOW outstanding,
    // driven double-buffered: submit a half-window burst (one flush), then
    // claim the *previous* burst's replies — while this side decodes, the
    // server is already chewing on the next burst. The pipe never drains
    // until the tail.
    let mut pipelined = Client::connect_windowed(addr, PIPELINE_WINDOW).expect("connect pipelined");
    let mut peak_in_flight = 0usize;
    let t = Instant::now();
    let mut pending: std::collections::VecDeque<u64> =
        std::collections::VecDeque::with_capacity(PIPELINE_WINDOW);
    for burst in queries.chunks(PIPELINE_WINDOW / 2) {
        for q in burst {
            pending.push_back(pipelined.submit(q, K).expect("pipelined submit"));
        }
        peak_in_flight = peak_in_flight.max(pipelined.in_flight());
        while pending.len() > PIPELINE_WINDOW / 2 {
            let tag = pending.pop_front().expect("nonempty");
            match pipelined.wait(tag).expect("pipelined wait") {
                QueryOutcome::Hits(hits) => {
                    black_box(&hits);
                }
                QueryOutcome::Overloaded { .. } => panic!("pipelined window shed"),
            }
        }
    }
    for tag in pending {
        match pipelined.wait(tag).expect("pipelined drain") {
            QueryOutcome::Hits(hits) => {
                black_box(&hits);
            }
            QueryOutcome::Overloaded { .. } => panic!("pipelined window shed"),
        }
    }
    let pipelined_qps = queries.len() as f64 / t.elapsed().as_secs_f64();
    assert_eq!(pipelined.in_flight(), 0, "requests left unclaimed");
    server.shutdown();
    PipelineResult { blocking_qps, pipelined_qps, peak_in_flight }
}

/// The `q`-quantile of `samples` (nearest-rank), in milliseconds.
fn quantile_ms(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let idx = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[idx] * 1e3
}

fn bench_serve(c: &mut Criterion) {
    let corpus = clustered_corpus(N_VECTORS, DIM, 17);
    let store = build_store(&corpus);
    // The hot-query pool every client repeats from: jittered corpus rows,
    // fixed seed, built once so repeats are byte-identical across clients.
    let pool: Arc<Vec<Vec<f32>>> = Arc::new({
        let mut rng = StdRng::seed_from_u64(0x9001);
        (0..QUERY_POOL_SIZE)
            .map(|i| {
                let base = &corpus[(i * 97) % corpus.len()];
                base.iter().map(|x| x + rng.random_range(-0.02f32..0.02)).collect()
            })
            .collect()
    });
    let queue_capacity = ServeConfig::default().resolved_queue_capacity();

    let mut level_json = Vec::new();
    for &clients in &LOADS {
        let mut r = run_load(&store, &corpus, &pool, clients);
        assert!(r.served > 0, "{clients} clients: nothing served");
        assert!(
            r.cache_hit_rate > 0.2,
            "{clients} clients: cache hit rate {:.4} — a {REPEAT_PCT}% hot-pool workload \
             must hit the engine LRU",
            r.cache_hit_rate
        );
        let qps = r.served as f64 / r.wall_secs;
        let p50 = quantile_ms(&mut r.latencies, 0.50);
        let p99 = quantile_ms(&mut r.latencies, 0.99);
        let shed_rate = r.shed as f64 / r.offered as f64;
        if clients == *LOADS.last().expect("loads nonempty") {
            // The load-shedding claim: the event loops' per-turn budget
            // absorbs 32 closed-loop clients (v1 shed 93% here because
            // blocked I/O threads held queue slots).
            assert!(
                shed_rate < MAX_SHED_RATE,
                "{clients} closed-loop clients shed {shed_rate:.4} of requests \
                 (limit {MAX_SHED_RATE}) — the event loop is not absorbing load"
            );
        }
        // Format once; print and write the same strings.
        let qps_s = format!("{qps:.1}");
        let p50_s = format!("{p50:.3}");
        let p99_s = format!("{p99:.3}");
        let shed_s = format!("{shed_rate:.4}");
        let hit_s = format!("{:.4}", r.cache_hit_rate);
        println!(
            "serve_{N_VECTORS}x{DIM} load={clients}: {qps_s} qps, \
             latency p50 {p50_s} ms / p99 {p99_s} ms, shed rate {shed_s}, \
             cache hit rate {hit_s} ({}/{} requests served)",
            r.served, r.offered
        );
        level_json.push(format!(
            "    {{\n      \"clients\": {clients},\n      \"window\": 1,\n      \
             \"offered_requests\": {},\n      \
             \"served\": {},\n      \"qps\": {qps_s},\n      \"latency_ms_p50\": {p50_s},\n      \
             \"latency_ms_p99\": {p99_s},\n      \"shed_rate\": {shed_s},\n      \
             \"cache_hit_rate\": {hit_s}\n    }}",
            r.offered, r.served
        ));
    }

    let pipe = run_pipeline_comparison(&store, &pool);
    let speedup_blocking = pipe.pipelined_qps / pipe.blocking_qps;
    // The pipelining claim, against the baseline measured in this run:
    // tagged frames + out-of-order completion turn one connection's dead
    // round-trip time into throughput, so the pipelined path must beat the
    // blocking client on the very same server.
    assert!(
        speedup_blocking > 1.0,
        "pipelined connection ({:.1} qps) is slower than the blocking client ({:.1} qps)",
        pipe.pipelined_qps,
        pipe.blocking_qps
    );
    let blocking_s = format!("{:.1}", pipe.blocking_qps);
    let pipelined_s = format!("{:.1}", pipe.pipelined_qps);
    let speedup_blocking_s = format!("{speedup_blocking:.2}");
    println!(
        "serve_pipeline 1 connection: blocking {blocking_s} qps, \
         pipelined(window={PIPELINE_WINDOW}) {pipelined_s} qps \
         ({speedup_blocking_s}x, peak in-flight {})",
        pipe.peak_in_flight
    );

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"n_vectors\": {N_VECTORS},\n  \"dim\": {DIM},\n  \
         \"k\": {K},\n  \"n_shards\": {N_SHARDS},\n  \
         \"queue_capacity\": {queue_capacity},\n  \
         \"requests_per_client\": {REQUESTS_PER_CLIENT},\n  \
         \"query_pool_size\": {QUERY_POOL_SIZE},\n  \
         \"repeat_pct\": {REPEAT_PCT},\n  \"loads\": [\n{}\n  ],\n  \
         \"pipeline\": {{\n    \"requests\": {PIPELINE_REQUESTS},\n    \
         \"window\": {PIPELINE_WINDOW},\n    \"peak_in_flight\": {},\n    \
         \"blocking_qps\": {blocking_s},\n    \
         \"pipelined_qps\": {pipelined_s},\n    \
         \"speedup_vs_blocking\": {speedup_blocking_s}\n  }}\n}}\n",
        level_json.join(",\n"),
        pipe.peak_in_flight
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    if let Err(first) = std::fs::write(&out, &json) {
        if let Err(second) = std::fs::write("BENCH_serve.json", &json) {
            eprintln!("warning: could not write BENCH_serve.json ({first}; fallback: {second})");
        }
    }

    // Criterion sample: one uncontended wire round-trip (connect excluded).
    let engine = Arc::new(QueryEngine::new(store.clone(), EngineConfig::lsh().without_cache()));
    let server = Server::bind("127.0.0.1:0", engine, ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut g = c.benchmark_group("serve_roundtrip");
    g.bench_function("query_10k_dim128_uncached", |b| {
        b.iter(|| black_box(client.query(&corpus[0], K).expect("query")));
    });
    g.finish();
    drop(client);
    server.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serve
}
criterion_main!(benches);
