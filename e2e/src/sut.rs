//! The adapter: every call the benchmark makes into the system under test
//! is in this file, and it uses public functions only. When the repository
//! renames a constructor or merges two stores, a follow-up benchmark change
//! edits this file and nothing else. The surface it relies on is listed in
//! the README as frozen until then.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;

use tabbin_core::batch::{embed_batch_parallel, BatchEncoder};
use tabbin_core::composite::concat;
use tabbin_core::config::{ModelConfig, SegmentKind};
use tabbin_core::encoding::{encode_segment, encode_text, EncodedSequence};
use tabbin_core::pretrain::PretrainOptions;
use tabbin_corpus::{generate, Dataset, GenOptions};
use tabbin_index::parallel::par_chunk_map;
use tabbin_index::{
    DurabilityPolicy, EngineConfig, ExactScan, IvfRouter, LshCandidates, LshParams, QueryEngine,
    Router, ShardedStore, StoreConfig,
};
use tabbin_serve::wire::{
    decode_request, decode_response, encode_hits_payloads, encode_request, read_frame, write_frame,
};
use tabbin_serve::{Client, QueryOutcome, ReplyDemux, Request, Response, ServeConfig};
use tabbin_table::coords::assign_coordinates;

pub use tabbin_core::batch::EmbedSession;
pub use tabbin_core::variants::TabBiNFamily as Family;
pub use tabbin_index::Hit;
pub use tabbin_serve::Server;
pub use tabbin_table::Table;

pub type Store = ShardedStore;
pub type Engine = QueryEngine<ShardedStore>;

// --- the fixed configuration (echoed in every result file) -----------------

/// Hits asked for by every query.
pub const K: usize = 10;
/// Shards of every store, and cells of the router.
pub const N_SHARDS: usize = 16;
/// Corpus embeddings the router's k-means is trained on.
pub const ROUTER_SAMPLE: usize = 2048;
/// Tables the tokenizer vocabulary is trained on.
pub const FAMILY_SAMPLE: usize = 200;
/// Tables, steps and batch of the pre-training run.
pub const PRETRAIN_TABLES: usize = 64;
pub const PRETRAIN_STEPS: usize = 40;
pub const PRETRAIN_BATCH: usize = 4;
/// Group-commit window of the WAL.
pub const WAL_INTERVAL_MS: u64 = 10;
/// The server is sized for the two cores the benchmark runs on, with an
/// admission queue deep enough that a shed means overload, not a hiccup.
pub const SERVE_WORKERS: usize = 2;
pub const SERVE_IO_THREADS: usize = 1;
pub const SERVE_QUEUE: usize = 256;

/// The configuration as the result file echoes it.
pub fn config_echo() -> Vec<(&'static str, String)> {
    vec![
        ("corpus", "five Dataset profiles in equal shares, shuffled by seed".into()),
        ("model", "ModelConfig::tiny(), composite dim 4 x hidden".into()),
        (
            "family",
            format!(
                "TabBiNFamily::new on {FAMILY_SAMPLE} tables; pretrain {PRETRAIN_STEPS} steps x \
                 batch {PRETRAIN_BATCH} on {PRETRAIN_TABLES} tables"
            ),
        ),
        (
            "store",
            format!(
                "{N_SHARDS} shards, IvfRouter::train on the first {ROUTER_SAMPLE} embeddings, \
                 StoreConfig::quantized(LshParams::default_blocking()), \
                 DurabilityPolicy::Interval({WAL_INTERVAL_MS}), opened durably"
            ),
        ),
        ("engine", "EngineConfig::default()".into()),
        (
            "server",
            format!(
                "in process, workers {SERVE_WORKERS}, io_threads {SERVE_IO_THREADS}, \
                 queue_capacity {SERVE_QUEUE}, rest ServeConfig::default()"
            ),
        ),
        ("loadgen", "one connection, one sender thread, one receiver thread".into()),
        ("k", K.to_string()),
    ]
}

// --- corpus ----------------------------------------------------------------

/// `n` generated tables, the five dataset profiles in equal shares (the
/// first profiles take the remainder), in profile order; the caller
/// shuffles. The label is `dataset/topic`, the relevance class of MAP.
pub fn generate_tables(seed: u64, n: usize) -> Vec<(Table, String)> {
    let mut out = Vec::with_capacity(n);
    for (i, ds) in Dataset::ALL.into_iter().enumerate() {
        let share = n / Dataset::ALL.len() + usize::from(i < n % Dataset::ALL.len());
        let corpus = generate(ds, &GenOptions { n_tables: Some(share), seed });
        for lt in corpus.tables {
            out.push((lt.table, format!("{}/{}", ds.name(), lt.topic)));
        }
    }
    out
}

/// What of a table enters the input digest.
pub fn table_fingerprint(t: &Table) -> (&str, usize, usize) {
    (&t.caption, t.n_rows(), t.n_cols())
}

// --- core: encode and infer ------------------------------------------------

/// Tokenizer on the first [`FAMILY_SAMPLE`] tables, four models, pre-trained
/// for `steps` steps ([`PRETRAIN_STEPS`] in the benchmark) on the first
/// [`PRETRAIN_TABLES`].
pub fn build_family(tables: &[Table], seed: u64, steps: usize) -> Family {
    let mut family =
        Family::new(&tables[..FAMILY_SAMPLE.min(tables.len())], ModelConfig::tiny(), seed);
    let opts = PretrainOptions { steps, batch: PRETRAIN_BATCH, seed, ..PretrainOptions::default() };
    family.pretrain(&tables[..PRETRAIN_TABLES.min(tables.len())], &opts);
    family
}

/// Dimension of a composite table embedding.
pub fn composite_dim(family: &Family) -> usize {
    4 * family.cfg.hidden
}

/// The bulk path users are told to call.
pub fn embed_tables(family: &Family, tables: &[Table]) -> Vec<Vec<f32>> {
    BatchEncoder::new(family).embed_tables(tables)
}

/// The four encoded sequences behind one table embedding.
pub struct EncodedTable {
    caption: EncodedSequence,
    data: EncodedSequence,
    hmd: EncodedSequence,
    vmd: EncodedSequence,
}

impl EncodedTable {
    pub fn tokens(&self) -> usize {
        self.caption.len() + self.data.len() + self.hmd.len() + self.vmd.len()
    }
}

/// Encoding alone, on this thread: `encode_text` + `encode_segment` × 3.
pub fn encode_table(family: &Family, t: &Table) -> EncodedTable {
    let (tok, tagger, cfg) = (&family.tokenizer, &family.tagger, &family.cfg);
    EncodedTable {
        caption: encode_text(&t.caption, tok, tagger, cfg),
        data: encode_segment(t, SegmentKind::DataRow, tok, tagger, cfg),
        hmd: encode_segment(t, SegmentKind::Hmd, tok, tagger, cfg),
        vmd: encode_segment(t, SegmentKind::Vmd, tok, tagger, cfg),
    }
}

/// Inference alone, on this thread: the four sequences through
/// `EmbedSession::embed`, concatenated as `embed_tables` does.
pub fn infer_table(family: &Family, session: &mut EmbedSession, e: &EncodedTable) -> Vec<f32> {
    concat(&[
        session.embed(&family.row, &e.data),
        session.embed(&family.hmd, &e.hmd),
        session.embed(&family.vmd, &e.vmd),
        session.embed(&family.row, &e.caption),
    ])
}

pub fn new_session() -> EmbedSession {
    EmbedSession::new()
}

/// The encode stage of `embed_tables`, rebuilt from its public pieces with
/// the same fan-out, so a traced batch can time it apart from inference.
pub fn encode_stage(family: &Family, tables: &[Table]) -> Vec<EncodedTable> {
    par_chunk_map(tables, |part| part.iter().map(|t| encode_table(family, t)).collect())
}

/// The inference stage of `embed_tables`, rebuilt likewise: rows and
/// captions through the row model in one batch, then HMD, then VMD.
pub fn infer_stage(family: &Family, encoded: &[EncodedTable]) -> Vec<Vec<f32>> {
    let n = encoded.len();
    let mut row_in: Vec<&EncodedSequence> = Vec::with_capacity(2 * n);
    row_in.extend(encoded.iter().map(|e| &e.data));
    row_in.extend(encoded.iter().map(|e| &e.caption));
    let row_out = embed_batch_parallel(&family.row, &row_in);
    let hmd_in: Vec<&EncodedSequence> = encoded.iter().map(|e| &e.hmd).collect();
    let hmd_out = embed_batch_parallel(&family.hmd, &hmd_in);
    let vmd_in: Vec<&EncodedSequence> = encoded.iter().map(|e| &e.vmd).collect();
    let vmd_out = embed_batch_parallel(&family.vmd, &vmd_in);
    (0..n)
        .map(|i| {
            concat(&[
                row_out[i].clone(),
                hmd_out[i].clone(),
                vmd_out[i].clone(),
                row_out[n + i].clone(),
            ])
        })
        .collect()
}

// --- table, tokenizer, typeinfer (probed alone) ----------------------------

/// Cells addressed by `assign_coordinates`.
pub fn coordinate_cells(t: &Table) -> usize {
    let c = assign_coordinates(t);
    c.data.len() + c.hmd.len() + c.vmd.len()
}

/// The caption and every rendered data cell: what the tokenizer and the
/// type tagger see of a table.
pub fn table_strings(t: &Table) -> Vec<String> {
    let mut out = vec![t.caption.clone()];
    out.extend(t.data.iter_indexed().map(|(_, _, c)| c.render()));
    out
}

pub fn tokenize(family: &Family, text: &str) -> usize {
    family.tokenizer.encode(text).len()
}

pub fn tag_type(family: &Family, text: &str) -> u32 {
    family.tagger.tag(text) as u32
}

// --- index -----------------------------------------------------------------

pub type SharedRouter = Arc<IvfRouter>;

pub fn store_config() -> StoreConfig {
    StoreConfig {
        durability: DurabilityPolicy::Interval(WAL_INTERVAL_MS),
        ..StoreConfig::quantized(LshParams::default_blocking())
    }
}

/// k-means over the first [`ROUTER_SAMPLE`] embeddings, seeded as the store.
pub fn train_router(embeddings: &[Vec<f32>]) -> SharedRouter {
    let sample = &embeddings[..ROUTER_SAMPLE.min(embeddings.len())];
    Arc::new(IvfRouter::train(sample, N_SHARDS, store_config().seed))
}

/// Opens the durable store in `dir`: fresh with `router`, or recovered from
/// the snapshot and logs a previous open left there.
pub fn open_store(dir: &Path, dim: usize, router: &SharedRouter) -> io::Result<Store> {
    let router: Arc<dyn Router> = router.clone();
    ShardedStore::open_durable_with_router(dir, dim, N_SHARDS, store_config(), router)
}

pub fn upsert(store: &mut Store, id: u64, v: &[f32]) {
    store.upsert(id, v);
}

pub fn store_len(store: &Store) -> usize {
    store.len()
}

/// The stored (L2-normalised) vector of a live id.
pub fn store_get(store: &Store, id: u64) -> Option<&[f32]> {
    store.get(id)
}

pub fn checkpoint(store: &Store) -> io::Result<()> {
    store.checkpoint().map(|_| ())
}

pub fn wal_flush(store: &Store) -> io::Result<()> {
    store.wal_flush()
}

/// Pauses of every policy compaction the store ran, in seconds.
pub fn compaction_pauses(store: &Store) -> Vec<f64> {
    store.compaction_pauses()
}

pub fn new_engine(store: Store) -> Engine {
    QueryEngine::new(store, EngineConfig::default())
}

pub fn engine_query(engine: &Engine, q: &[f32]) -> Vec<Hit> {
    engine.query(q, K)
}

pub fn engine_store(engine: &Engine) -> &Store {
    engine.store()
}

/// The only way to write beside reads today: through `store_mut`, which
/// clears the whole result cache.
pub fn engine_upsert(engine: &mut Engine, id: u64, v: &[f32]) {
    engine.store_mut().upsert(id, v);
}

/// An in-memory replica of the store (a clone journals nothing).
pub fn clone_store(store: &Store) -> Store {
    store.clone()
}

/// The default plan's store call for one query: `(fetch_k, nprobe)`.
pub fn default_plan(engine: &Engine) -> (usize, usize) {
    let plan = engine.plan(K);
    (plan.fetch_k, plan.nprobe)
}

/// The store call the default plan makes (LSH source).
pub fn store_search_lsh(store: &Store, q: &[f32], fetch_k: usize, nprobe: usize) -> Vec<Hit> {
    store.search_probed(q, fetch_k, &LshCandidates, nprobe)
}

/// The same call with the exact source: the same-run baseline.
pub fn store_search_sweep(store: &Store, q: &[f32], fetch_k: usize, nprobe: usize) -> Vec<Hit> {
    store.search_probed(q, fetch_k, &ExactScan, nprobe)
}

pub fn store_search_batch(
    store: &Store,
    queries: &[Vec<f32>],
    fetch_k: usize,
    nprobe: usize,
) -> Vec<Vec<Hit>> {
    store.search_batch_probed(queries, fetch_k, &LshCandidates, nprobe)
}

/// Full fan-out exact search: a function of the live rows alone, which is
/// what a reopened store is compared on.
pub fn store_search_exact_full(store: &Store, q: &[f32]) -> Vec<Hit> {
    store.search(q, K, &ExactScan)
}

/// Shards the router would probe for an L2-normalised query.
pub fn router_probe(router: &SharedRouter, unit_q: &[f32], nprobe: usize) -> usize {
    router.probe(unit_q, nprobe, N_SHARDS).len()
}

/// Counters the benchmark differences around a phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreCounters {
    pub queries: u64,
    pub shards_probed: u64,
    pub rows_scanned: u64,
    pub compactions: u64,
    pub imbalance: f64,
}

pub fn store_counters(store: &Store) -> StoreCounters {
    let s = store.stats();
    StoreCounters {
        queries: s.queries,
        shards_probed: s.shards_probed,
        rows_scanned: s.totals().rows_scanned,
        compactions: store.compactions(),
        imbalance: s.imbalance(),
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounters {
    pub hits: u64,
    pub misses: u64,
    pub cache_len: usize,
}

pub fn engine_counters(engine: &Engine) -> EngineCounters {
    let s = engine.stats();
    EngineCounters { hits: s.cache_hits, misses: s.cache_misses, cache_len: s.cache_len }
}

/// `(depth_bytes, replay_records)` of the store's WAL.
pub fn wal_counters(store: &Store) -> (u64, u64) {
    let w = store.wal_stats().expect("the benchmark opens every store durably");
    (w.depth_bytes, w.replay_records)
}

// --- serve -----------------------------------------------------------------

pub fn bind_server(engine: Arc<Engine>) -> io::Result<Server> {
    let cfg = ServeConfig {
        workers: SERVE_WORKERS,
        io_threads: SERVE_IO_THREADS,
        queue_capacity: SERVE_QUEUE,
        ..ServeConfig::default()
    };
    Server::bind("127.0.0.1:0", engine, cfg)
}

pub fn server_addr(server: &Server) -> SocketAddr {
    server.local_addr()
}

pub fn shutdown_server(server: Server) {
    server.shutdown();
}

#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    pub shed: u64,
    pub served: u64,
    pub submitted: u64,
    pub batches: u64,
}

pub fn server_counters(server: &Server) -> ServerCounters {
    let s = server.stats();
    ServerCounters {
        shed: s.shed,
        served: s.served,
        submitted: s.batcher.submitted,
        batches: s.batcher.batches,
    }
}

/// Appends one framed `Query` request to `buf`.
pub fn frame_query(buf: &mut Vec<u8>, tag: u64, vector: &[f32]) {
    let req = Request::Query { k: K as u32, vector: vector.to_vec() };
    write_frame(buf, &encode_request(tag, &req)).expect("a query frame is far below the bound");
}

/// What came back for one tag.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    Hits(Vec<Hit>),
    Overloaded,
    Error(String),
}

/// The reading half of the raw-socket client: frames off the socket,
/// chunked replies reassembled by tag.
pub struct ReplyReader {
    reader: BufReader<TcpStream>,
    demux: ReplyDemux,
}

impl ReplyReader {
    pub fn new(stream: TcpStream) -> Self {
        Self { reader: BufReader::with_capacity(1 << 16, stream), demux: ReplyDemux::new() }
    }

    /// Blocks for the next complete reply. A read timeout set on the socket
    /// surfaces as `WouldBlock`/`TimedOut`, but only between frames: a
    /// timeout inside a frame loses the stream position.
    pub fn next(&mut self) -> io::Result<(u64, Reply)> {
        loop {
            let payload = read_frame(&mut self.reader)?;
            if let Some((tag, resp)) = self.demux.push(&payload)? {
                let reply = match resp {
                    Response::Hits { hits, .. } => Reply::Hits(hits),
                    Response::Overloaded { .. } => Reply::Overloaded,
                    Response::Error(msg) => Reply::Error(msg),
                    Response::Stats(_) => Reply::Error("stats reply to a query".into()),
                };
                return Ok((tag, reply));
            }
        }
    }

    /// Whether bytes of a further frame are already buffered.
    pub fn has_buffered(&self) -> bool {
        !self.reader.buffer().is_empty()
    }
}

/// The repository's blocking client, for one-outstanding round trips.
pub struct Blocking(Client);

impl Blocking {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Client::connect(addr).map(Self)
    }

    pub fn query(&mut self, q: &[f32]) -> io::Result<Reply> {
        Ok(match self.0.query(q, K)? {
            QueryOutcome::Hits(hits) => Reply::Hits(hits),
            QueryOutcome::Overloaded { .. } => Reply::Overloaded,
        })
    }
}

/// The four codec functions on one query and its hits; each returns what
/// the next needs, so the caller can time them one by one.
pub fn wire_encode_request(tag: u64, q: &[f32]) -> Vec<u8> {
    encode_request(tag, &Request::Query { k: K as u32, vector: q.to_vec() })
}

pub fn wire_decode_request(payload: &[u8]) -> usize {
    match decode_request(payload) {
        Ok((_, Request::Query { vector, .. })) => vector.len(),
        _ => 0,
    }
}

pub fn wire_encode_hits(tag: u64, hits: &[Hit]) -> Vec<Vec<u8>> {
    encode_hits_payloads(tag, hits)
}

pub fn wire_decode_response(payload: &[u8]) -> usize {
    match decode_response(payload) {
        Ok((_, Response::Hits { hits, .. })) => hits.len(),
        _ => 0,
    }
}

// --- eval ------------------------------------------------------------------

/// The paper's MAP, over `(ranked relevance, total relevant)` per query.
pub fn map_at_k(queries: &[(Vec<bool>, usize)]) -> f64 {
    tabbin_eval::map_at_k(queries, K)
}
