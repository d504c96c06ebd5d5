//! The four workloads: what each feeds the system, what it times, and what
//! it checks. Sizes that are counts scale with `--seconds` through constants
//! chosen so that the baseline commit spends about that long in the timed
//! phases; the inputs stay a function of the seed and the sizes alone.

use crate::inputs::{poisson_ticks, Digest, Rng, Zipf};
use crate::loadgen::{OpenLoop, Wire};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::probes::{self, ProbeInput};
use crate::quality::{self, Reference};
use crate::stats::{median, percentile, segment_percentile_ms, MIN_BEYOND};
use crate::sut::{self, Engine, Family, Reply, Server, SharedRouter, Store, Table, K};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    IngestBulk,
    SearchCold,
    SearchHot,
    MixedRw,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::IngestBulk, Workload::SearchCold, Workload::SearchHot, Workload::MixedRw];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestBulk => "ingest_bulk",
            Workload::SearchCold => "search_cold",
            Workload::SearchHot => "search_hot",
            Workload::MixedRw => "mixed_rw",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Open-loop arrival rates. Each sits near 40 % of what the baseline
/// sustains in the closed loop of the same workload, so that queueing shows
/// without the queue growing; `CALIBRATION.md` records the check.
pub const COLD_RATE_QPS: f64 = 400.0;
pub const HOT_RATE_QPS: f64 = 20_000.0;
/// 64-table batches and script operations per second of `--seconds`: what
/// the baseline commit gets through in that time.
const INGEST_BATCHES_PER_S: f64 = 84.0;
const MIXED_OPS_PER_S: f64 = 2800.0;
/// Share of script operations that write.
const MIXED_WRITE_SHARE: f64 = 0.30;
/// Round-trip spans a traced run keeps per phase or segment: the hot
/// workload answers a million requests, and the trace file is for reading.
const SPANS_PER_PHASE: usize = 2048;
/// Latency limits of the `max_rate_under_limit_qps` note.
const COLD_LIMIT_MS: f64 = 20.0;
const HOT_LIMIT_MS: f64 = 5.0;

/// Every size of a run. `full` is the benchmark; `smoke` is the 1/200-scale
/// variant the unit tests run.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Tables in the served store and in the mixed store.
    pub corpus: usize,
    /// Held-out query tables of `search_cold`: 8 × the engine's cache.
    pub heldout: usize,
    /// Held-out query tables the Zipf draws of `search_hot` and `mixed_rw`
    /// range over: fits the cache.
    pub hot_set: usize,
    /// Held-out "revised" tables `mixed_rw` overwrites rows with.
    pub revised: usize,
    /// Queries of the quality pass.
    pub quality_queries: usize,
    pub batch: usize,
    pub ingest_batches: usize,
    pub mixed_ops: usize,
    pub warm: Duration,
    /// Length of the open-loop phase.
    pub open_total: Duration,
    pub closed_seg: Duration,
    pub closed_segs: usize,
    pub rate_step: Duration,
    pub cold_rate: f64,
    pub hot_rate: f64,
    pub window: usize,
    /// Full set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    pub reopen_reps: usize,
    /// Top-10 lists compared across `ingest_bulk`'s reopen.
    pub check_lists: usize,
    pub probe_tables: usize,
    pub probe_queries: usize,
    pub pretrain_steps: usize,
    pub min_beyond: usize,
}

impl Sizes {
    pub fn full(seconds: f64) -> Self {
        let part = |share: f64| Duration::from_secs_f64(seconds * share);
        Self {
            corpus: 8192,
            heldout: 8192,
            hot_set: 768,
            revised: 2048,
            quality_queries: 512,
            batch: 64,
            ingest_batches: (INGEST_BATCHES_PER_S * seconds).round() as usize,
            mixed_ops: (MIXED_OPS_PER_S * seconds).round() as usize,
            warm: part(1.0 / 12.0),
            open_total: part(0.5),
            closed_seg: part(1.0 / 48.0),
            closed_segs: 18,
            rate_step: part(1.0 / 8.0),
            cold_rate: COLD_RATE_QPS,
            hot_rate: HOT_RATE_QPS,
            window: 16,
            setup_reps: 3,
            reopen_reps: 5,
            check_lists: 64,
            probe_tables: 1024,
            probe_queries: 256,
            pretrain_steps: sut::PRETRAIN_STEPS,
            min_beyond: MIN_BEYOND,
        }
    }

    #[cfg(test)]
    pub fn smoke() -> Self {
        let ms = Duration::from_millis;
        Self {
            corpus: 128,
            heldout: 24,
            hot_set: 12,
            revised: 16,
            quality_queries: 8,
            batch: 8,
            ingest_batches: 5,
            mixed_ops: 200,
            warm: ms(10),
            open_total: ms(100),
            closed_seg: ms(15),
            closed_segs: 3,
            rate_step: ms(15),
            cold_rate: 400.0,
            hot_rate: 2000.0,
            window: 16,
            setup_reps: 1,
            reopen_reps: 2,
            check_lists: 4,
            probe_tables: 8,
            probe_queries: 12,
            pretrain_steps: 1,
            min_beyond: 0,
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    /// Where durable stores, result files and trace files go.
    pub out_dir: PathBuf,
    /// The CPU the run is pinned to, if it is.
    pub cpu: Option<usize>,
}

/// What one run found.
pub struct Report {
    pub e2e: Metrics,
    /// Present on a traced run.
    pub layers: Option<Metrics>,
    pub attempted: u64,
    pub failed: u64,
    /// Self-checks by name; the run is correct when all hold.
    pub checks: Vec<(&'static str, bool)>,
    /// Facts worth a line in the result file that are not metrics.
    pub notes: Vec<(&'static str, f64)>,
    pub digest: u64,
    pub tracer: Option<Tracer>,
}

impl Report {
    fn new(trace: bool) -> Self {
        Self {
            e2e: Metrics::new(END_TO_END),
            layers: trace.then(|| Metrics::new(PER_LAYER)),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            notes: Vec::new(),
            digest: 0,
            tracer: trace.then(Tracer::new),
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Sets a per-layer metric; a no-op on an untraced run.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        if let Some(l) = &mut self.layers {
            l.set(name, value);
        }
    }
}

pub fn run(args: &Args, sz: &Sizes) -> Report {
    std::fs::create_dir_all(&args.out_dir).expect("create the output directory");
    let stolen_before = cpu_times(args.cpu);
    let mut report = match args.workload {
        Workload::IngestBulk => run_ingest(args, sz),
        Workload::SearchCold => run_search(false, args, sz),
        Workload::SearchHot => run_search(true, args, sz),
        Workload::MixedRw => run_mixed(args, sz),
    };
    report.e2e.set("peak_rss_mb", peak_rss_mb());
    // Time the hypervisor gave this CPU to someone else during the run: the
    // first thing to look at when a run's numbers stand apart.
    if let (Some((steal0, all0)), Some((steal1, all1))) = (stolen_before, cpu_times(args.cpu)) {
        if all1 > all0 {
            report.notes.push(("cpu_steal_share", (steal1 - steal0) as f64 / (all1 - all0) as f64));
        }
    }
    report
}

/// `(steal, total)` jiffies of `cpu` (of all CPUs for `None`) from
/// `/proc/stat`.
fn cpu_times(cpu: Option<usize>) -> Option<(u64, u64)> {
    let name = cpu.map_or("cpu".to_string(), |c| format!("cpu{c}"));
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.split_whitespace().next() == Some(name.as_str()))?;
    // user nice system idle iowait irq softirq steal; guest time is already
    // inside user.
    let fields: Vec<u64> = line.split_whitespace().skip(1).take(8).flat_map(str::parse).collect();
    (fields.len() == 8).then(|| (fields[7], fields.iter().sum()))
}

// --- shared pieces ---------------------------------------------------------

/// Generated tables (shuffled by seed) with interned labels, and the family
/// built on their head.
struct Base {
    tables: Vec<Table>,
    labels: Vec<u32>,
    family: Family,
    generate_s: f64,
}

/// The tables, and with them the model, the embeddings and the router, are
/// the same on every run: `--seed` decides what is asked of them (which
/// tables, when, in which order), not what they are. Ten seeds then measure
/// one system ten times, and a quality metric moves only when the system
/// does.
const DATA_SEED: u64 = 0x7ab1_b125;

fn build_base(n: usize, pretrain_steps: usize) -> Base {
    let t = Instant::now();
    let mut generated = sut::generate_tables(DATA_SEED, n);
    let generate_s = t.elapsed().as_secs_f64();
    Rng::fork(DATA_SEED, "shuffle").shuffle(&mut generated);
    let names: BTreeMap<&str, u32> = {
        let mut sorted: Vec<&str> = generated.iter().map(|(_, l)| l.as_str()).collect();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.into_iter().zip(0..).collect()
    };
    let labels = generated.iter().map(|(_, l)| names[l.as_str()]).collect();
    let tables: Vec<Table> = generated.into_iter().map(|(t, _)| t).collect();
    let family = sut::build_family(&tables, DATA_SEED, pretrain_steps);
    Base { tables, labels, family, generate_s }
}

fn embed_all(family: &Family, tables: &[Table]) -> Vec<Vec<f32>> {
    tables.chunks(1024).flat_map(|chunk| sut::embed_tables(family, chunk)).collect()
}

fn digest_tables(d: &mut Digest, base: &Base) {
    for t in &base.tables {
        let (caption, rows, cols) = sut::table_fingerprint(t);
        d.bytes(caption.as_bytes());
        d.u64(rows as u64);
        d.u64(cols as u64);
    }
    base.labels.iter().for_each(|&label| d.u64(u64::from(label)));
}

fn fresh_dir(path: &Path) {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).expect("create a store directory");
}

fn dir_bytes(path: &Path) -> u64 {
    std::fs::read_dir(path)
        .expect("read the store directory")
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.expect("VmHWM in /proc/self/status") / 1024.0
}

/// Runs `build` `reps` times, tearing down all but the last fixture, and
/// returns it with the median build time.
fn repeat_setup<F>(reps: usize, mut build: impl FnMut() -> F, teardown: impl Fn(F)) -> (F, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times).expect("at least one set-up"))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Sets `latency_p50_ms` and `latency_p90_ms` from latencies in the order
/// they were due: each percentile per contiguous slice of about 200
/// samples (at most 24 slices), then the median over slices, so that a
/// burst of interference moves a slice and not the result. A traced run
/// also gets the pooled p99, the highest percentile these sample counts
/// carry; it follows the machine's stalls too closely to be a gated metric.
fn set_latencies(report: &mut Report, samples: &[u64], sz: &Sizes, what: &str) {
    let slices = (samples.len() / 200).clamp(1, 24);
    let mut segs: Vec<Vec<u64>> =
        samples.chunks(samples.len().div_ceil(slices).max(1)).map(<[u64]>::to_vec).collect();
    let mut of = |per_mille| {
        segment_percentile_ms(&mut segs, per_mille, sz.min_beyond).unwrap_or_else(|| {
            panic!("{what}: {} samples cannot carry p{per_mille}", samples.len())
        })
    };
    let (p50, p90) = (of(500), of(900));
    report.e2e.set("latency_p50_ms", p50);
    report.e2e.set("latency_p90_ms", p90);
    report.layer("loadgen.latency_p99_ms", pooled_p99_ms(samples, sz, what));
}

fn pooled_p99_ms(samples: &[u64], sz: &Sizes, what: &str) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let ns = percentile(&sorted, 990, sz.min_beyond)
        .unwrap_or_else(|| panic!("{what}: {} samples cannot carry p99", samples.len()));
    ms(ns)
}

fn ids_of(hits: &[sut::Hit]) -> Vec<u64> {
    hits.iter().map(|h| h.id).collect()
}

fn same_bits(a: &[sut::Hit], b: &[sut::Hit]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.id == y.id && x.score.to_bits() == y.score.to_bits())
}

/// Recall and MAP of `returned` against the reference scan.
fn score_quality(
    reference: &Reference,
    queries: &[Vec<f32>],
    query_labels: &[u32],
    returned: &[Vec<u64>],
) -> (f64, f64) {
    let unit: Vec<Vec<f32>> = queries.iter().map(|q| quality::normalise(q)).collect();
    let recall = quality::recall(reference, &unit, returned, K);
    let map = sut::map_at_k(&quality::relevance(reference, returned, query_labels));
    (recall, map)
}

fn reference_of(dim: usize, embeddings: &[Vec<f32>], labels: &[u32]) -> Reference {
    Reference::new(
        dim,
        embeddings
            .iter()
            .zip(labels)
            .zip(0u64..)
            .map(|((e, &l), id)| (id, quality::normalise(e), l)),
    )
}

/// Store-side counters of the queries between two snapshots.
fn set_scan_counters(report: &mut Report, before: sut::StoreCounters, after: sut::StoreCounters) {
    let q = (after.queries - before.queries).max(1) as f64;
    report.layer(
        "index.rows_scanned_per_query",
        (after.rows_scanned - before.rows_scanned) as f64 / q,
    );
    report.layer(
        "index.shards_probed_per_query",
        (after.shards_probed - before.shards_probed) as f64 / q,
    );
    report.layer("index.router.imbalance", after.imbalance);
}

/// Compactions of the timed phase, and — as notes — their pauses. The
/// declared pause metrics come from the write-path probe, which compacts on
/// every workload.
fn set_compaction_counters(report: &mut Report, store: &Store, before: sut::StoreCounters) {
    let after = sut::store_counters(store);
    report.layer("index.compactions", (after.compactions - before.compactions) as f64);
    let mut pauses: Vec<u64> =
        sut::compaction_pauses(store).iter().map(|s| (s * 1e9) as u64).collect();
    pauses.sort_unstable();
    if let (Some(p50), Some(&max)) = (percentile(&pauses, 500, 0), pauses.last()) {
        report.notes.push(("timed_phase_compaction_pause_p50_ms", ms(p50)));
        report.notes.push(("timed_phase_compaction_pause_max_ms", ms(max)));
    }
}

/// What set-up measured of the layers it ran.
fn set_setup_layers(report: &mut Report, base: &Base, router_train_s: f64) {
    report.layer("corpus.generate_tables_per_s", base.tables.len() as f64 / base.generate_s);
    report.layer("index.router.train_ms", router_train_s * 1e3);
}

fn hit_share(before: sut::EngineCounters, after: sut::EngineCounters) -> f64 {
    let hits = (after.hits - before.hits) as f64;
    let all = hits + (after.misses - before.misses) as f64;
    if all == 0.0 {
        0.0
    } else {
        hits / all
    }
}

fn overhead_share(traced: &[f64], untraced: &[f64]) -> f64 {
    match (median(traced), median(untraced)) {
        (Some(t), Some(u)) if u > 0.0 => 1.0 - t / u,
        _ => 0.0,
    }
}

// --- search_cold and search_hot ----------------------------------------------

/// A corpus embedded, stored durably behind the router, and served.
struct Served {
    base: Base,
    corpus_emb: Vec<Vec<f32>>,
    query_emb: Vec<Vec<f32>>,
    router: SharedRouter,
    router_train_s: f64,
    engine: Arc<Engine>,
    server: Server,
    dir: PathBuf,
}

fn build_served(sz: &Sizes, queries: usize, dir: &Path) -> Served {
    let corpus = sz.corpus;
    fresh_dir(dir);
    let base = build_base(corpus + queries, sz.pretrain_steps);
    let mut corpus_emb = embed_all(&base.family, &base.tables);
    let query_emb = corpus_emb.split_off(corpus);
    let t = Instant::now();
    let router = sut::train_router(&corpus_emb);
    let router_train_s = t.elapsed().as_secs_f64();
    let mut store =
        sut::open_store(dir, sut::composite_dim(&base.family), &router).expect("open the store");
    for (id, e) in (0u64..).zip(&corpus_emb) {
        sut::upsert(&mut store, id, e);
    }
    sut::wal_flush(&store).expect("flush the log");
    let engine = Arc::new(sut::new_engine(store));
    let server = sut::bind_server(Arc::clone(&engine)).expect("bind the server");
    Served {
        base,
        corpus_emb,
        query_emb,
        router,
        router_train_s,
        engine,
        server,
        dir: dir.to_path_buf(),
    }
}

fn teardown_served(fx: Served) {
    sut::shutdown_server(fx.server);
    drop(fx.engine);
    let _ = std::fs::remove_dir_all(&fx.dir);
}

/// Latency samples of an open-loop phase in schedule order, failures left
/// out, plus how late the generator ran.
fn open_loop_samples(open: &OpenLoop) -> (Vec<u64>, Vec<u64>) {
    let n = open.due_ns.len();
    ((0..n).filter_map(|i| open.latency_ns(i)).collect(), (0..n).map(|i| open.late_ns(i)).collect())
}

fn run_search(hot: bool, args: &Args, sz: &Sizes) -> Report {
    let mut report = Report::new(args.trace);
    let seed = args.seed;
    let dir = args.out_dir.join(format!("store-{}-{seed}", args.workload.name()));
    let n_queries = if hot { sz.hot_set.max(sz.quality_queries) } else { sz.heldout };
    let (fx, setup_s) =
        repeat_setup(sz.setup_reps, || build_served(sz, n_queries, &dir), teardown_served);
    report.e2e.set("setup_s", setup_s);
    let dim = sut::composite_dim(&fx.base.family);
    let queries = &fx.query_emb;
    let query_labels = &fx.base.labels[sz.corpus..];

    // Inputs: which held-out table each request asks about, and when.
    let (rate, set) = if hot { (sz.hot_rate, sz.hot_set) } else { (sz.cold_rate, sz.heldout) };
    let zipf = Zipf::new(set);
    let mut pick_rng = Rng::fork(seed, "picks");
    let mut pick =
        || if hot { zipf.sample(&mut pick_rng) as u32 } else { pick_rng.below(set) as u32 };
    let due = poisson_ticks(rate, sz.open_total.as_secs_f64(), &mut Rng::fork(seed, "schedule"));
    let open_picks: Vec<u32> = due.iter().map(|_| pick()).collect();
    // The closed loop cycles through a fixed draw; the warm-up of the hot
    // workload first touches every table of the set once.
    let closed_picks: Vec<u32> = (0..65_536).map(|_| pick()).collect();
    let warm_picks: Vec<u32> = if hot {
        (0..set as u32).chain(closed_picks.iter().copied()).collect()
    } else {
        closed_picks.clone()
    };
    let mut d = Digest::new();
    digest_tables(&mut d, &fx.base);
    for (&t, &p) in due.iter().zip(&open_picks) {
        d.u64(t);
        d.u64(u64::from(p));
    }
    closed_picks.iter().for_each(|&p| d.u64(u64::from(p)));
    report.digest = d.finish();

    let mut wire = Wire::connect(sut::server_addr(&fx.server)).expect("connect to the server");
    let srv0 = sut::server_counters(&fx.server);
    let mut failed = 0u64;

    // Warm-up, closed loop: caches fill, threads start, pages fault in.
    let mut cursor = 0;
    let warm = wire
        .closed_loop(queries, &warm_picks, &mut cursor, sz.window, sz.warm, false)
        .expect("warm-up");
    failed += warm.failed as u64;
    let eng0 = sut::engine_counters(&fx.engine);
    let st0 = sut::store_counters(sut::engine_store(&fx.engine));
    let srv1 = sut::server_counters(&fx.server);

    // Open loop at the fixed rate.
    let open_at = report.tracer.as_ref().map(Tracer::now_ns);
    let open = wire.open_loop(queries, &open_picks, &due);
    failed += open.failed() as u64;
    let (lat, late) = open_loop_samples(&open);
    set_latencies(&mut report, &lat, sz, "open loop");
    let late_p99 = pooled_p99_ms(&late, sz, "lateness");
    report.notes.push(("open_loop_requests", due.len() as f64));
    report.notes.push(("open_loop_late_p99_ms", late_p99));
    if let (Some(tr), Some(at)) = (&mut report.tracer, open_at) {
        for i in (0..due.len()).filter(|&i| open.recv_ns[i] != u64::MAX).take(SPANS_PER_PHASE) {
            let (sent, recv) = (at + open.sent_ns[i], at + open.recv_ns[i]);
            tr.push("serve.roundtrip", sent, recv, 0, i as u64, false);
        }
    }

    // Closed loop, window 16. A traced run adds a segment and records the
    // send and receive time of every request in every other one.
    let segments = if args.trace { sz.closed_segs + 1 } else { sz.closed_segs };
    let (mut plain_qps, mut traced_qps) = (Vec::new(), Vec::new());
    let mut cursor = 0;
    for s in 0..segments {
        let record = args.trace && s % 2 == 1;
        let at = report.tracer.as_ref().map(Tracer::now_ns);
        let seg = wire
            .closed_loop(queries, &closed_picks, &mut cursor, sz.window, sz.closed_seg, record)
            .expect("closed loop");
        failed += seg.failed as u64;
        let qps = seg.ok_in_window as f64 / sz.closed_seg.as_secs_f64();
        if record {
            traced_qps.push(qps);
            let (tr, at) = (report.tracer.as_mut().expect("traced"), at.expect("traced"));
            for (i, &(sent, recv)) in seg.times.iter().enumerate().take(SPANS_PER_PHASE) {
                let req = ((s as u64 + 1) << 32) | i as u64;
                tr.push("serve.roundtrip", at + sent, at + recv, 0, req, false);
            }
        } else {
            plain_qps.push(qps);
        }
    }
    let saturated = median(&plain_qps).expect("closed-loop segments");
    report.e2e.set("throughput_per_s", saturated);
    let eng1 = sut::engine_counters(&fx.engine);
    let srv2 = sut::server_counters(&fx.server);
    let cache_hit_share = hit_share(eng0, eng1);
    report.notes.push(("cache_hit_share", cache_hit_share));

    // Quality pass: served answers against the engine in process and
    // against the reference scan.
    let reference = reference_of(dim, &fx.corpus_emb, &fx.base.labels[..sz.corpus]);
    let mut returned = Vec::with_capacity(sz.quality_queries);
    let mut identical = true;
    for q in &queries[..sz.quality_queries] {
        let served = match wire.round_trip(q) {
            Ok(Reply::Hits(hits)) => hits,
            _ => Vec::new(),
        };
        if !same_bits(&served, &sut::engine_query(&fx.engine, q)) {
            identical = false;
            failed += 1;
        }
        returned.push(ids_of(&served));
    }
    let st1 = sut::store_counters(sut::engine_store(&fx.engine));
    let (recall, map) =
        score_quality(&reference, &queries[..sz.quality_queries], query_labels, &returned);
    report.e2e.set("recall_at_10", recall);
    report.e2e.set("map_at_10", map);
    report
        .e2e
        .set("disk_bytes_per_user_byte", dir_bytes(&fx.dir) as f64 / (sz.corpus * dim * 4) as f64);

    let srv3 = sut::server_counters(&fx.server);
    let answered = (srv3.shed - srv0.shed) + (srv3.served - srv0.served);
    report.checks.push(("served replies are bit-identical to engine.query", identical));
    report.checks.push(("server shed + served equals the client's count", answered == wire.sent));
    report.attempted = wire.sent;
    report.failed = failed;

    if args.trace {
        // The highest of four fixed fractions of the saturated rate that
        // keeps p99 under the limit, fails nothing and builds no backlog.
        let limit_ms = if hot { HOT_LIMIT_MS } else { COLD_LIMIT_MS };
        let mut best = 0.0;
        for (step, share) in [0.25, 0.5, 0.75, 1.0].into_iter().enumerate() {
            let step_rate = saturated * share;
            // Long enough for the step's own p99 to have its ten samples.
            let step_s = sz.rate_step.as_secs_f64().max((110 * sz.min_beyond) as f64 / step_rate);
            let due = poisson_ticks(
                step_rate,
                step_s,
                &mut Rng::fork(seed, &format!("rate-step-{step}")),
            );
            let picks: Vec<u32> = due.iter().map(|_| pick()).collect();
            let res = wire.open_loop(queries, &picks, &due);
            let (mut lat, _) = open_loop_samples(&res);
            let fifth = (lat.len() / 5).max(1).min(lat.len());
            let median_ms = |part: &[u64]| median(&part.iter().map(|&x| ms(x)).collect::<Vec<_>>());
            let (head, tail) = (median_ms(&lat[..fifth]), median_ms(&lat[lat.len() - fifth..]));
            let steady = matches!((head, tail), (Some(h), Some(t)) if t <= 2.0 * h + 1.0);
            lat.sort_unstable();
            let p99 = percentile(&lat, 990, sz.min_beyond).map(ms);
            if res.failed() == 0 && steady && p99.is_some_and(|p| p <= limit_ms) {
                best = step_rate;
            } else {
                break;
            }
        }
        report.notes.push(("max_rate_under_limit_qps", best));
        set_setup_layers(&mut report, &fx.base, fx.router_train_s);
        report.layer("index.engine.cache_hit_share", cache_hit_share);
        let batches = (srv2.batches - srv1.batches).max(1) as f64;
        report.layer(
            "index.batcher.queries_per_batch",
            (srv2.submitted - srv1.submitted) as f64 / batches,
        );
        report.layer("serve.shed", (srv3.shed - srv0.shed) as f64);
        report.layer("serve.served", (srv3.served - srv0.served) as f64);
        report.layer("trace.overhead_share", overhead_share(&traced_qps, &plain_qps));
        report.layer("index.engine.cache_len_after_write", 0.0);
        set_scan_counters(&mut report, st0, st1);
        set_compaction_counters(&mut report, sut::engine_store(&fx.engine), st0);
        let input = ProbeInput {
            family: &fx.base.family,
            tables: &fx.base.tables[..sz.probe_tables.min(sz.corpus)],
            embeddings: &fx.corpus_emb,
            router: &fx.router,
            engine: &fx.engine,
            server: &fx.server,
            reference: &reference,
            scratch: &args.out_dir.join(format!("probe-{}-{seed}", args.workload.name())),
        };
        probes::run(&input, sz, &mut report);
    }
    teardown_served(fx);
    report
}

// --- ingest_bulk -------------------------------------------------------------

struct IngestFixture {
    base: Base,
    router: SharedRouter,
    router_train_s: f64,
    query_emb: Vec<Vec<f32>>,
    /// The id of the table at each place of the arrival order.
    ids: Vec<u64>,
    store: Store,
    dir: PathBuf,
}

fn build_ingest(seed: u64, sz: &Sizes, dir: &Path) -> IngestFixture {
    let (pool, queries) = (sz.ingest_batches * sz.batch, sz.quality_queries);
    fresh_dir(dir);
    let mut base = build_base(pool + queries, sz.pretrain_steps);
    let sample = embed_all(&base.family, &base.tables[..sut::ROUTER_SAMPLE.min(pool)]);
    let t = Instant::now();
    let router = sut::train_router(&sample);
    let router_train_s = t.elapsed().as_secs_f64();
    let query_emb = embed_all(&base.family, &base.tables[pool..]);
    // The seed decides the order the pool arrives in. A table keeps the id
    // it has in the generated order (which `base.labels` stays in), so
    // every seed builds the same store by a different route.
    let mut order: Vec<usize> = (0..pool).collect();
    Rng::fork(seed, "ingest-order").shuffle(&mut order);
    let mut tables: Vec<Option<Table>> = base.tables.drain(..pool).map(Some).collect();
    let heldout = std::mem::take(&mut base.tables);
    base.tables = order.iter().map(|&i| tables[i].take().expect("a permutation")).collect();
    base.tables.extend(heldout);
    let ids = order.into_iter().map(|i| i as u64).collect();
    let store =
        sut::open_store(dir, sut::composite_dim(&base.family), &router).expect("open the store");
    IngestFixture { base, router, router_train_s, query_emb, ids, store, dir: dir.to_path_buf() }
}

fn run_ingest(args: &Args, sz: &Sizes) -> Report {
    let mut report = Report::new(args.trace);
    let seed = args.seed;
    let dir = args.out_dir.join(format!("store-{}-{seed}", args.workload.name()));
    let pool = sz.ingest_batches * sz.batch;
    let (fx, setup_s) = repeat_setup(
        sz.setup_reps,
        || build_ingest(seed, sz, &dir),
        |fx| {
            drop(fx.store);
            let _ = std::fs::remove_dir_all(&fx.dir);
        },
    );
    report.e2e.set("setup_s", setup_s);
    let IngestFixture { base, router, router_train_s, query_emb, ids, mut store, dir } = fx;
    let dim = sut::composite_dim(&base.family);
    let mut d = Digest::new();
    digest_tables(&mut d, &base);
    ids.iter().for_each(|&id| d.u64(id));
    report.digest = d.finish();

    // Timed loop: embed a batch, upsert its rows, acknowledge. A traced run
    // sends every other batch through the rebuilt encode and infer stages,
    // one span each.
    let checkpoint_after = sz.ingest_batches * 3 / 4;
    let mut embeddings: Vec<Vec<f32>> = Vec::with_capacity(pool);
    let mut acks = Vec::with_capacity(sz.ingest_batches);
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
    let start = Instant::now();
    for (b, tables) in base.tables[..pool].chunks(sz.batch).enumerate() {
        let t = Instant::now();
        let traced = args.trace && b % 2 == 1;
        let batch_ids = &ids[b * sz.batch..][..tables.len()];
        if traced {
            let tr = report.tracer.as_mut().expect("traced");
            let batch_span = tr.open("ingest.batch", 0, b as u64);
            let encoded = tr.span("core.encode", batch_span, b as u64, false, || {
                sut::encode_stage(&base.family, tables)
            });
            let embs = tr.span("core.infer", batch_span, b as u64, false, || {
                sut::infer_stage(&base.family, &encoded)
            });
            tr.span("index.upsert", batch_span, b as u64, false, || {
                for (&id, e) in batch_ids.iter().zip(&embs) {
                    sut::upsert(&mut store, id, e);
                }
            });
            tr.close(batch_span);
            embeddings.extend(embs);
        } else {
            let embs = sut::embed_tables(&base.family, tables);
            for (&id, e) in batch_ids.iter().zip(&embs) {
                sut::upsert(&mut store, id, e);
            }
            embeddings.extend(embs);
        }
        if b + 1 == checkpoint_after {
            sut::checkpoint(&store).expect("checkpoint");
        }
        let ns = t.elapsed().as_nanos() as u64;
        acks.push(ns);
        if traced {
            traced_ns += ns;
        } else {
            plain_ns += ns;
        }
    }
    sut::wal_flush(&store).expect("final flush");
    let wall = start.elapsed().as_secs_f64();
    report.e2e.set("throughput_per_s", pool as f64 / wall);
    set_latencies(&mut report, &acks, sz, "batch acks");
    report.e2e.set("disk_bytes_per_user_byte", dir_bytes(&dir) as f64 / (pool * dim * 4) as f64);
    report.notes.push(("ingest_wall_s", wall));
    if let Some(tr) = &report.tracer {
        let covered = (tr.total_ns("core.encode") + tr.total_ns("core.infer")) as f64;
        report.notes.push(("core_span_share_of_traced_batches", covered / traced_ns.max(1) as f64));
    }

    // Drop and reopen: the recovered store must hold the same rows and
    // answer the same.
    let lists = sz.check_lists.min(query_emb.len());
    let len_before = sut::store_len(&store);
    let before: Vec<Vec<sut::Hit>> =
        query_emb[..lists].iter().map(|q| sut::store_search_exact_full(&store, q)).collect();
    drop(store);
    let mut reopen_ms = Vec::new();
    let mut store = None;
    for _ in 0..sz.reopen_reps {
        drop(store.take());
        let t = Instant::now();
        store = Some(sut::open_store(&dir, dim, &router).expect("reopen the store"));
        reopen_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let store = store.expect("at least one reopen");
    let same_rows = sut::store_len(&store) == len_before && len_before == pool;
    let same_answers = query_emb[..lists]
        .iter()
        .zip(&before)
        .all(|(q, b)| same_bits(&sut::store_search_exact_full(&store, q), b));
    report.checks.push(("the reopened store holds every ingested row", same_rows));
    report.checks.push(("the reopened store answers as before the drop", same_answers));
    report.notes.push(("reopen_ms", median(&reopen_ms).expect("reopened")));

    // Quality of what was ingested, through the engine's default plan.
    let engine = Arc::new(sut::new_engine(store));
    let mut by_id = vec![Vec::new(); pool];
    for (e, &id) in embeddings.into_iter().zip(&ids) {
        by_id[id as usize] = e;
    }
    let embeddings = by_id;
    let reference = reference_of(dim, &embeddings, &base.labels[..pool]);
    let eng0 = sut::engine_counters(&engine);
    let st0 = sut::store_counters(sut::engine_store(&engine));
    let returned: Vec<Vec<u64>> =
        query_emb.iter().map(|q| ids_of(&sut::engine_query(&engine, q))).collect();
    let st1 = sut::store_counters(sut::engine_store(&engine));
    let (recall, map) = score_quality(&reference, &query_emb, &base.labels[pool..], &returned);
    report.e2e.set("recall_at_10", recall);
    report.e2e.set("map_at_10", map);
    report.attempted = sz.ingest_batches as u64 + query_emb.len() as u64;
    report.failed = returned.iter().filter(|r| r.len() != K.min(pool)).count() as u64;

    if args.trace {
        let per_batch = |ns: u64, batches: usize| ns as f64 / batches.max(1) as f64;
        let traced_batches = sz.ingest_batches / 2;
        let plain = per_batch(plain_ns, sz.ingest_batches - traced_batches);
        let traced = per_batch(traced_ns, traced_batches);
        report.layer("trace.overhead_share", if traced > 0.0 { 1.0 - plain / traced } else { 0.0 });
        set_setup_layers(&mut report, &base, router_train_s);
        report
            .layer("index.engine.cache_hit_share", hit_share(eng0, sut::engine_counters(&engine)));
        report.layer("index.engine.cache_len_after_write", 0.0);
        set_scan_counters(&mut report, st0, st1);
        set_compaction_counters(&mut report, sut::engine_store(&engine), st0);
        let server = sut::bind_server(Arc::clone(&engine)).expect("bind the probe server");
        let srv0 = sut::server_counters(&server);
        let input = ProbeInput {
            family: &base.family,
            tables: &base.tables[..sz.probe_tables.min(pool)],
            embeddings: &embeddings,
            router: &router,
            engine: &engine,
            server: &server,
            reference: &reference,
            scratch: &args.out_dir.join(format!("probe-{}-{seed}", args.workload.name())),
        };
        probes::run(&input, sz, &mut report);
        set_probe_server_counters(&mut report, srv0, sut::server_counters(&server));
        sut::shutdown_server(server);
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// On the workloads that serve nothing in their timed phase, the serve
/// counters are those of the probes' own round trips.
fn set_probe_server_counters(
    report: &mut Report,
    before: sut::ServerCounters,
    after: sut::ServerCounters,
) {
    report.layer("serve.shed", (after.shed - before.shed) as f64);
    report.layer("serve.served", (after.served - before.served) as f64);
    let batches = (after.batches - before.batches).max(1) as f64;
    report.layer(
        "index.batcher.queries_per_batch",
        (after.submitted - before.submitted) as f64 / batches,
    );
}

// --- mixed_rw ------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Op {
    /// Query by held-out table `.0` of the hot set.
    Read(u32),
    /// Overwrite row `id` with revised table `rev`.
    Write { id: u32, rev: u32 },
}

struct MixedFixture {
    base: Base,
    corpus_emb: Vec<Vec<f32>>,
    hot_emb: Vec<Vec<f32>>,
    revised_emb: Vec<Vec<f32>>,
    router: SharedRouter,
    router_train_s: f64,
    engine: Engine,
    dir: PathBuf,
}

fn build_mixed(sz: &Sizes, dir: &Path) -> MixedFixture {
    fresh_dir(dir);
    let hot = sz.hot_set.max(sz.quality_queries);
    let base = build_base(sz.corpus + hot + sz.revised, sz.pretrain_steps);
    let mut corpus_emb = embed_all(&base.family, &base.tables);
    let mut hot_emb = corpus_emb.split_off(sz.corpus);
    let revised_emb = hot_emb.split_off(hot);
    let t = Instant::now();
    let router = sut::train_router(&corpus_emb);
    let router_train_s = t.elapsed().as_secs_f64();
    let mut store =
        sut::open_store(dir, sut::composite_dim(&base.family), &router).expect("open the store");
    for (id, e) in (0u64..).zip(&corpus_emb) {
        sut::upsert(&mut store, id, e);
    }
    sut::wal_flush(&store).expect("flush the log");
    let engine = sut::new_engine(store);
    MixedFixture {
        base,
        corpus_emb,
        hot_emb,
        revised_emb,
        router,
        router_train_s,
        engine,
        dir: dir.to_path_buf(),
    }
}

fn run_mixed(args: &Args, sz: &Sizes) -> Report {
    /// Operations per traced or untraced stretch of a traced run.
    const TRACE_BLOCK: usize = 256;
    let mut report = Report::new(args.trace);
    let seed = args.seed;
    let dir = args.out_dir.join(format!("store-{}-{seed}", args.workload.name()));
    let (fx, setup_s) = repeat_setup(
        sz.setup_reps,
        || build_mixed(sz, &dir),
        |fx| {
            drop(fx.engine);
            let _ = std::fs::remove_dir_all(&fx.dir);
        },
    );
    report.e2e.set("setup_s", setup_s);
    let MixedFixture {
        base,
        corpus_emb,
        hot_emb,
        revised_emb,
        router,
        router_train_s,
        mut engine,
        dir,
    } = fx;
    let dim = sut::composite_dim(&base.family);
    let hot = hot_emb.len();
    let revised_labels = &base.labels[sz.corpus + hot..];

    // The script.
    let zipf = Zipf::new(sz.hot_set);
    let mut rng = Rng::fork(seed, "script");
    let ops: Vec<Op> = (0..sz.mixed_ops)
        .map(|_| {
            if rng.unit() < MIXED_WRITE_SHARE {
                Op::Write { id: rng.below(sz.corpus) as u32, rev: rng.below(sz.revised) as u32 }
            } else {
                Op::Read(zipf.sample(&mut rng) as u32)
            }
        })
        .collect();
    let mut d = Digest::new();
    digest_tables(&mut d, &base);
    for op in &ops {
        match *op {
            Op::Read(q) => d.u64(u64::from(q)),
            Op::Write { id, rev } => d.u64(1 << 40 | u64::from(id) << 20 | u64::from(rev)),
        }
    }
    report.digest = d.finish();

    // The reference model: what each id must hold after the script.
    let mut model: BTreeMap<u64, (Vec<f32>, u32)> = (0u64..)
        .zip(corpus_emb.iter().zip(&base.labels))
        .map(|(id, (e, &l))| (id, (quality::normalise(e), l)))
        .collect();

    let eng0 = sut::engine_counters(&engine);
    let st0 = sut::store_counters(sut::engine_store(&engine));
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let (mut plain, mut traced) = ((0u64, 0usize), (0u64, 0usize));
    let (mut cache_len_sum, mut cache_len_n) = (0usize, 0usize);
    let mut short_reads = 0u64;
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let tracing = args.trace && (i / TRACE_BLOCK) % 2 == 1;
        let begin = if tracing { report.tracer.as_ref().map(Tracer::now_ns) } else { None };
        let t = Instant::now();
        let name = match *op {
            Op::Read(q) => {
                let hits = sut::engine_query(&engine, &hot_emb[q as usize]);
                short_reads += u64::from(hits.len() != K);
                "index.engine.query"
            }
            Op::Write { id, rev } => {
                sut::engine_upsert(&mut engine, u64::from(id), &revised_emb[rev as usize]);
                "index.upsert"
            }
        };
        let ns = t.elapsed().as_nanos() as u64;
        match op {
            Op::Read(_) => reads.push(ns),
            Op::Write { .. } => writes.push(ns),
        }
        if let Some(begin) = begin {
            let tr = report.tracer.as_mut().expect("traced");
            tr.push(name, begin, begin + ns, 0, i as u64, false);
            if matches!(op, Op::Write { .. }) {
                cache_len_sum += sut::engine_counters(&engine).cache_len;
                cache_len_n += 1;
            }
            traced = (traced.0 + ns, traced.1 + 1);
        } else {
            plain = (plain.0 + ns, plain.1 + 1);
        }
        if let Op::Write { id, rev } = *op {
            let unit = quality::normalise(&revised_emb[rev as usize]);
            model.insert(u64::from(id), (unit, revised_labels[rev as usize]));
        }
    }
    sut::wal_flush(sut::engine_store(&engine)).expect("final flush");
    let wall = start.elapsed().as_secs_f64();
    let eng1 = sut::engine_counters(&engine);
    let st1 = sut::store_counters(sut::engine_store(&engine));
    report.e2e.set("throughput_per_s", ops.len() as f64 / wall);
    set_latencies(&mut report, &reads, sz, "reads");
    report.notes.push(("mixed_wall_s", wall));
    report.notes.push(("reads", reads.len() as f64));
    report.notes.push(("writes", writes.len() as f64));
    writes.sort_unstable();
    if let Some(p) = percentile(&writes, 999, sz.min_beyond) {
        report.notes.push(("write_p999_ms", ms(p)));
    }
    report.notes.push(("compactions", (st1.compactions - st0.compactions) as f64));
    report.notes.push(("cache_hit_share", hit_share(eng0, eng1)));

    // The store against the model: same ids, same vectors.
    let store = sut::engine_store(&engine);
    let rows_match = sut::store_len(store) == model.len()
        && model.iter().all(|(&id, (unit, _))| {
            sut::store_get(store, id)
                .is_some_and(|got| got.iter().zip(unit).all(|(a, b)| (a - b).abs() <= 1e-6))
        });
    report.checks.push(("the store equals the reference model after the script", rows_match));
    let live = model.len();
    report.e2e.set("disk_bytes_per_user_byte", dir_bytes(&dir) as f64 / (live * dim * 4) as f64);

    // Quality after the last operation.
    let reference = Reference::new(dim, model.into_iter().map(|(id, (unit, l))| (id, unit, l)));
    let quality_q = &hot_emb[..sz.quality_queries];
    let returned: Vec<Vec<u64>> =
        quality_q.iter().map(|q| ids_of(&sut::engine_query(&engine, q))).collect();
    let query_labels = &base.labels[sz.corpus..sz.corpus + sz.quality_queries];
    let (recall, map) = score_quality(&reference, quality_q, query_labels, &returned);
    report.e2e.set("recall_at_10", recall);
    report.e2e.set("map_at_10", map);
    report.attempted = ops.len() as u64 + quality_q.len() as u64;
    report.failed = short_reads + returned.iter().filter(|r| r.len() != K).count() as u64;

    let engine = Arc::new(engine);
    if args.trace {
        let per_op = |(ns, n): (u64, usize)| ns as f64 / n.max(1) as f64;
        let (p, t) = (per_op(plain), per_op(traced));
        report.layer("trace.overhead_share", if t > 0.0 { 1.0 - p / t } else { 0.0 });
        set_setup_layers(&mut report, &base, router_train_s);
        report.layer("index.engine.cache_hit_share", hit_share(eng0, eng1));
        report.layer(
            "index.engine.cache_len_after_write",
            cache_len_sum as f64 / cache_len_n.max(1) as f64,
        );
        set_scan_counters(&mut report, st0, st1);
        set_compaction_counters(&mut report, sut::engine_store(&engine), st0);
        let server = sut::bind_server(Arc::clone(&engine)).expect("bind the probe server");
        let srv0 = sut::server_counters(&server);
        let input = ProbeInput {
            family: &base.family,
            tables: &base.tables[..sz.probe_tables.min(sz.corpus)],
            embeddings: &corpus_emb,
            router: &router,
            engine: &engine,
            server: &server,
            reference: &reference,
            scratch: &args.out_dir.join(format!("probe-{}-{seed}", args.workload.name())),
        };
        probes::run(&input, sz, &mut report);
        set_probe_server_counters(&mut report, srv0, sut::server_counters(&server));
        sut::shutdown_server(server);
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, seed: u64, trace: bool) -> Report {
        // Tests run on parallel threads: each run gets a directory of its own.
        static RUNS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let run_no = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("e2e-test-{}-{run_no}", workload.name()));
        let report = run(
            &Args { workload, seed, trace, out_dir: out_dir.clone(), cpu: None },
            &Sizes::smoke(),
        );
        let _ = std::fs::remove_dir_all(&out_dir);
        report
    }

    /// A 1/200-scale run of one workload, untraced and traced, and once more
    /// on a second seed. Every declared metric comes out once and finite
    /// (`in_order` panics on a missing one, `set` on a double or non-finite
    /// one), nothing fails, every self-check holds; the seed decides the
    /// inputs and the counts, tracing does not.
    fn check_smoke(workload: Workload) {
        let (plain, traced, other) =
            (smoke(workload, 42, false), smoke(workload, 42, true), smoke(workload, 7, false));
        for (report, trace) in [(&plain, false), (&traced, true), (&other, false)] {
            let what = format!("{} trace {trace}", workload.name());
            assert_eq!(report.e2e.in_order().len(), END_TO_END.len(), "{what}");
            assert_eq!(report.layers.is_some(), trace, "{what}");
            if let Some(layers) = &report.layers {
                assert_eq!(layers.in_order().len(), PER_LAYER.len(), "{what}");
            }
            assert!(report.correct(), "{what}: {:?}", report.checks);
            assert!(!report.checks.is_empty(), "{what}");
            assert_eq!(report.failed, 0, "{what}");
            assert!(report.attempted > 0, "{what}");
            for (name, value, _) in report.e2e.in_order() {
                assert!(value > 0.0, "{what}: {name} is {value}");
            }
            assert_eq!(
                report.tracer.as_ref().is_some_and(|t| !t.spans().is_empty()),
                trace,
                "{what}"
            );
        }
        assert_eq!(plain.digest, traced.digest, "{}", workload.name());
        assert_ne!(plain.digest, other.digest, "{}", workload.name());
        for exact in ["recall_at_10", "map_at_10", "disk_bytes_per_user_byte"] {
            assert_eq!(plain.e2e.get(exact), traced.e2e.get(exact), "{} {exact}", workload.name());
        }
    }

    #[test]
    fn smoke_ingest_bulk() {
        check_smoke(Workload::IngestBulk);
    }

    #[test]
    fn smoke_search_cold() {
        check_smoke(Workload::SearchCold);
    }

    #[test]
    fn smoke_search_hot() {
        check_smoke(Workload::SearchHot);
    }

    #[test]
    fn smoke_mixed_rw() {
        check_smoke(Workload::MixedRw);
    }
}
