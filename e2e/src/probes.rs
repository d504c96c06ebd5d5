//! Per-layer probes of a traced run: each layer's public functions timed
//! alone, from outside, on the workload's own tables, embeddings, store and
//! server, after the timed phase. Every workload runs the same probes, so a
//! layer metric means the same thing on each; what differs is the state
//! they find (store size, tombstones, cache contents).

use crate::quality::{self, Reference};
use crate::stats::median;
use crate::sut::{self, Blocking, Engine, Family, Reply, Server, SharedRouter, Table};
use crate::workloads::{Report, Sizes};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct ProbeInput<'a> {
    pub family: &'a Family,
    /// Tables the table, tokenizer, typeinfer and core probes run over.
    pub tables: &'a [Table],
    /// Embeddings of stored rows: rows of the write-path probe, and — never
    /// having been asked before — the cold queries of the read-path probe.
    pub embeddings: &'a [Vec<f32>],
    pub router: &'a SharedRouter,
    pub engine: &'a Arc<Engine>,
    pub server: &'a Server,
    pub reference: &'a Reference,
    /// Directory the write-path probe may create and remove.
    pub scratch: &'a Path,
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn median_us(ns: &[u64]) -> f64 {
    median(&ns.iter().map(|&x| x as f64 / 1e3).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Times `f` once as a span named `name` and returns its seconds.
fn timed(report: &mut Report, name: &'static str, f: impl FnOnce()) -> f64 {
    let tr = report.tracer.as_mut().expect("probes run on traced runs");
    let t = Instant::now();
    tr.span(name, 0, 0, false, f);
    t.elapsed().as_secs_f64()
}

pub fn run(input: &ProbeInput<'_>, sz: &Sizes, report: &mut Report) {
    embed_path(input, sz, report);
    write_path(input, sz, report);
    read_path(input, sz, report);
}

/// table → tokenizer / typeinfer → core, one layer at a time.
fn embed_path(input: &ProbeInput<'_>, sz: &Sizes, report: &mut Report) {
    let (family, tables) = (input.family, input.tables);
    let n = tables.len() as f64;

    let mut cells = 0;
    let s = timed(report, "table.coords", || {
        cells = tables.iter().map(sut::coordinate_cells).sum::<usize>();
    });
    std::hint::black_box(cells);
    report.layer("table.coords_us_per_table", us(s) / n);

    let strings: Vec<Vec<String>> = tables.iter().map(sut::table_strings).collect();
    let mut pieces = 0;
    let s = timed(report, "tokenizer.encode", || {
        pieces = strings.iter().flatten().map(|t| sut::tokenize(family, t)).sum::<usize>();
    });
    std::hint::black_box(pieces);
    report.layer("tokenizer.encode_us_per_table", us(s) / n);
    let mut tags = 0;
    let s = timed(report, "typeinfer.tag", || {
        tags = strings.iter().flatten().map(|t| sut::tag_type(family, t)).sum::<u32>();
    });
    std::hint::black_box(tags);
    report.layer("typeinfer.tag_us_per_table", us(s) / n);

    let mut encoded = Vec::new();
    let encode_s = timed(report, "core.encode", || {
        encoded = tables.iter().map(|t| sut::encode_table(family, t)).collect();
    });
    report.layer("core.encode_us_per_table", us(encode_s) / n);
    let tokens: usize = encoded.iter().map(sut::EncodedTable::tokens).sum();
    report.layer("core.tokens_per_table", tokens as f64 / n);
    let mut session = sut::new_session();
    let infer_s = timed(report, "core.infer", || {
        for e in &encoded {
            std::hint::black_box(sut::infer_table(family, &mut session, e));
        }
    });
    report.layer("core.infer_us_per_table", us(infer_s) / n);

    let b64_s = timed(report, "core.embed_tables.b64", || {
        for chunk in tables.chunks(sz.batch) {
            std::hint::black_box(sut::embed_tables(family, chunk));
        }
    });
    report.layer("core.embed_tables_per_s_b64", n / b64_s);
    let b1024_s = timed(report, "core.embed_tables.b1024", || {
        std::hint::black_box(sut::embed_tables(family, tables));
    });
    report.layer("core.embed_tables_per_s_b1024", n / b1024_s);
    // What the batch call spends beyond the single-thread work spread over
    // the threads it may use: fan-out, joins, copies.
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get().min(8)) as f64;
    report.layer("core.batch_overhead_share", 1.0 - (encode_s + infer_s) / threads / b64_s);
}

/// upsert → WAL → checkpoint → recovery → compaction, on a store of its own.
fn write_path(input: &ProbeInput<'_>, sz: &Sizes, report: &mut Report) {
    let rows = &input.embeddings[..input.embeddings.len().min(sz.corpus)];
    let dim = sut::composite_dim(input.family);
    let _ = std::fs::remove_dir_all(input.scratch);
    std::fs::create_dir_all(input.scratch).expect("create the probe directory");
    let mut store =
        sut::open_store(input.scratch, dim, input.router).expect("open the probe store");
    let head = rows.len() * 3 / 4;
    let mut upsert_s = timed(report, "index.upsert", || {
        for (id, e) in (0u64..).zip(&rows[..head]) {
            sut::upsert(&mut store, id, e);
        }
    });
    let (depth, _) = sut::wal_counters(&store);
    let checkpoint_s =
        timed(report, "index.checkpoint", || sut::checkpoint(&store).expect("probe checkpoint"));
    upsert_s += timed(report, "index.upsert", || {
        for (id, e) in (head as u64..).zip(&rows[head..]) {
            sut::upsert(&mut store, id, e);
        }
    });
    let flush_s = timed(report, "index.wal.flush", || sut::wal_flush(&store).expect("probe flush"));
    drop(store);
    let mut reopen_ms = Vec::new();
    let mut store = None;
    for _ in 0..sz.reopen_reps {
        drop(store.take());
        let s = timed(report, "index.recover", || {
            store = Some(sut::open_store(input.scratch, dim, input.router).expect("probe reopen"));
        });
        reopen_ms.push(s * 1e3);
    }
    let mut store = store.expect("reopened");
    let replayed = sut::wal_counters(&store).1;
    // Overwrite every second row with its neighbour's vector: half of each
    // shard turns to tombstones, so the compaction policy runs in all.
    timed(report, "index.upsert.overwrite", || {
        for (id, e) in (0u64..).zip(rows).skip(1).step_by(2) {
            sut::upsert(&mut store, id - 1, e);
        }
    });
    let mut pauses: Vec<f64> = sut::compaction_pauses(&store).iter().map(|s| s * 1e3).collect();
    pauses.sort_by(f64::total_cmp);
    drop(store);
    let _ = std::fs::remove_dir_all(input.scratch);
    report.layer("index.compaction_pause_p50_ms", median(&pauses).unwrap_or(0.0));
    report.layer("index.compaction_pause_max_ms", pauses.last().copied().unwrap_or(0.0));
    report.layer("index.upsert_us_per_row", us(upsert_s) / rows.len() as f64);
    report.layer("index.wal.bytes_per_row", depth as f64 / head.max(1) as f64);
    report.layer("index.checkpoint_ms", checkpoint_s * 1e3);
    report.layer("index.wal.flush_ms", flush_s * 1e3);
    report.layer("index.recover_ms", median(&reopen_ms).expect("reopened"));
    report.layer("index.wal.replay_records", replayed as f64);
}

/// wire → router → store → engine, one query at a time. Each cold round
/// trip is a root span; the same query replayed in process through each
/// layer hangs below it, so the round trip's self time is what the two
/// residual metrics report.
fn read_path(input: &ProbeInput<'_>, sz: &Sizes, report: &mut Report) {
    let queries = &input.embeddings[..input.embeddings.len().min(sz.probe_queries)];
    let store = sut::engine_store(input.engine);
    let (fetch_k, nprobe) = sut::default_plan(input.engine);
    // The engine probes need a cache of their own: the server's would
    // already hold what the round trip just asked.
    let replica = sut::new_engine(sut::clone_store(store));
    let mut client = Blocking::connect(sut::server_addr(input.server)).expect("probe connection");
    let tr = report.tracer.as_mut().expect("probes run on traced runs");

    let mut ns: std::collections::BTreeMap<&'static str, Vec<u64>> = Default::default();
    let mut all_hits = true;
    for (i, q) in (0u64..).zip(queries) {
        let begin = tr.now_ns();
        all_hits &= matches!(client.query(q), Ok(Reply::Hits(_)));
        let end = tr.now_ns();
        let root = tr.push("serve.roundtrip.cold", begin, end, 0, i, false);
        ns.entry("serve.roundtrip.cold").or_default().push(end - begin);
        let mut replay = |name: &'static str, f: &mut dyn FnMut()| {
            let begin = tr.now_ns();
            f();
            let end = tr.now_ns();
            tr.push(name, begin, end, root, i, true);
            ns.entry(name).or_default().push(end - begin);
        };
        let unit = quality::normalise(q);
        let mut payload = Vec::new();
        replay("serve.wire.encode_request", &mut || payload = sut::wire_encode_request(i + 1, q));
        replay("serve.wire.decode_request", &mut || {
            std::hint::black_box(sut::wire_decode_request(&payload));
        });
        replay("index.router.probe", &mut || {
            std::hint::black_box(sut::router_probe(input.router, &unit, nprobe));
        });
        replay("index.store.lsh", &mut || {
            std::hint::black_box(sut::store_search_lsh(store, q, fetch_k, nprobe));
        });
        let mut hits = Vec::new();
        replay("index.engine.miss", &mut || hits = sut::engine_query(&replica, q));
        let mut frames = Vec::new();
        replay("serve.wire.encode_hits", &mut || frames = sut::wire_encode_hits(i + 1, &hits));
        replay("serve.wire.decode_response", &mut || {
            std::hint::black_box(sut::wire_decode_response(&frames[0]));
        });
    }
    // Second pass: both caches now hold every query.
    for (i, q) in (0u64..).zip(queries) {
        let begin = tr.now_ns();
        all_hits &= matches!(client.query(q), Ok(Reply::Hits(_)));
        let end = tr.now_ns();
        tr.push("serve.roundtrip.hot", begin, end, 0, i, false);
        ns.entry("serve.roundtrip.hot").or_default().push(end - begin);
        let begin = tr.now_ns();
        std::hint::black_box(sut::engine_query(&replica, q));
        let end = tr.now_ns();
        tr.push("index.engine.hit", begin, end, 0, i, true);
        ns.entry("index.engine.hit").or_default().push(end - begin);
    }
    for q in queries {
        let t = Instant::now();
        std::hint::black_box(sut::store_search_sweep(store, q, fetch_k, nprobe));
        ns.entry("index.store.sweep").or_default().push(t.elapsed().as_nanos() as u64);
    }
    let mut batch_ns = Vec::new();
    for chunk in queries.chunks(64) {
        let t = Instant::now();
        std::hint::black_box(sut::store_search_batch(store, chunk, fetch_k, nprobe));
        batch_ns.push(t.elapsed().as_nanos() as u64 / chunk.len() as u64);
    }
    for q in &queries[..queries.len().min(64)] {
        let unit = quality::normalise(q);
        let t = Instant::now();
        std::hint::black_box(input.reference.top_k(&unit, sut::K));
        ns.entry("reference.scan").or_default().push(t.elapsed().as_nanos() as u64);
    }
    report.checks.push(("every probe round trip returned hits", all_hits));

    let of = |name: &str| median_us(&ns[name]);
    let mut codec_us = 0.0;
    for (span, metric) in [
        ("serve.wire.encode_request", "serve.wire.encode_request_us"),
        ("serve.wire.decode_request", "serve.wire.decode_request_us"),
        ("serve.wire.encode_hits", "serve.wire.encode_hits_us"),
        ("serve.wire.decode_response", "serve.wire.decode_response_us"),
    ] {
        codec_us += of(span);
        report.layer(metric, of(span));
    }
    let (hit, miss) = (of("index.engine.hit"), of("index.engine.miss"));
    let (rtt_hot, rtt_cold) = (of("serve.roundtrip.hot"), of("serve.roundtrip.cold"));
    report.layer("index.router.probe_us", of("index.router.probe"));
    report.layer("index.store.lsh_us", of("index.store.lsh"));
    report.layer("index.store.sweep_us", of("index.store.sweep"));
    report.layer("index.store.batch64_us_per_query", median_us(&batch_ns));
    report.layer("index.exact_scan_us", of("reference.scan"));
    report.layer("index.engine.miss_us", miss);
    report.layer("index.engine.hit_us", hit);
    report.layer("serve.rtt_w1_hot_us", rtt_hot);
    report.layer("serve.rtt_w1_cold_us", rtt_cold);
    // Syscalls, reactor wake-up and socket flush: what a hot round trip
    // spends outside the codec and the cache.
    report.layer("serve.transport_residual_us", rtt_hot - (codec_us + hit));
    // Admission queue, worker hand-off and batcher: what a cold round trip
    // spends beyond a hot one and the engine's own miss cost.
    report.layer("serve.worker_residual_us", rtt_cold - rtt_hot - (miss - hit));
}
