//! End-to-end serving tests over real loopback TCP connections: wire
//! results must be bit-identical to in-process engine results (window 1
//! *and* windowed, in-order and out-of-order), admission must shed (never
//! hang) past each turn's budget with a retry hint, large replies must
//! stream in chunks, and protocol violations (tag 0, duplicate tags, even
//! of a cached query; hostile framing) must be rejected without taking the
//! server down.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tabbin_index::{EngineConfig, Hit, LshParams, QueryEngine, ShardedStore, StoreConfig};
use tabbin_serve::wire::{self, encode_request, Request};
use tabbin_serve::{Client, QueryOutcome, Response, ServeConfig, Server, MAX_FRAME_LEN};

fn random_vecs(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect()
}

/// A 3-shard LSH corpus behind an engine, shared by server and reference.
fn corpus_engine(vecs: &[Vec<f32>]) -> Arc<QueryEngine<ShardedStore>> {
    let cfg = StoreConfig { lsh: Some(LshParams::default()), seed: 9, ..StoreConfig::default() };
    let mut store = ShardedStore::new(vecs[0].len(), 3, cfg);
    for v in vecs {
        store.insert(v);
    }
    Arc::new(QueryEngine::new(store, EngineConfig::lsh()))
}

fn assert_bit_identical(wire: &[Hit], local: &[Hit], what: &str) {
    assert_eq!(wire.len(), local.len(), "{what}: lengths diverged");
    for (w, l) in wire.iter().zip(local) {
        assert_eq!(w.id, l.id, "{what}: ids diverged over the wire");
        assert_eq!(w.score.to_bits(), l.score.to_bits(), "{what}: score bits diverged");
    }
}

#[test]
fn wire_results_are_bit_identical_to_in_process_engine() {
    let vecs = random_vecs(120, 16, 1);
    let engine = corpus_engine(&vecs);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for q in vecs.iter().take(24) {
        let wire = match client.query(q, 8).expect("query") {
            QueryOutcome::Hits(hits) => hits,
            QueryOutcome::Overloaded { .. } => panic!("uncontended query shed"),
        };
        let local: Vec<Hit> = engine.query(q, 8);
        assert_bit_identical(&wire, &local, "blocking client");
    }
    drop(client);
    server.shutdown();
}

#[test]
fn pipelined_out_of_order_completion_matches_blocking_client() {
    let vecs = random_vecs(200, 16, 11);
    let engine = corpus_engine(&vecs);
    // A twin engine as reference so the server engine's cache state can't
    // mask a routing bug.
    let reference = corpus_engine(&vecs);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServeConfig::default()).expect("bind");

    let mut pipelined =
        Client::connect_windowed(server.local_addr(), 16).expect("pipelined connect");
    assert_eq!(pipelined.window(), 16);

    // Submit a burst wider than the window, then claim results in
    // *reverse* submission order: whatever order the replies arrive in,
    // the client must buffer and match strictly by tag.
    let queries = &vecs[..48];
    let tags: Vec<u64> = queries.iter().map(|q| pipelined.submit(q, 7).expect("submit")).collect();
    for (tag, q) in tags.iter().zip(queries).rev() {
        let hits = match pipelined.wait(*tag).expect("wait") {
            QueryOutcome::Hits(hits) => hits,
            QueryOutcome::Overloaded { .. } => panic!("default queue shed a 48-burst"),
        };
        assert_bit_identical(&hits, &reference.query(q, 7), "pipelined reverse-order claim");
    }
    assert_eq!(pipelined.in_flight(), 0);

    // query_all returns submission order regardless of completion order,
    // and agrees with a fresh blocking client on the same connection set.
    let outcomes = pipelined.query_all(&vecs[48..96], 5).expect("query_all");
    let mut blocking = Client::connect(server.local_addr()).expect("blocking connect");
    for (q, outcome) in vecs[48..96].iter().zip(outcomes) {
        let QueryOutcome::Hits(pip) = outcome else { panic!("pipelined query shed") };
        let QueryOutcome::Hits(blk) = blocking.query(q, 5).expect("blocking query") else {
            panic!("blocking query shed");
        };
        assert_bit_identical(&pip, &blk, "pipelined vs blocking");
    }
    server.shutdown();
}

#[test]
fn concurrent_clients_get_bit_identical_results_one_engine_call_each() {
    let vecs = random_vecs(150, 12, 2);
    let engine = corpus_engine(&vecs);
    // Reference answers from a twin engine (same store build) so the
    // server engine's cache state doesn't matter.
    let reference = corpus_engine(&vecs);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServeConfig { queue_capacity: 64, ..ServeConfig::default() },
    )
    .expect("bind");
    let addr = server.local_addr();

    let handles: Vec<_> = (0..8)
        .map(|c| {
            let queries: Vec<Vec<f32>> = vecs[c * 12..(c + 1) * 12].to_vec();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                queries
                    .iter()
                    .map(|q| match client.query(q, 5).expect("query") {
                        QueryOutcome::Hits(hits) => hits,
                        QueryOutcome::Overloaded { .. } => panic!("64-deep queue shed 8 clients"),
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for (c, h) in handles.into_iter().enumerate() {
        let lists = h.join().expect("client thread panicked");
        for (qi, hits) in lists.iter().enumerate() {
            let want = reference.query(&vecs[c * 12 + qi], 5);
            assert_eq!(hits, &want, "client {c} query {qi} diverged");
        }
    }

    let stats = server.stats();
    assert_eq!(stats.served, 96);
    assert_eq!(stats.shed, 0);
    // 96 distinct queries, all cache misses: each was answered on the I/O
    // thread that decoded it, as one engine call.
    assert_eq!(stats.batcher.submitted, 96);
    assert_eq!(stats.batcher.batches, 96);
    server.shutdown();
}

#[test]
fn oversized_submission_is_refused_alone_and_the_window_keeps_answering() {
    let vecs = random_vecs(60, 8, 12);
    let engine = corpus_engine(&vecs);
    let reference = corpus_engine(&vecs);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServeConfig::default()).expect("bind");
    let mut client = Client::connect_windowed(server.local_addr(), 4).expect("connect");

    let tags: Vec<u64> = vecs[..3].iter().map(|q| client.submit(q, 5).expect("submit")).collect();
    // One float past what a frame can carry: sent, it would poison the
    // server's frame assembler and kill the three requests in flight.
    let oversized = vec![0.5f32; MAX_FRAME_LEN as usize / 4];
    let err = client.submit(&oversized, 5).expect_err("an oversized frame must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    assert_eq!(client.in_flight(), 3, "the refused query took a window slot");

    let next = client.submit(&vecs[3], 5).expect("submit after the refusal");
    for (tag, q) in tags.iter().chain([&next]).zip(&vecs[..4]) {
        let QueryOutcome::Hits(hits) = client.wait(*tag).expect("in-flight request answers") else {
            panic!("uncontended query shed");
        };
        assert_bit_identical(&hits, &reference.query(q, 5), "after an oversized submission");
    }
    let QueryOutcome::Hits(hits) = client.query(&vecs[4], 5).expect("a following query") else {
        panic!("uncontended query shed");
    };
    assert_bit_identical(&hits, &reference.query(&vecs[4], 5), "query after the refusal");
    server.shutdown();
}

#[test]
fn overload_sheds_with_an_explicit_reply_and_never_hangs() {
    let vecs = random_vecs(4000, 32, 3);
    let engine = corpus_engine(&vecs);
    // One I/O thread admitting two queries per turn: a burst of 24
    // clients must overflow.
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServeConfig { io_threads: 1, queue_capacity: 2, ..ServeConfig::default() },
    )
    .expect("bind");
    let addr = server.local_addr();

    let handles: Vec<_> = (0..24)
        .map(|c| {
            let q = vecs[c].clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut sheds = 0u64;
                let mut served = 0u64;
                for _ in 0..8 {
                    match client.query(&q, 10).expect("query must answer, not hang") {
                        QueryOutcome::Hits(hits) => {
                            assert!(!hits.is_empty());
                            served += 1;
                        }
                        QueryOutcome::Overloaded { retry_after_millis } => {
                            assert!(retry_after_millis >= 1, "hint must suggest a real backoff");
                            sheds += 1;
                        }
                    }
                }
                (served, sheds)
            })
        })
        .collect();
    let mut total_served = 0;
    let mut total_shed = 0;
    for h in handles {
        let (served, sheds) = h.join().expect("client thread panicked");
        total_served += served;
        total_shed += sheds;
    }
    assert_eq!(total_served + total_shed, 24 * 8, "every request got an answer");
    assert!(total_shed > 0, "24 clients against a 2-query turn budget never overflowed");
    let stats = server.stats();
    assert_eq!(stats.shed, total_shed);
    assert_eq!(stats.served, total_served);
    server.shutdown();
}

#[test]
fn one_write_past_the_turn_budget_is_shed_and_every_tag_answers_once() {
    use std::io::{BufReader, Write};
    let vecs = random_vecs(200, 8, 13);
    let engine = corpus_engine(&vecs);
    let reference = corpus_engine(&vecs);
    let cap = 4;
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServeConfig { io_threads: 1, queue_capacity: cap, ..ServeConfig::default() },
    )
    .expect("bind");

    // Forty queries in one write land in one read pass, so one turn
    // decodes all of them: the first `cap` run, the rest are shed.
    let sent = 40usize;
    let mut burst = Vec::new();
    for (i, q) in vecs[..sent].iter().enumerate() {
        let req = Request::Query { k: 5, vector: q.clone() };
        wire::write_frame(&mut burst, &encode_request(i as u64 + 1, &req)).expect("frame");
    }
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.write_all(&burst).expect("send the burst");

    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut demux = tabbin_serve::ReplyDemux::new();
    let mut answered = std::collections::BTreeMap::new();
    while answered.len() < sent {
        let payload = wire::read_frame(&mut reader).expect("a reply per tag");
        if let Some((tag, resp)) = demux.push(&payload).expect("decodable reply") {
            assert!(answered.insert(tag, resp).is_none(), "tag {tag} answered twice");
        }
    }
    let (mut served, mut shed) = (0u64, 0u64);
    for (tag, resp) in &answered {
        let q = &vecs[*tag as usize - 1];
        match resp {
            Response::Hits { hits, .. } => {
                assert_bit_identical(hits, &reference.query(q, 5), "admitted query");
                served += 1;
            }
            Response::Overloaded { retry_after_millis } => {
                assert!(*retry_after_millis >= 1, "hint must suggest a real backoff");
                shed += 1;
            }
            other => panic!("tag {tag}: unexpected reply {other:?}"),
        }
    }
    assert_eq!(answered.keys().copied().collect::<Vec<_>>(), (1..=sent as u64).collect::<Vec<_>>());
    assert_eq!(served + shed, sent as u64);
    assert_eq!(served, cap as u64, "one turn admits exactly its budget");
    let stats = server.stats();
    assert_eq!((stats.served, stats.shed), (served, shed));

    // Shedding is per turn, not sticky: the next write is admitted.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let QueryOutcome::Hits(hits) = client.query(&vecs[0], 5).expect("query") else {
        panic!("a lone query after the burst was shed");
    };
    assert_bit_identical(&hits, &reference.query(&vecs[0], 5), "after the burst");
    drop(raw);
    server.shutdown();
}

#[test]
fn connection_flood_is_shed_at_the_cap() {
    let vecs = random_vecs(40, 8, 7);
    let engine = corpus_engine(&vecs);
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&engine),
        ServeConfig { max_connections: 2, ..ServeConfig::default() },
    )
    .expect("bind");
    let addr = server.local_addr();

    let mut c1 = Client::connect(addr).expect("c1");
    let mut c2 = Client::connect(addr).expect("c2");
    assert!(matches!(c1.query(&vecs[0], 3).expect("c1 query"), QueryOutcome::Hits(_)));
    assert!(matches!(c2.query(&vecs[1], 3).expect("c2 query"), QueryOutcome::Hits(_)));

    // The third connection is accepted at the TCP level, answered with a
    // single connection-level Overloaded frame (`ConnectionRefused` at
    // the client), and closed. The close can race the client's write, so
    // any error is accepted — the point is no hang and no service.
    let mut c3 = Client::connect(addr).expect("c3 tcp connect");
    if let Ok(outcome) = c3.query(&vecs[2], 3) {
        panic!("third connection was answered past the cap: {outcome:?}");
    }

    // Capacity frees once a connection goes away.
    drop(c1);
    let mut recovered = false;
    for _ in 0..200 {
        if let Ok(mut c) = Client::connect(addr) {
            if matches!(c.query(&vecs[3], 3), Ok(QueryOutcome::Hits(_))) {
                recovered = true;
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(recovered, "closing a connection never freed a slot");
    drop(c2);
    server.shutdown();
}

#[test]
fn large_k_replies_stream_in_chunks() {
    // More live rows than one Hits chunk can carry: the reply must
    // arrive as multiple chunk frames and reassemble exactly — v1's
    // MAX_REPLY_HITS rejection is gone.
    let n = wire::MAX_CHUNK_HITS + 400;
    let vecs = random_vecs(n, 8, 6);
    // Exact scan so every live row is a candidate — LSH blocking would
    // thin the result below one chunk and defeat the test.
    let cfg = StoreConfig { seed: 9, ..StoreConfig::default() };
    let mut store = ShardedStore::new(8, 3, cfg);
    for v in &vecs {
        store.insert(v);
    }
    let engine = Arc::new(QueryEngine::new(store, EngineConfig::exact()));
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let k = n + 100; // bounded by the corpus, not the wire
    let wire_hits = match client.query(&vecs[0], k).expect("large-k query") {
        QueryOutcome::Hits(hits) => hits,
        QueryOutcome::Overloaded { .. } => panic!("uncontended query shed"),
    };
    assert!(
        wire_hits.len() > wire::MAX_CHUNK_HITS,
        "result of {} hits fits one chunk — the test corpus is too small",
        wire_hits.len()
    );
    assert_bit_identical(&wire_hits, &engine.query(&vecs[0], k), "chunked reply");
    server.shutdown();
}

#[test]
fn stats_reply_reports_storage_engine_and_admission_state() {
    let vecs = random_vecs(90, 10, 4);
    let engine = corpus_engine(&vecs);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Same query twice: second one must be an engine cache hit.
    for _ in 0..2 {
        match client.query(&vecs[0], 5).expect("query") {
            QueryOutcome::Hits(hits) => assert_eq!(hits.len(), 5),
            QueryOutcome::Overloaded { .. } => panic!("uncontended query shed"),
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.shards.totals().live, 90);
    assert_eq!(stats.shards.shards.len(), 3);
    assert_eq!(stats.shard_depths.len(), 3);
    assert_eq!(
        stats.shard_depths,
        stats.shards.depths(),
        "depth vector must mirror the per-shard stats"
    );
    assert_eq!(stats.engine.cache_hits, 1, "repeat query missed the cache");
    assert_eq!(stats.served, 2);
    // The hit is an engine call too; nothing is left waiting at rest.
    assert_eq!(stats.batcher.submitted, 2);
    assert_eq!(stats.batcher.batches, 2);
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.queue_capacity, ServeConfig::default().resolved_queue_capacity());
    assert_eq!(stats.connections, 1, "one client connected when stats were read");
    assert_eq!(stats.shed, 0);
    server.shutdown();
}

#[test]
fn malformed_and_mismatched_requests_get_error_replies() {
    let vecs = random_vecs(30, 8, 5);
    let engine = corpus_engine(&vecs);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Wrong dimension: explicit server-side error, connection stays alive.
    let err = client.query(&[1.0; 4], 5).expect_err("dim mismatch must error");
    assert!(err.to_string().contains("8"), "unhelpful error: {err}");
    match client.query(&vecs[0], 3).expect("connection survives an error reply") {
        QueryOutcome::Hits(hits) => assert_eq!(hits.len(), 3),
        QueryOutcome::Overloaded { .. } => panic!("uncontended query shed"),
    }

    // A hostile oversized length prefix: the server answers with a
    // connection-level error frame and hangs up without allocating the
    // claimed 4 GiB.
    use std::io::{Read, Write};
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.write_all(&0xffff_ffffu32.to_le_bytes()).expect("write hostile prefix");
    raw.flush().ok();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("server must reply then close");
    let payload = wire::read_frame(&mut &reply[..]).expect("one reply frame");
    match wire::decode_response(&payload).expect("decodes") {
        (tag, Response::Error(msg)) => {
            assert_eq!(tag, wire::CONNECTION_TAG, "framing errors answer no request");
            assert!(msg.contains("outside"), "unhelpful error: {msg}");
        }
        other => panic!("expected a connection-level error reply, got {other:?}"),
    }
    server.shutdown();
}

/// Reads every frame the server sends until it hangs up.
fn drain_frames(raw: &mut std::net::TcpStream) -> Vec<(u64, Response)> {
    use std::io::Read;
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("server must reply then close");
    let mut frames = Vec::new();
    let mut rest: &[u8] = &reply;
    while !rest.is_empty() {
        let payload = wire::read_frame(&mut rest).expect("well-formed reply frame");
        frames.push(wire::decode_response(&payload).expect("decodable reply"));
    }
    frames
}

#[test]
fn reserved_and_duplicate_tags_are_protocol_violations() {
    use std::io::Write;
    let vecs = random_vecs(30, 8, 8);
    let engine = corpus_engine(&vecs);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServeConfig::default()).expect("bind");

    // Tag 0 is the connection-level tag; a request wearing it could never
    // be answered unambiguously. The server rejects and hangs up.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    let req = Request::Query { k: 3, vector: vecs[0].clone() };
    let mut framed = Vec::new();
    wire::write_frame(&mut framed, &encode_request(0, &req)).expect("frame");
    raw.write_all(&framed).expect("send tag-0 request");
    raw.flush().ok();
    let frames = drain_frames(&mut raw);
    assert!(
        frames.iter().any(|(tag, resp)| {
            *tag == wire::CONNECTION_TAG
                && matches!(resp, Response::Error(msg) if msg.contains("reserved"))
        }),
        "no connection-level reserved-tag error in {frames:?}"
    );

    // Two in-flight requests with the same tag: both written in one
    // burst so they land in one read pass — the second must be rejected
    // as fatal (its reply would be indistinguishable from the first's).
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    let mut burst = Vec::new();
    wire::write_frame(&mut burst, &encode_request(7, &req)).expect("frame");
    wire::write_frame(&mut burst, &encode_request(7, &req)).expect("frame");
    raw.write_all(&burst).expect("send duplicate tags");
    raw.flush().ok();
    let frames = drain_frames(&mut raw);
    assert!(
        frames.iter().any(|(tag, resp)| {
            *tag == wire::CONNECTION_TAG
                && matches!(resp, Response::Error(msg) if msg.contains("already in flight"))
        }),
        "no duplicate-tag error in {frames:?}"
    );
    // Whatever else arrived can only be the first request's reply.
    for (tag, resp) in &frames {
        if *tag != wire::CONNECTION_TAG {
            assert_eq!(*tag, 7);
            assert!(matches!(resp, Response::Hits { .. }), "unexpected reply {resp:?}");
        }
    }
    server.shutdown();
}

#[test]
fn duplicate_tag_of_a_cached_query_is_a_protocol_violation() {
    use std::io::Write;
    let vecs = random_vecs(30, 8, 14);
    let engine = corpus_engine(&vecs);
    let server =
        Server::bind("127.0.0.1:0", Arc::clone(&engine), ServeConfig::default()).expect("bind");

    // Warm the cache on one connection, so both requests below are hits
    // answered as soon as they are decoded.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert!(matches!(client.query(&vecs[0], 3).expect("warm-up"), QueryOutcome::Hits(_)));

    // The first request's reply may already be queued when the second is
    // decoded, but its tag stays in flight until that reply is written:
    // the duplicate is fatal all the same.
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect raw");
    // A server that accepts the duplicate never hangs up: fail, not hang.
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("read timeout");
    let req = Request::Query { k: 3, vector: vecs[0].clone() };
    let mut burst = Vec::new();
    wire::write_frame(&mut burst, &encode_request(7, &req)).expect("frame");
    wire::write_frame(&mut burst, &encode_request(7, &req)).expect("frame");
    raw.write_all(&burst).expect("send duplicate tags");
    raw.flush().ok();
    let frames = drain_frames(&mut raw);
    assert!(
        frames.iter().any(|(tag, resp)| {
            *tag == wire::CONNECTION_TAG
                && matches!(resp, Response::Error(msg) if msg.contains("already in flight"))
        }),
        "no duplicate-tag error in {frames:?}"
    );
    let tagged: Vec<_> = frames.iter().filter(|(tag, _)| *tag != wire::CONNECTION_TAG).collect();
    assert_eq!(tagged.len(), 1, "tag 7 answered more than once: {frames:?}");
    assert!(matches!(tagged[0].1, Response::Hits { .. }), "unexpected reply {:?}", tagged[0].1);
    assert_eq!(engine.stats().cache_hits, 1, "the duplicate reached the engine");
    server.shutdown();
}
