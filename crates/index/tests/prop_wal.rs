//! Crash-recovery property tests for the durability tier.
//!
//! The central property: a fault-injection [`Storage`] shim kills the
//! write stream at an **arbitrary byte offset** — the append crossing the
//! offset is torn mid-frame, everything later is lost, and fsync lies
//! `Ok` the whole way, like a disk that acknowledged writes its platter
//! never saw. Reopening the directory must then
//! answer top-k **bit-identical** to a reference store that executed
//! only the durable prefix of the mutation history — across the exact
//! and quantized scoring tiers, under hash and IVF routers.
//!
//! The reference is constructed without touching the WAL decoder (that
//! would be circular): the test journals each mutation's frame size via
//! [`frame_len`], so the set of surviving records for a given kill
//! offset is pure arithmetic over the append stream, and the reference
//! simply replays that op prefix into a fresh store.
//!
//! Deterministic companions cover the targeted corruption shapes
//! (truncated mid-record, truncated mid-length-prefix, a single flipped
//! byte), the checkpoint/fold/GC lifecycle, rebalance-move logging with
//! router persistence across restarts, one fsync per group commit
//! whatever the shard count, refusal of a directory written at another
//! dimension, and no-panic fuzzing of the log and manifest bytes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tabbin_index::wal::frame_len;
use tabbin_index::{
    DurabilityPolicy, ExactScan, FsStorage, IvfRouter, LshParams, ShardedStore, Storage,
    StoreConfig, WalRecord,
};

const DIM: usize = 8;
const N_SHARDS: usize = 3;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "tabbin_prop_wal_{tag}_{}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The fault shim: a byte budget over the whole append stream. Appends
/// within the budget reach the real file; the append that crosses it is
/// written partially (a torn frame at an arbitrary byte offset); every
/// later append is silently dropped, and `sync` keeps claiming success.
/// This is a crash at one instant of the append timeline, so the log
/// ends with a prefix of its stream.
struct KillAt {
    inner: FsStorage,
    budget: usize,
    dead: bool,
}

impl KillAt {
    fn new(budget: usize) -> Self {
        Self { inner: FsStorage::new(), budget, dead: false }
    }
}

impl Storage for KillAt {
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.dead {
            return Ok(());
        }
        if bytes.len() <= self.budget {
            self.budget -= bytes.len();
            self.inner.append(path, bytes)
        } else {
            let keep = self.budget;
            self.budget = 0;
            self.dead = true;
            self.inner.append(path, &bytes[..keep])
        }
    }

    fn sync(&mut self, _path: &Path) -> io::Result<()> {
        // The lying fsync: claims durability it no longer provides.
        Ok(())
    }

    fn close(&mut self, path: &Path) {
        self.inner.close(path);
    }
}

/// One scripted mutation.
#[derive(Clone, Debug)]
enum Op {
    Upsert(u64, Vec<f32>),
    Delete(u64),
}

/// Clustered vectors so IVF cells have geometry to carve.
fn corpus(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<Vec<f32>> = (0..3)
        .map(|_| {
            (0..DIM).map(|_| if rng.random_range(0u32..2) == 0 { 1.0 } else { -1.0f32 }).collect()
        })
        .collect();
    (0..n)
        .map(|i| {
            centers[i % 3].iter().map(|x| x + rng.random_range(-0.2f32..0.2)).collect::<Vec<_>>()
        })
        .collect()
}

fn script(seed: u64, n_ops: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let pool = corpus(64, seed);
    (0..n_ops)
        .map(|i| {
            let id = rng.random_range(0u64..12);
            if rng.random_range(0u32..4) == 0 {
                Op::Delete(id)
            } else {
                Op::Upsert(id, pool[(i + rng.random_range(0usize..8)) % pool.len()].clone())
            }
        })
        .collect()
}

/// Walks the script as the durable store would, journaling each logged
/// record's frame size. Returns `(total_bytes, ends)` where `ends[j]` is
/// `(cumulative end offset of the j-th logged record, index of the op
/// that logged it)`.
fn journal(ops: &[Op]) -> (usize, Vec<(usize, usize)>) {
    let upsert_len = frame_len(&WalRecord::Upsert { id: 0, shard: 0, vector: vec![0.0; DIM] });
    let delete_len = frame_len(&WalRecord::Delete { id: 0 });
    let mut live = std::collections::HashSet::new();
    let mut cum = 0usize;
    let mut ends = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Upsert(id, _) => {
                live.insert(*id);
                cum += upsert_len;
                ends.push((cum, i));
            }
            Op::Delete(id) => {
                // Deleting a dead id is a no-op and logs nothing.
                if live.remove(id) {
                    cum += delete_len;
                    ends.push((cum, i));
                }
            }
        }
    }
    (cum, ends)
}

fn apply(store: &mut ShardedStore, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Upsert(id, v) => store.upsert(*id, v),
            Op::Delete(id) => {
                store.delete(*id);
            }
        }
    }
}

fn queries(seed: u64, n: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    (0..n).map(|_| (0..DIM).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect()
}

/// Asserts two stores answer bit-identically: same ids, same score bits.
fn assert_bit_identical(a: &ShardedStore, b: &ShardedStore, seed: u64, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: live counts diverged");
    for q in queries(seed, 6) {
        let ha = a.search(&q, 5, &ExactScan);
        let hb = b.search(&q, 5, &ExactScan);
        assert_eq!(ha.len(), hb.len(), "{ctx}: hit counts diverged");
        for (x, y) in ha.iter().zip(&hb) {
            assert_eq!(x.id, y.id, "{ctx}: ids diverged");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{ctx}: score bits diverged");
        }
    }
}

fn exact_cfg() -> StoreConfig {
    StoreConfig { seal_threshold: 8, durability: DurabilityPolicy::Never, ..StoreConfig::default() }
}

fn quantized_cfg() -> StoreConfig {
    StoreConfig {
        seal_threshold: 8,
        durability: DurabilityPolicy::Never,
        ..StoreConfig::quantized(LshParams::default_blocking())
    }
}

/// Runs the full kill-reopen-compare cycle for one configuration and one
/// kill offset. `budget` beyond the total byte count means no kill.
fn run_crash_case(seed: u64, budget: usize, cfg: StoreConfig, ivf: bool, tag: &str) {
    let ops = script(seed, 40);
    let (total, ends) = journal(&ops);
    let dir = fresh_dir(tag);
    let router = ivf.then(|| Arc::new(IvfRouter::train(&corpus(64, seed), N_SHARDS, 42)));

    // Phase A: the process that crashes. Fsync lies, the tail tears.
    {
        let mut store = ShardedStore::open_durable_with(
            &dir,
            DIM,
            N_SHARDS,
            cfg,
            router.clone().map(|r| r as Arc<dyn tabbin_index::Router>),
            Box::new(KillAt::new(budget)),
        )
        .expect("fresh durable open");
        apply(&mut store, &ops);
    }

    // What survived is pure arithmetic over the journal.
    let survivors = ends.iter().take_while(|&&(end, _)| end <= budget).count();
    let torn_bytes = budget.min(total) - survivors.checked_sub(1).map_or(0, |j| ends[j].0);
    let prefix = if survivors == 0 { &ops[..0] } else { &ops[..=ends[survivors - 1].1] };

    // The reference store executed exactly the durable prefix.
    let mut reference = match &router {
        Some(r) => ShardedStore::with_router(
            DIM,
            N_SHARDS,
            cfg,
            Arc::clone(r) as Arc<dyn tabbin_index::Router>,
        ),
        None => ShardedStore::new(DIM, N_SHARDS, cfg),
    };
    apply(&mut reference, prefix);

    // Phase B: reopen with honest storage and compare.
    let recovered = ShardedStore::open_durable_with(
        &dir,
        DIM,
        N_SHARDS,
        cfg,
        router.clone().map(|r| r as Arc<dyn tabbin_index::Router>),
        Box::new(FsStorage::new()),
    )
    .expect("reopen after kill");
    let stats = recovered.wal_stats().expect("durable store has WAL stats");
    assert_eq!(stats.replay_records, survivors as u64, "{tag}: replayed record count");
    assert_eq!(stats.replay_truncated_bytes, torn_bytes as u64, "{tag}: torn bytes dropped");
    assert_bit_identical(&recovered, &reference, seed, tag);

    // Reopening again replays the same prefix — recovery is idempotent.
    drop(recovered);
    let again = ShardedStore::open_durable_with(
        &dir,
        DIM,
        N_SHARDS,
        cfg,
        router.map(|r| r as Arc<dyn tabbin_index::Router>),
        Box::new(FsStorage::new()),
    )
    .expect("second reopen");
    let stats = again.wal_stats().expect("stats");
    assert_eq!(stats.replay_records, survivors as u64, "{tag}: idempotent replay");
    assert_eq!(stats.replay_truncated_bytes, 0, "{tag}: nothing left to truncate");
    assert_bit_identical(&again, &reference, seed, tag);
    drop(again);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The acceptance property: kill the log at any byte offset, reopen,
    /// and the top-k is bit-identical to the durable prefix — exact and
    /// quantized tiers, hash and IVF routers (2×2, same offset).
    #[test]
    fn kill_at_any_offset_recovers_the_durable_prefix(
        seed in 0u64..100_000,
        kill_frac in 0.0f64..1.1,
    ) {
        let (total, _) = journal(&script(seed, 40));
        let budget = (total as f64 * kill_frac) as usize;
        run_crash_case(seed, budget, exact_cfg(), false, "exact-hash");
        run_crash_case(seed, budget, quantized_cfg(), false, "quantized-hash");
        run_crash_case(seed, budget, exact_cfg(), true, "exact-ivf");
        run_crash_case(seed, budget, quantized_cfg(), true, "quantized-ivf");
    }
}

/// The three scripted corruption shapes: torn mid-record, torn
/// mid-length-prefix, and a single flipped byte in the log's last frame.
/// Each must recover the durable prefix — every op but the last — and
/// report exactly how many records were dropped.
#[test]
fn scripted_corruption_shapes_recover_the_prefix_and_report_drops() {
    let upsert_len = frame_len(&WalRecord::Upsert { id: 0, shard: 0, vector: vec![0.0; DIM] });
    // Corruption offset into the log's *last record*: deep into the body
    // (mid-record), inside the length prefix, and a flipped byte with the
    // length intact.
    enum Shape {
        TruncateTail(usize),
        FlipByte(usize),
    }
    let cases: Vec<(&str, Shape)> = vec![
        ("mid-record", Shape::TruncateTail(upsert_len / 2)),
        ("mid-length-prefix", Shape::TruncateTail(2)),
        ("bit-flip", Shape::FlipByte(upsert_len / 2)),
    ];
    for (name, shape) in cases {
        let dir = fresh_dir("shape");
        let ops: Vec<Op> =
            (0..9u64).map(|i| Op::Upsert(i, corpus(16, i)[i as usize % 16].clone())).collect();
        {
            let mut store =
                ShardedStore::open_durable(&dir, DIM, N_SHARDS, exact_cfg()).expect("open");
            apply(&mut store, &ops);
            store.wal_flush().expect("flush");
        }
        let logs = wal_files(&dir);
        assert_eq!(logs.len(), 1, "{name}: one log for {N_SHARDS} shards");
        let bytes = std::fs::read(&logs[0]).expect("read log");
        let n_total = ops.len();
        assert_eq!(bytes.len(), n_total * upsert_len, "{name}: one frame per upsert");
        let tail_start = bytes.len() - upsert_len;
        let damaged = match shape {
            Shape::TruncateTail(keep) => bytes[..tail_start + keep].to_vec(),
            Shape::FlipByte(at) => {
                let mut b = bytes.clone();
                b[tail_start + at] ^= 0x20;
                b
            }
        };
        std::fs::write(&logs[0], damaged).expect("write damaged log");

        let recovered =
            ShardedStore::open_durable(&dir, DIM, N_SHARDS, exact_cfg()).expect("reopen");
        let stats = recovered.wal_stats().expect("stats");
        assert_eq!(
            stats.replay_records,
            (n_total - 1) as u64,
            "{name}: exactly one record dropped"
        );
        assert!(stats.replay_truncated_bytes > 0, "{name}: damage was truncated away");
        // The store is exactly the prefix: every op but the last.
        let lost: Vec<u64> = (0..n_total as u64).filter(|id| !recovered.contains(*id)).collect();
        assert_eq!(lost, vec![n_total as u64 - 1], "{name}: only the last op lost");
        let mut reference = ShardedStore::new(DIM, N_SHARDS, exact_cfg());
        apply(&mut reference, &ops[..n_total - 1]);
        assert_bit_identical(&recovered, &reference, 7, name);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The live `wal-*` segment files in `dir`, sorted.
fn wal_files(dir: &Path) -> Vec<PathBuf> {
    let mut logs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("wal-")))
        .collect();
    logs.sort();
    logs
}

/// Checkpoint folds the logs into a snapshot: reopening replays only
/// post-checkpoint records, folded segments and superseded snapshots are
/// garbage-collected, and the recovered state is the full history.
#[test]
fn checkpoint_folds_gcs_and_reopens_with_short_replay() {
    let dir = fresh_dir("checkpoint");
    let pool = corpus(32, 5);
    {
        let mut store = ShardedStore::open_durable(&dir, DIM, N_SHARDS, exact_cfg()).expect("open");
        for (i, v) in pool.iter().take(20).enumerate() {
            store.upsert(i as u64, v);
        }
        let fold_lsn = store.checkpoint().expect("checkpoint");
        assert_eq!(fold_lsn, 20, "20 upserts logged before the fold");
        let stats = store.wal_stats().expect("stats");
        assert_eq!(stats.depth_bytes, 0, "fold leaves empty segments");
        assert_eq!(stats.fold_lsn, 20);
        // Post-checkpoint mutations land in the fresh segments.
        for (i, v) in pool.iter().skip(20).take(5).enumerate() {
            store.upsert(20 + i as u64, v);
        }
        store.delete(3);
    }
    // Exactly one snapshot file and the one fresh segment remain: no
    // folded segment survived the GC.
    let snaps = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter(|e| e.as_ref().expect("entry").file_name().to_string_lossy().starts_with("snap-"))
        .count();
    assert_eq!(snaps, 1);
    assert_eq!(wal_files(&dir).len(), 1, "one live log segment");

    let recovered = ShardedStore::open_durable(&dir, DIM, N_SHARDS, exact_cfg()).expect("reopen");
    let stats = recovered.wal_stats().expect("stats");
    assert_eq!(stats.replay_records, 6, "only the 5 upserts + 1 delete after the fold replay");
    assert_eq!(recovered.len(), 24, "25 rows minus one delete");
    let mut reference = ShardedStore::new(DIM, N_SHARDS, exact_cfg());
    for (i, v) in pool.iter().take(25).enumerate() {
        reference.upsert(i as u64, v);
    }
    reference.delete(3);
    assert_bit_identical(&recovered, &reference, 11, "checkpoint");
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rebalance moves are logged (in the destination shard) and a router
/// install checkpoints, so routed physical placement — and the router
/// itself — survive a restart without any help from the caller.
#[test]
fn rebalance_moves_and_router_survive_restart() {
    let dir = fresh_dir("rebalance");
    let pool = corpus(30, 17);
    let (reference, pre_close_stats) = {
        let mut store = ShardedStore::open_durable(&dir, DIM, N_SHARDS, exact_cfg()).expect("open");
        for (i, v) in pool.iter().enumerate() {
            store.upsert(i as u64, v);
        }
        // Hash placement first, then install a learned router (which
        // checkpoints) and migrate everything to its cells.
        let router = Arc::new(IvfRouter::train(&pool, N_SHARDS, 42));
        store.install_router(router);
        assert_eq!(store.router_name(), "ivf");
        let moved = store.rebalance();
        assert!(moved > 0, "training on the corpus must move some rows");
        store.wal_flush().expect("flush");
        (store.clone(), store.wal_stats().expect("stats"))
    };
    assert!(
        pre_close_stats.last_lsn > pre_close_stats.fold_lsn,
        "rebalance moves logged after the install checkpoint"
    );

    // Reopen WITHOUT passing a router: the checkpoint snapshot must
    // restore it, and the move records must restore placement.
    let recovered = ShardedStore::open_durable(&dir, DIM, N_SHARDS, exact_cfg()).expect("reopen");
    assert_eq!(recovered.router_name(), "ivf", "router restored from the checkpoint snapshot");
    assert_bit_identical(&recovered, &reference, 23, "rebalance");
    // Placements survived exactly: every id lives in the same shard.
    for id in 0..pool.len() as u64 {
        assert_eq!(recovered.shard_of(id), reference.shard_of(id), "placement of id {id}");
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log stomped with garbage never panics the open: the store reopens
/// at its snapshot state, with every post-fold record dropped and its
/// bytes counted — the single-log contract, where a bad frame ends the
/// durable prefix.
#[test]
fn stomped_log_never_panics_and_reopens_at_the_snapshot() {
    let dir = fresh_dir("garbage");
    let pool = corpus(24, 29);
    {
        let mut store = ShardedStore::open_durable(&dir, DIM, N_SHARDS, exact_cfg()).expect("open");
        for (i, v) in pool.iter().enumerate() {
            store.upsert(i as u64, v);
            if i == 11 {
                store.checkpoint().expect("checkpoint");
            }
        }
        store.wal_flush().expect("flush");
    }
    let logs = wal_files(&dir);
    assert_eq!(logs.len(), 1, "one log");
    let victim_len = std::fs::metadata(&logs[0]).expect("meta").len();
    std::fs::write(&logs[0], vec![0x5au8; victim_len as usize]).expect("stomp");

    let recovered = ShardedStore::open_durable(&dir, DIM, N_SHARDS, exact_cfg()).expect("reopen");
    let stats = recovered.wal_stats().expect("stats");
    assert_eq!(stats.replay_records, 0, "no post-fold record survives");
    assert_eq!(stats.replay_truncated_bytes, victim_len, "the whole stomped log is dropped");
    let mut reference = ShardedStore::new(DIM, N_SHARDS, exact_cfg());
    for (i, v) in pool.iter().take(12).enumerate() {
        reference.upsert(i as u64, v);
    }
    assert_bit_identical(&recovered, &reference, 31, "stomped");
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Real files, with every `sync` counted.
struct CountSyncs {
    inner: FsStorage,
    syncs: Arc<AtomicU64>,
}

impl Storage for CountSyncs {
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(path, bytes)
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::SeqCst);
        self.inner.sync(path)
    }

    fn close(&mut self, path: &Path) {
        self.inner.close(path);
    }
}

/// A group commit is one `fsync` whatever the shard count: one per
/// `wal_flush`, one per `Interval` commit past the window, and one per
/// `rebalance()` under `Always`, at 1 shard and at 16.
#[test]
fn one_fsync_per_group_commit_whatever_the_shard_count() {
    let pool = corpus(64, 3);
    for shards in [1, 16] {
        let dir = fresh_dir("syncs");
        let syncs = Arc::new(AtomicU64::new(0));
        let storage = CountSyncs { inner: FsStorage::new(), syncs: Arc::clone(&syncs) };
        let mut store = ShardedStore::open_durable_with(
            &dir,
            DIM,
            shards,
            exact_cfg(),
            None,
            Box::new(storage),
        )
        .expect("open");
        let taken = || syncs.swap(0, Ordering::SeqCst);

        // Hash placement spreads these over every shard; `Never` buffers.
        for (i, v) in pool.iter().enumerate() {
            store.upsert(i as u64, v);
        }
        assert_eq!(taken(), 0, "{shards} shards: Never does not sync on commit");
        store.wal_flush().expect("flush");
        assert_eq!(taken(), 1, "{shards} shards: one sync per wal_flush");

        // A zero window: every commit is past it.
        store.set_durability(DurabilityPolicy::Interval(0)).expect("policy");
        for (i, v) in pool.iter().enumerate().take(8) {
            store.upsert(100 + i as u64, v);
            assert_eq!(taken(), 1, "{shards} shards: one sync per Interval commit");
        }

        store.install_router(Arc::new(IvfRouter::train(&pool, shards, 42)));
        store.set_durability(DurabilityPolicy::Always).expect("policy");
        taken();
        let moved = store.rebalance();
        if shards > 1 {
            assert!(moved > 1, "training 16 cells must move many rows, moved {moved}");
        }
        assert_eq!(taken(), u64::from(moved > 0), "{shards} shards: one sync per rebalance");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A durable directory records its geometry: reopening it at another
/// dimension or shard count is an `InvalidData` error, not a store that
/// silently holds rows of the wrong length.
#[test]
fn a_durable_dir_refuses_another_geometry() {
    let dir = fresh_dir("geometry");
    let wide = |i: u64| (0..16).map(|j| ((i * 16 + j) % 7) as f32 - 3.0).collect::<Vec<f32>>();
    {
        let mut store = ShardedStore::open_durable(&dir, 16, N_SHARDS, exact_cfg()).expect("open");
        for i in 0..10u64 {
            store.upsert(i, &wide(i));
        }
    }
    for (dim, shards) in [(8, N_SHARDS), (16, N_SHARDS + 1)] {
        let err = ShardedStore::open_durable(&dir, dim, shards, exact_cfg())
            .expect_err("a geometry mismatch must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
    let store = ShardedStore::open_durable(&dir, 16, N_SHARDS, exact_cfg()).expect("reopen");
    assert_eq!(store.len(), 10, "the refused opens changed nothing");
    assert_eq!(store.wal_stats().expect("stats").replay_truncated_bytes, 0);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes as the log — whole, or spliced after a valid
    /// prefix — or as the manifest make `open_durable` return, never
    /// panic. Garbage in the log only bounds the durable prefix; a garbage
    /// manifest is an error.
    #[test]
    fn arbitrary_log_and_manifest_bytes_never_panic_open(
        junk in proptest::collection::vec(0u8..=255, 0..600),
        keep in 0usize..2000,
        target in 0u32..4,
    ) {
        let dir = fresh_dir("fuzz");
        {
            let mut store =
                ShardedStore::open_durable(&dir, DIM, N_SHARDS, exact_cfg()).expect("open");
            apply(&mut store, &script(keep as u64, 12));
        }
        let path = match target {
            0 | 1 => wal_files(&dir).pop().expect("a log"),
            _ => dir.join("MANIFEST"),
        };
        let mut bytes = std::fs::read(&path).expect("read");
        // Targets 1 and 3 splice the junk after a valid prefix.
        bytes.truncate(if target % 2 == 1 { keep } else { 0 });
        bytes.extend_from_slice(&junk);
        std::fs::write(&path, &bytes).expect("write junk");
        let opened = ShardedStore::open_durable(&dir, DIM, N_SHARDS, exact_cfg());
        if target < 2 {
            let store = opened.expect("a garbage log tail is no error");
            prop_assert!(store.len() <= 12);
        } else if target == 2 {
            prop_assert!(opened.is_err(), "random bytes are no manifest");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
