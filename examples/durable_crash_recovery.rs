//! Kill-and-recover smoke test for the durability tier.
//!
//! The parent re-spawns this binary as an ingest child writing a durable
//! [`ShardedStore`] under `DurabilityPolicy::Interval(5)`, SIGKILLs it
//! mid-ingest — no flush, no graceful shutdown — then reopens the same
//! directory and reports what the write-ahead log replayed. The store
//! keeps one log, so the recovered ids must be exactly a prefix of the
//! ack order. CI greps the `recovered N records` and `prefix check passed`
//! lines.
//!
//! Run with: `cargo run --release --example durable_crash_recovery`

use std::path::{Path, PathBuf};
use std::process::Command;
use std::thread;
use std::time::Duration;
use tabbin_index::{DurabilityPolicy, ExactScan, ShardedStore, StoreConfig};

const DIM: usize = 16;
const N_SHARDS: usize = 4;

fn cfg() -> StoreConfig {
    StoreConfig {
        seal_threshold: 64,
        durability: DurabilityPolicy::Interval(5),
        ..StoreConfig::default()
    }
}

/// Deterministic pseudo-embedding for row `id`.
fn vector(id: u64) -> Vec<f32> {
    (0..DIM)
        .map(|j| {
            let x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(j as u32);
            (x as f32 / u64::MAX as f32) * 2.0 - 1.0
        })
        .collect()
}

/// The child: ingest slowly forever — it only stops when the parent kills
/// it, so the kill always lands mid-ingest.
fn run_child(dir: &Path) -> ! {
    let mut store =
        ShardedStore::open_durable(dir, DIM, N_SHARDS, cfg()).expect("child: durable open");
    for id in 0..u64::MAX {
        store.upsert(id, &vector(id));
        thread::sleep(Duration::from_millis(1));
    }
    unreachable!("the parent kills us long before the id space runs out");
}

fn main() {
    let mut args = std::env::args();
    let exe = args.next().expect("argv[0]");
    if let Some(dir) = args.next() {
        run_child(&PathBuf::from(dir));
    }

    let dir = std::env::temp_dir().join(format!("tabbin_crash_recovery_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: the crash. The child acknowledges writes under a 5 ms group
    // commit window; SIGKILL gives it no chance to flush or shut down.
    let mut child =
        Command::new(&exe).arg(dir.display().to_string()).spawn().expect("spawn ingest child");
    thread::sleep(Duration::from_millis(700));
    child.kill().expect("SIGKILL the ingest child");
    let status = child.wait().expect("reap the child");
    println!("ingest child killed mid-write (status: {status})");

    // Phase 2: recovery. Reopen replays the store's one log in LSN order,
    // truncating any torn tail the kill left behind.
    let store = ShardedStore::open_durable(&dir, DIM, N_SHARDS, cfg()).expect("reopen after kill");
    let stats = store.wal_stats().expect("durable store exposes WAL stats");
    println!(
        "recovered {} records ({} torn bytes truncated, last LSN {})",
        stats.replay_records, stats.replay_truncated_bytes, stats.last_lsn,
    );
    assert!(stats.replay_records > 0, "700 ms of throttled ingest must land some records");
    assert_eq!(store.len() as u64, stats.replay_records, "distinct ids: one live row per record");
    // The child acknowledged ids 0, 1, 2, … in order; the durable prefix of
    // that history is exactly the ids below the replay count.
    let n = stats.replay_records;
    let missing: Vec<u64> = (0..n).filter(|&id| !store.contains(id)).collect();
    assert!(missing.is_empty(), "recovered ids are not a prefix of the ack order: {missing:?}");
    println!("prefix check passed: the recovered ids are exactly 0..{n}");

    // And the recovered rows answer queries: the nearest neighbor of a
    // recovered row's own vector is that row.
    let probe = stats.replay_records / 2;
    let hits = store.search(&vector(probe), 1, &ExactScan);
    assert_eq!(hits.first().map(|h| h.id), Some(probe), "recovered row answers its own query");
    println!("query check passed: id {probe} is its own nearest neighbor after recovery");

    let _ = std::fs::remove_dir_all(&dir);
}
