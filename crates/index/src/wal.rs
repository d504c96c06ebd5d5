//! Durability: per-shard write-ahead logging, group commit, and replay.
//!
//! A [`WalSet`] is the durability side of a
//! [`ShardedStore`](crate::ShardedStore): one append-only log per shard,
//! one global LSN counter across them, and a manifest tying the live log
//! segments to the `TBIX` snapshot they fold into. Mutations append one
//! record *before* they are acknowledged; reopening a directory replays
//! the snapshot plus every surviving record and lands bit-identical to
//! the durable prefix of the crashed process (property-tested in
//! `tests/prop_wal.rs`).
//!
//! **Record frames.** Each log is a sequence of length-prefixed frames:
//!
//! | bytes | field |
//! |-------|-------|
//! | 4     | body length, `u32` LE |
//! | 4     | CRC32 (IEEE) of the body, `u32` LE |
//! | 8     | LSN, `u64` LE — globally monotonic across all shard logs |
//! | 1     | kind: `0` upsert, `1` delete, `2` rebalance move |
//! | 8     | vector id, `u64` LE |
//! | 4+4n  | upsert/move only: component count `u32` LE, then `n × f32` LE (the L2-normalized vector, exact stored bits) |
//!
//! Every record is an **absolute state assignment** for its id: an upsert
//! or move says "this id lives in this shard with these bits", a delete
//! says "this id is dead". One mutation writes exactly one record — a
//! cross-shard move logs only in the destination, never a paired delete
//! in the source — so replay can resolve each id to its globally
//! highest-LSN surviving record and per-shard torn tails still recover a
//! state some prefix-respecting history could have produced (the "winner
//! rule"; `ShardedStore` applies it on open).
//!
//! **Group commit.** Appends always reach the OS file; `fsync` runs per
//! [`DurabilityPolicy`]: every commit (`Always`), at most once per
//! interval (`Interval`), or only on explicit flush/rotation (`Never`).
//! A batch of appends (e.g. a rebalance) commits once, so the fsync cost
//! amortizes across the batch — that is what keeps `Interval` ingest
//! within sight of `Never` in the index bench.
//!
//! **Torn tails.** Replay walks each log front to back and stops at the
//! first frame that is short, oversized, CRC-mismatched, or
//! LSN-non-monotonic; the file is truncated there and the byte count
//! reported. Garbage never panics — a corrupt tail simply bounds the
//! durable prefix.
//!
//! **Checkpoint lifecycle.** `ShardedStore::checkpoint` flushes, saves a
//! `snap-<lsn>.tbix` snapshot, then calls [`WalSet::fold`]: every shard
//! rotates to a fresh segment, the manifest is rewritten (atomically, via
//! temp-file rename) to reference the new snapshot + fresh segments, and
//! only then are the folded segments and the previous snapshot deleted.
//! A crash at any point leaves either the old manifest (old snapshot +
//! old segments, all still present) or the new one — never a manifest
//! pointing at deleted files. Unreferenced `wal-*`/`snap-*` leftovers are
//! garbage-collected on the next open.

use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// When appended records are made durable (`fsync`ed). Carried in
/// [`StoreConfig`](crate::StoreConfig) and adjustable at runtime through
/// `ShardedStore::set_durability`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// Fsync on every commit: nothing acknowledged is ever lost, at one
    /// fsync per mutation batch.
    Always,
    /// Group commit: fsync at most once per this many milliseconds;
    /// commits inside the window only buffer. Bounds loss to the window.
    Interval(u64),
    /// Never fsync except on explicit flush, rotation, and checkpoint.
    /// Survives process crashes (the OS has the writes) but not host
    /// crashes.
    #[default]
    Never,
}

impl fmt::Display for DurabilityPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityPolicy::Always => write!(f, "always"),
            DurabilityPolicy::Interval(ms) => write!(f, "interval({ms}ms)"),
            DurabilityPolicy::Never => write!(f, "never"),
        }
    }
}

/// One logged mutation. Vectors are the exact L2-normalized bits the
/// store holds, so replay re-inserts byte-identical rows.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// `id` lives in the log's shard with this vector.
    Upsert {
        /// The vector's id.
        id: u64,
        /// The L2-normalized vector, exact stored bits.
        vector: Vec<f32>,
    },
    /// `id` is dead.
    Delete {
        /// The vector's id.
        id: u64,
    },
    /// A rebalance/re-route moved `id` into the log's shard. Replays like
    /// an upsert; the distinct kind keeps logs auditable.
    Move {
        /// The vector's id.
        id: u64,
        /// The L2-normalized vector, exact stored bits.
        vector: Vec<f32>,
    },
}

const KIND_UPSERT: u8 = 0;
const KIND_DELETE: u8 = 1;
const KIND_MOVE: u8 = 2;

/// Frame body past the length prefix and CRC: LSN + kind + id.
const BODY_FIXED: usize = 8 + 1 + 8;

/// Sanity ceiling on one frame's body — far above any real record
/// (a dim-4096 vector is ~16 KiB), far below a corrupt length prefix
/// turning into a giant allocation.
const MAX_FRAME_BODY: u32 = 1 << 24;

impl WalRecord {
    /// The id this record assigns state for.
    pub fn id(&self) -> u64 {
        match self {
            WalRecord::Upsert { id, .. }
            | WalRecord::Delete { id }
            | WalRecord::Move { id, .. } => *id,
        }
    }

    fn kind(&self) -> u8 {
        match self {
            WalRecord::Upsert { .. } => KIND_UPSERT,
            WalRecord::Delete { .. } => KIND_DELETE,
            WalRecord::Move { .. } => KIND_MOVE,
        }
    }

    fn vector(&self) -> Option<&[f32]> {
        match self {
            WalRecord::Upsert { vector, .. } | WalRecord::Move { vector, .. } => Some(vector),
            WalRecord::Delete { .. } => None,
        }
    }
}

/// The encoded size of `rec`'s frame, length prefix and CRC included —
/// what one `append` adds to a log. Exposed so the fault-injection tests
/// can compute kill offsets at and inside frame boundaries.
pub fn frame_len(rec: &WalRecord) -> usize {
    8 + BODY_FIXED + rec.vector().map_or(0, |v| 4 + 4 * v.len())
}

/// Encodes one record frame: `[len][crc][lsn, kind, id, vector?]`.
pub(crate) fn encode_frame(lsn: u64, rec: &WalRecord) -> Vec<u8> {
    let mut body = Vec::with_capacity(frame_len(rec) - 8);
    body.extend_from_slice(&lsn.to_le_bytes());
    body.push(rec.kind());
    body.extend_from_slice(&rec.id().to_le_bytes());
    if let Some(v) = rec.vector() {
        body.extend_from_slice(&(v.len() as u32).to_le_bytes());
        for x in v {
            body.extend_from_slice(&x.to_le_bytes());
        }
    }
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decodes every intact frame of one log, stopping at the first torn or
/// corrupt one. Returns the records and the byte length of the valid
/// prefix; LSNs must be strictly increasing and above `after`.
fn decode_log(bytes: &[u8], mut after: u64) -> (Vec<(u64, WalRecord)>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len < BODY_FIXED as u32 || len > MAX_FRAME_BODY {
            break;
        }
        let (body_start, body_end) = (pos + 8, pos + 8 + len as usize);
        if body_end > bytes.len() {
            break;
        }
        let body = &bytes[body_start..body_end];
        if crc32(body) != crc {
            break;
        }
        let lsn = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
        if lsn <= after {
            break;
        }
        let kind = body[8];
        let id = u64::from_le_bytes(body[9..17].try_into().expect("8 bytes"));
        let rec = match kind {
            KIND_DELETE if body.len() == BODY_FIXED => WalRecord::Delete { id },
            KIND_UPSERT | KIND_MOVE if body.len() >= BODY_FIXED + 4 => {
                let n = u32::from_le_bytes(body[17..21].try_into().expect("4 bytes")) as usize;
                if body.len() != BODY_FIXED + 4 + 4 * n {
                    break;
                }
                let vector = body[21..]
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect();
                if kind == KIND_UPSERT {
                    WalRecord::Upsert { id, vector }
                } else {
                    WalRecord::Move { id, vector }
                }
            }
            _ => break,
        };
        records.push((lsn, rec));
        after = lsn;
        pos = body_end;
    }
    (records, pos)
}

// --- CRC32 (IEEE, reflected) ------------------------------------------------

const CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut b = 0;
        while b < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            b += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// CRC32 (IEEE 802.3, the zlib/PNG polynomial) of `bytes`. Shared by the
/// WAL frame codec and the `TBIX` v5 snapshot footer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

// --- storage ----------------------------------------------------------------

/// The byte-level sink WAL appends go through. Production uses
/// [`FsStorage`]; the crash-recovery property tests inject a shim that
/// silently drops everything past a chosen byte offset — simulating a
/// crash that lost the unsynced tail (including an `fsync` that claimed
/// success and never reached the platter).
///
/// Only the *write* path is abstracted: replay-on-open reads whatever the
/// real files hold, exactly as a restarted process would.
pub trait Storage: Send {
    /// Appends `bytes` at the end of `path`, creating the file if needed.
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Makes prior appends to `path` durable (`fsync`).
    fn sync(&mut self, path: &Path) -> io::Result<()>;
    /// Drops any cached handle for `path` (the segment was sealed or
    /// deleted).
    fn close(&mut self, _path: &Path) {}
}

/// Real files with cached append handles — the production [`Storage`].
#[derive(Default)]
pub struct FsStorage {
    handles: HashMap<PathBuf, File>,
}

impl FsStorage {
    /// An empty handle cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn handle(&mut self, path: &Path) -> io::Result<&mut File> {
        if !self.handles.contains_key(path) {
            let f = OpenOptions::new().create(true).append(true).open(path)?;
            self.handles.insert(path.to_path_buf(), f);
        }
        Ok(self.handles.get_mut(path).expect("handle just inserted"))
    }
}

impl Storage for FsStorage {
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.handle(path)?.write_all(bytes)
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        match self.handles.get(path) {
            Some(f) => f.sync_data(),
            // Nothing was appended through us; nothing to make durable.
            None => Ok(()),
        }
    }

    fn close(&mut self, path: &Path) {
        self.handles.remove(path);
    }
}

// --- stats ------------------------------------------------------------------

/// Observability counters for a [`WalSet`], surfaced through
/// `ShardedStore::wal_stats` and the serve tier's `Stats` reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Bytes of log not yet folded into a snapshot, across all shards —
    /// the replay debt a crash right now would incur; the checkpoint
    /// trigger signal.
    pub depth_bytes: u64,
    /// Highest LSN known durable (covered by an fsync).
    pub last_fsync_lsn: u64,
    /// Highest LSN appended (durable or not). `0` before any record.
    pub last_lsn: u64,
    /// The LSN the current snapshot folds; records at or below it live in
    /// the snapshot, not the logs.
    pub fold_lsn: u64,
    /// Records replayed when this `WalSet` was opened.
    pub replay_records: u64,
    /// Bytes truncated off torn/corrupt tails at open.
    pub replay_truncated_bytes: u64,
    /// Live log segments across all shards.
    pub segments: u64,
}

/// What replay-on-open found: the snapshot to load (if any), the
/// surviving records per shard (LSN-tagged, file order), and how much
/// torn tail was discarded. Consumed by `ShardedStore`'s durable open.
#[derive(Debug)]
pub struct Recovery {
    /// Full path of the snapshot the manifest references.
    pub snapshot: Option<PathBuf>,
    /// Surviving `(lsn, record)`s per shard, in log order.
    pub records: Vec<Vec<(u64, WalRecord)>>,
    /// The snapshot's fold LSN (`0` without a snapshot).
    pub fold_lsn: u64,
    /// Total records across `records`.
    pub replayed: u64,
    /// Bytes dropped from torn or corrupt log tails.
    pub truncated_bytes: u64,
}

// --- the log set ------------------------------------------------------------

/// Default rotation threshold for one segment file.
const DEFAULT_SEGMENT_CAP: u64 = 64 << 20;

const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";
const MANIFEST_MAGIC: &str = "TBWM 1";

/// One live segment file of one shard's log.
#[derive(Clone, Debug)]
struct Segment {
    seq: u64,
    file: String,
    bytes: u64,
}

fn segment_file(shard: usize, seq: u64) -> String {
    format!("wal-{shard:05}-{seq:010}.log")
}

/// The per-shard write-ahead logs of one durable store: appends, group
/// commit, segment rotation, the manifest, and fold/GC. See the [module
/// docs](self) for the format and crash-safety argument.
pub struct WalSet {
    dir: PathBuf,
    policy: DurabilityPolicy,
    storage: Box<dyn Storage>,
    /// Live segments per shard, oldest first; the last is the append
    /// target.
    segs: Vec<Vec<Segment>>,
    /// Shards with appends not yet covered by an fsync.
    dirty: Vec<bool>,
    next_lsn: u64,
    last_fsync_lsn: u64,
    last_sync: Instant,
    fold_lsn: u64,
    snapshot: Option<String>,
    segment_cap: u64,
    replay_records: u64,
    replay_truncated: u64,
}

impl fmt::Debug for WalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalSet")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .field("next_lsn", &self.next_lsn)
            .field("last_fsync_lsn", &self.last_fsync_lsn)
            .field("fold_lsn", &self.fold_lsn)
            .field("snapshot", &self.snapshot)
            .finish_non_exhaustive()
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl WalSet {
    /// Opens (or initializes) the log set in `dir` and replays whatever a
    /// previous process left: reads the manifest, walks every live
    /// segment, truncates torn tails, garbage-collects unreferenced
    /// files, and returns the surviving records for the store to apply.
    /// A fresh directory initializes one empty segment per shard and an
    /// empty [`Recovery`].
    ///
    /// Corrupt *logs* are tolerated (truncate-at-first-bad-CRC); a
    /// corrupt or geometry-mismatched *manifest* is an error — it is
    /// rewritten atomically, so damage means something outside this
    /// module touched it.
    pub fn open(
        dir: &Path,
        n_shards: usize,
        policy: DurabilityPolicy,
        storage: Box<dyn Storage>,
    ) -> io::Result<(WalSet, Recovery)> {
        assert!(n_shards > 0, "a WalSet needs at least one shard");
        fs::create_dir_all(dir)?;
        let mut wal = WalSet {
            dir: dir.to_path_buf(),
            policy,
            storage,
            segs: (0..n_shards).map(|_| Vec::new()).collect(),
            dirty: vec![false; n_shards],
            next_lsn: 1,
            last_fsync_lsn: 0,
            last_sync: Instant::now(),
            fold_lsn: 0,
            snapshot: None,
            segment_cap: DEFAULT_SEGMENT_CAP,
            replay_records: 0,
            replay_truncated: 0,
        };
        let manifest = dir.join(MANIFEST_FILE);
        if !manifest.exists() {
            for (shard, segs) in wal.segs.iter_mut().enumerate() {
                segs.push(Segment { seq: 1, file: segment_file(shard, 1), bytes: 0 });
            }
            wal.write_manifest()?;
            let records = (0..n_shards).map(|_| Vec::new()).collect();
            let rec =
                Recovery { snapshot: None, records, fold_lsn: 0, replayed: 0, truncated_bytes: 0 };
            return Ok((wal, rec));
        }

        let (fold_lsn, snapshot, listed) = read_manifest(&manifest)?;
        for &(shard, _, _) in &listed {
            if shard >= n_shards {
                return Err(invalid(format!(
                    "WAL manifest references shard {shard} but the store opened with {n_shards} shards"
                )));
            }
        }
        for (shard, seq, file) in listed {
            wal.segs[shard].push(Segment { seq, file, bytes: 0 });
        }
        for (shard, segs) in wal.segs.iter_mut().enumerate() {
            if segs.is_empty() {
                return Err(invalid(format!(
                    "WAL manifest lists no segment for shard {shard} — shard-count mismatch?"
                )));
            }
            segs.sort_by_key(|s| s.seq);
        }
        let snapshot_path = match &snapshot {
            Some(name) => {
                let p = dir.join(name);
                if !p.exists() {
                    return Err(invalid(format!(
                        "WAL manifest references missing snapshot {name}"
                    )));
                }
                Some(p)
            }
            None => None,
        };

        // Replay every shard's segments in order, truncating at the first
        // bad frame and discarding anything after it (later frames of a
        // shard whose tail tore were never acknowledged as durable).
        let mut records: Vec<Vec<(u64, WalRecord)>> = (0..n_shards).map(|_| Vec::new()).collect();
        let mut replayed = 0u64;
        let mut truncated = 0u64;
        let mut max_lsn = fold_lsn;
        for (shard_segs, shard_records) in wal.segs.iter_mut().zip(records.iter_mut()) {
            let mut after = fold_lsn;
            let mut torn = false;
            for seg in shard_segs.iter_mut() {
                let path = dir.join(&seg.file);
                let bytes = match fs::read(&path) {
                    Ok(b) => b,
                    Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                    Err(e) => return Err(e),
                };
                let (valid_len, recs) = if torn {
                    (0, Vec::new())
                } else {
                    let (recs, valid) = decode_log(&bytes, after);
                    (valid, recs)
                };
                if valid_len < bytes.len() {
                    torn = true;
                    truncated += (bytes.len() - valid_len) as u64;
                    truncate_file(&path, valid_len as u64)?;
                }
                seg.bytes = valid_len as u64;
                if let Some((lsn, _)) = recs.last() {
                    after = *lsn;
                    max_lsn = max_lsn.max(*lsn);
                }
                replayed += recs.len() as u64;
                shard_records.extend(recs);
            }
        }
        wal.fold_lsn = fold_lsn;
        wal.snapshot = snapshot;
        wal.next_lsn = max_lsn + 1;
        // Everything just read back off disk is durable by construction.
        wal.last_fsync_lsn = max_lsn;
        wal.replay_records = replayed;
        wal.replay_truncated = truncated;
        wal.gc_unreferenced()?;
        let rec = Recovery {
            snapshot: snapshot_path,
            records,
            fold_lsn,
            replayed,
            truncated_bytes: truncated,
        };
        Ok((wal, rec))
    }

    /// Appends one record to `shard`'s log and returns its LSN. The bytes
    /// reach the OS file before this returns; durability follows the
    /// policy at the next [`commit`](Self::commit). Rotates the segment
    /// past the size cap (sealing syncs it regardless of policy).
    pub fn append(&mut self, shard: usize, rec: &WalRecord) -> io::Result<u64> {
        if self.segs[shard].last().expect("every shard has a segment").bytes >= self.segment_cap {
            self.rotate(shard)?;
        }
        let lsn = self.next_lsn;
        let frame = encode_frame(lsn, rec);
        let path = self.dir.join(&self.segs[shard].last().expect("segment").file);
        self.storage.append(&path, &frame)?;
        self.next_lsn += 1;
        self.segs[shard].last_mut().expect("segment").bytes += frame.len() as u64;
        self.dirty[shard] = true;
        Ok(lsn)
    }

    /// Makes the batch since the last commit durable per the policy:
    /// `Always` syncs now, `Interval` syncs when the window has elapsed,
    /// `Never` returns immediately. Call once per mutation *batch* — that
    /// is the group in group commit.
    pub fn commit(&mut self) -> io::Result<()> {
        match self.policy {
            DurabilityPolicy::Always => self.sync_dirty(),
            DurabilityPolicy::Interval(ms) => {
                if self.last_sync.elapsed() >= Duration::from_millis(ms) {
                    self.sync_dirty()
                } else {
                    Ok(())
                }
            }
            DurabilityPolicy::Never => Ok(()),
        }
    }

    /// Fsyncs every dirty log now, regardless of policy — graceful
    /// shutdown, checkpoint prologue, and the serve tier's flush.
    pub fn flush(&mut self) -> io::Result<()> {
        self.sync_dirty()
    }

    fn sync_dirty(&mut self) -> io::Result<()> {
        for shard in 0..self.segs.len() {
            if self.dirty[shard] {
                let path = self.dir.join(&self.segs[shard].last().expect("segment").file);
                self.storage.sync(&path)?;
                self.dirty[shard] = false;
            }
        }
        self.last_fsync_lsn = self.next_lsn - 1;
        self.last_sync = Instant::now();
        Ok(())
    }

    fn rotate(&mut self, shard: usize) -> io::Result<()> {
        let old = self.segs[shard].last().expect("segment").clone();
        let old_path = self.dir.join(&old.file);
        // A sealed segment is always durable, whatever the policy — replay
        // treats segment boundaries as safe ground.
        self.storage.sync(&old_path)?;
        self.storage.close(&old_path);
        let seq = old.seq + 1;
        self.segs[shard].push(Segment { seq, file: segment_file(shard, seq), bytes: 0 });
        self.write_manifest()
    }

    /// Folds everything up to `fold_lsn` into `snapshot` (a file name in
    /// the WAL directory, already written): rotates every shard to a
    /// fresh segment, rewrites the manifest to reference the snapshot and
    /// the fresh segments, then deletes the folded segments and the
    /// previous snapshot. The caller must have [`flush`](Self::flush)ed
    /// first — `ShardedStore::checkpoint` is the orchestration.
    pub fn fold(&mut self, fold_lsn: u64, snapshot: String) -> io::Result<()> {
        let mut old_files = Vec::new();
        for shard in 0..self.segs.len() {
            let seq = self.segs[shard].last().map_or(0, |s| s.seq) + 1;
            let drained: Vec<Segment> = self.segs[shard].drain(..).collect();
            for s in drained {
                self.storage.close(&self.dir.join(&s.file));
                old_files.push(s.file);
            }
            self.segs[shard].push(Segment { seq, file: segment_file(shard, seq), bytes: 0 });
            self.dirty[shard] = false;
        }
        let old_snapshot = self.snapshot.replace(snapshot);
        self.fold_lsn = fold_lsn;
        self.write_manifest()?;
        // Only after the new manifest is durable do the folded files go.
        for f in old_files {
            let _ = fs::remove_file(self.dir.join(f));
        }
        if let Some(old) = old_snapshot {
            if self.snapshot.as_deref() != Some(old.as_str()) {
                let _ = fs::remove_file(self.dir.join(old));
            }
        }
        Ok(())
    }

    /// Deletes `wal-*`/`snap-*`/tmp files the manifest does not reference
    /// — leftovers of a crash between manifest rewrite and deletion.
    fn gc_unreferenced(&mut self) -> io::Result<()> {
        let mut referenced: Vec<&str> =
            self.segs.iter().flatten().map(|s| s.file.as_str()).collect();
        if let Some(s) = &self.snapshot {
            referenced.push(s.as_str());
        }
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = name == MANIFEST_TMP
                || ((name.starts_with("wal-") || name.starts_with("snap-"))
                    && !referenced.contains(&name));
            if stale {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    fn write_manifest(&self) -> io::Result<()> {
        let mut text = String::new();
        text.push_str(MANIFEST_MAGIC);
        text.push('\n');
        text.push_str(&format!("fold_lsn {}\n", self.fold_lsn));
        text.push_str(&format!("snapshot {}\n", self.snapshot.as_deref().unwrap_or("-")));
        for (shard, segs) in self.segs.iter().enumerate() {
            for s in segs {
                text.push_str(&format!("segment {shard} {} {}\n", s.seq, s.file));
            }
        }
        text.push_str(&format!("crc {:08x}\n", crc32(text.as_bytes())));
        let tmp = self.dir.join(MANIFEST_TMP);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join(MANIFEST_FILE))?;
        // Persist the rename itself; without the directory sync a crash
        // could resurrect the old manifest after fold deleted its files.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Current counters; see [`WalStats`].
    pub fn stats(&self) -> WalStats {
        WalStats {
            depth_bytes: self.segs.iter().flatten().map(|s| s.bytes).sum(),
            last_fsync_lsn: self.last_fsync_lsn,
            last_lsn: self.next_lsn - 1,
            fold_lsn: self.fold_lsn,
            replay_records: self.replay_records,
            replay_truncated_bytes: self.replay_truncated,
            segments: self.segs.iter().map(|s| s.len() as u64).sum(),
        }
    }

    /// The highest LSN appended so far (`0` before any record).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// The directory the logs, manifest, and snapshots live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active fsync policy.
    pub fn policy(&self) -> DurabilityPolicy {
        self.policy
    }

    /// Swaps the fsync policy at runtime (serve's durable mode does this
    /// at bind). Tightening to `Always` syncs the backlog immediately.
    pub fn set_policy(&mut self, policy: DurabilityPolicy) -> io::Result<()> {
        self.policy = policy;
        if policy == DurabilityPolicy::Always {
            self.sync_dirty()?;
        }
        Ok(())
    }

    /// Overrides the segment rotation threshold (tests exercise rotation
    /// without writing 64 MiB).
    pub fn set_segment_cap(&mut self, bytes: u64) {
        self.segment_cap = bytes.max(1);
    }
}

fn truncate_file(path: &Path, len: u64) -> io::Result<()> {
    match OpenOptions::new().write(true).open(path) {
        Ok(f) => f.set_len(len),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// A parsed manifest: `(fold_lsn, snapshot name, [(shard, seq, file)])`.
type Manifest = (u64, Option<String>, Vec<(usize, u64, String)>);

fn read_manifest(path: &Path) -> io::Result<Manifest> {
    let text =
        fs::read_to_string(path).map_err(|e| invalid(format!("unreadable WAL manifest: {e}")))?;
    let bad = |what: &str| invalid(format!("corrupt WAL manifest: {what}"));
    let Some((body, crc_line)) = text.trim_end_matches('\n').rsplit_once('\n') else {
        return Err(bad("too short"));
    };
    let body_with_nl = &text[..body.len() + 1];
    let Some(crc_hex) = crc_line.strip_prefix("crc ") else {
        return Err(bad("missing crc line"));
    };
    let crc = u32::from_str_radix(crc_hex.trim(), 16).map_err(|_| bad("unparsable crc"))?;
    if crc != crc32(body_with_nl.as_bytes()) {
        return Err(bad("crc mismatch"));
    }
    let mut lines = body.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(bad("bad magic"));
    }
    let fold_lsn = lines
        .next()
        .and_then(|l| l.strip_prefix("fold_lsn "))
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| bad("bad fold_lsn line"))?;
    let snapshot = match lines.next().and_then(|l| l.strip_prefix("snapshot ")) {
        Some("-") => None,
        Some(name) if !name.is_empty() && !name.contains('/') => Some(name.to_string()),
        _ => return Err(bad("bad snapshot line")),
    };
    let mut segs = Vec::new();
    for line in lines {
        let mut parts = line.split(' ');
        let (tag, shard, seq, file) = (parts.next(), parts.next(), parts.next(), parts.next());
        let (Some("segment"), Some(shard), Some(seq), Some(file), None) =
            (tag, shard, seq, file, parts.next())
        else {
            return Err(bad("bad segment line"));
        };
        let shard = shard.parse::<usize>().map_err(|_| bad("bad segment shard"))?;
        let seq = seq.parse::<u64>().map_err(|_| bad("bad segment seq"))?;
        if file.is_empty() || file.contains('/') {
            return Err(bad("bad segment file"));
        }
        segs.push((shard, seq, file.to_string()));
    }
    Ok((fold_lsn, snapshot, segs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tabbin_wal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn upsert(id: u64, x: f32) -> WalRecord {
        WalRecord::Upsert { id, vector: vec![x, -x, 0.5] }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32/ISO-HDLC check input.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_roundtrip_and_size_as_advertised() {
        for rec in [
            upsert(7, 1.25),
            WalRecord::Delete { id: 9 },
            WalRecord::Move { id: 3, vector: vec![0.0, 1.0] },
        ] {
            let frame = encode_frame(42, &rec);
            assert_eq!(frame.len(), frame_len(&rec));
            let (recs, valid) = decode_log(&frame, 0);
            assert_eq!(valid, frame.len());
            assert_eq!(recs, vec![(42, rec)]);
        }
    }

    #[test]
    fn decode_stops_at_torn_and_corrupt_tails() {
        let mut log = encode_frame(1, &upsert(1, 0.5));
        let first = log.len();
        log.extend(encode_frame(2, &upsert(2, 0.25)));
        // Torn mid-record: drop the last 3 bytes.
        let (recs, valid) = decode_log(&log[..log.len() - 3], 0);
        assert_eq!(recs.len(), 1);
        assert_eq!(valid, first);
        // Torn mid-length-prefix: only 2 bytes of the second frame.
        let (recs, valid) = decode_log(&log[..first + 2], 0);
        assert_eq!((recs.len(), valid), (1, first));
        // A flipped byte in the second body fails its CRC.
        let mut flipped = log.clone();
        flipped[first + 12] ^= 0x40;
        let (recs, valid) = decode_log(&flipped, 0);
        assert_eq!((recs.len(), valid), (1, first));
        // Non-monotonic LSNs stop replay too.
        let mut stale = encode_frame(5, &upsert(1, 0.5));
        stale.extend(encode_frame(5, &upsert(2, 0.25)));
        let (recs, _) = decode_log(&stale, 0);
        assert_eq!(recs.len(), 1);
        // Pure garbage decodes to nothing without panicking.
        let (recs, valid) = decode_log(&[0xff; 64], 0);
        assert_eq!((recs.len(), valid), (0, 0));
    }

    #[test]
    fn group_commit_follows_the_policy() {
        let dir = tmp_dir("policy");
        let (mut wal, _) =
            WalSet::open(&dir, 2, DurabilityPolicy::Never, Box::new(FsStorage::new())).unwrap();
        wal.append(0, &upsert(1, 0.5)).unwrap();
        wal.commit().unwrap();
        assert_eq!(wal.stats().last_fsync_lsn, 0, "Never must not fsync on commit");
        assert_eq!(wal.stats().last_lsn, 1);
        wal.flush().unwrap();
        assert_eq!(wal.stats().last_fsync_lsn, 1, "explicit flush always syncs");

        wal.set_policy(DurabilityPolicy::Always).unwrap();
        wal.append(1, &upsert(2, 0.25)).unwrap();
        wal.commit().unwrap();
        assert_eq!(wal.stats().last_fsync_lsn, 2, "Always syncs every commit");

        // A generous interval: the first commit inside the window buffers.
        wal.set_policy(DurabilityPolicy::Interval(60_000)).unwrap();
        wal.append(0, &upsert(3, 0.125)).unwrap();
        wal.commit().unwrap();
        assert_eq!(wal.stats().last_fsync_lsn, 2, "commit inside the window must buffer");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_replays_appends_and_rotation_gc_works() {
        let dir = tmp_dir("reopen");
        {
            let (mut wal, _) =
                WalSet::open(&dir, 2, DurabilityPolicy::Never, Box::new(FsStorage::new())).unwrap();
            wal.set_segment_cap(1); // every append rotates the next one
            for i in 0..5u64 {
                wal.append((i % 2) as usize, &upsert(i, 0.5)).unwrap();
            }
            wal.flush().unwrap();
            assert!(wal.stats().segments > 2, "cap of 1 byte must have rotated");
        }
        let (wal, rec) =
            WalSet::open(&dir, 2, DurabilityPolicy::Never, Box::new(FsStorage::new())).unwrap();
        assert_eq!(rec.replayed, 5);
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.records[0].len() + rec.records[1].len(), 5);
        assert_eq!(wal.last_lsn(), 5);
        // LSNs are globally monotonic in replay order per shard.
        for shard in &rec.records {
            for pair in shard.windows(2) {
                assert!(pair[0].0 < pair[1].0);
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fold_rewrites_the_manifest_and_deletes_folded_segments() {
        let dir = tmp_dir("fold");
        {
            let (mut wal, _) =
                WalSet::open(&dir, 2, DurabilityPolicy::Never, Box::new(FsStorage::new())).unwrap();
            for i in 0..4u64 {
                wal.append((i % 2) as usize, &upsert(i, 0.5)).unwrap();
            }
            wal.flush().unwrap();
            let fold = wal.last_lsn();
            fs::write(dir.join("snap-test.tbix"), b"snapshot bytes").unwrap();
            wal.fold(fold, "snap-test.tbix".to_string()).unwrap();
            assert_eq!(wal.stats().depth_bytes, 0, "fresh segments after fold");
            assert_eq!(wal.stats().fold_lsn, 4);
            // Post-fold appends land in the fresh segments.
            wal.append(0, &upsert(9, 0.5)).unwrap();
            wal.flush().unwrap();
        }
        let (wal, rec) =
            WalSet::open(&dir, 2, DurabilityPolicy::Never, Box::new(FsStorage::new())).unwrap();
        assert_eq!(rec.fold_lsn, 4);
        assert_eq!(rec.replayed, 1, "only the post-fold record replays");
        assert_eq!(rec.snapshot.as_deref(), Some(dir.join("snap-test.tbix").as_path()));
        assert_eq!(wal.stats().replay_records, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_never_panics_on_garbage_logs_and_errors_on_bad_manifests() {
        let dir = tmp_dir("garbage");
        {
            let (mut wal, _) =
                WalSet::open(&dir, 1, DurabilityPolicy::Never, Box::new(FsStorage::new())).unwrap();
            wal.append(0, &upsert(1, 0.5)).unwrap();
            wal.flush().unwrap();
        }
        // Stomp the whole log with garbage: open succeeds, replays zero.
        fs::write(dir.join(segment_file(0, 1)), vec![0xabu8; 512]).unwrap();
        let (_, rec) =
            WalSet::open(&dir, 1, DurabilityPolicy::Never, Box::new(FsStorage::new())).unwrap();
        assert_eq!(rec.replayed, 0);
        assert_eq!(rec.truncated_bytes, 512);
        // A corrupt manifest is a clean error, not a panic.
        let manifest = dir.join(MANIFEST_FILE);
        let mut bytes = fs::read(&manifest).unwrap();
        bytes[8] ^= 0x01;
        fs::write(&manifest, bytes).unwrap();
        let err = WalSet::open(&dir, 1, DurabilityPolicy::Never, Box::new(FsStorage::new()))
            .expect_err("corrupt manifest must error");
        assert!(err.to_string().contains("manifest"), "unhelpful error: {err}");
        // Shard-count mismatches are refused too.
        fs::remove_dir_all(&dir).ok();
        let (_w, _r) =
            WalSet::open(&dir, 2, DurabilityPolicy::Never, Box::new(FsStorage::new())).unwrap();
        let err = WalSet::open(&dir, 1, DurabilityPolicy::Never, Box::new(FsStorage::new()))
            .expect_err("shard mismatch must error");
        assert!(err.to_string().contains("shard"), "unhelpful error: {err}");
        fs::remove_dir_all(&dir).ok();
    }
}
