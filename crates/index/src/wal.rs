//! Durability: one write-ahead log per store, group commit, and replay.
//!
//! A [`WalSet`] is the durability side of a
//! [`ShardedStore`](crate::ShardedStore): one append-only log for the
//! whole store, whatever its shard count, and a manifest tying the live
//! log segments to the `TBIX` snapshot they fold into. Mutations append
//! one record *before* they are acknowledged; reopening a directory
//! replays the snapshot plus every surviving record and lands
//! bit-identical to the durable prefix of the crashed process
//! (property-tested in `tests/prop_wal.rs`).
//!
//! **Record frames.** The log is a sequence of length-prefixed frames:
//!
//! | bytes | field |
//! |-------|-------|
//! | 4     | body length, `u32` LE |
//! | 4     | CRC32 (IEEE) of the body, `u32` LE |
//! | 8     | LSN, `u64` LE — strictly increasing through the log |
//! | 1     | kind: `0` upsert, `1` delete, `2` rebalance move |
//! | 8     | vector id, `u64` LE |
//! | 4+4n  | upsert/move only: destination shard `u32` LE, then `n × f32` LE (the L2-normalized vector, exact stored bits; `n` follows from the body length) |
//!
//! Every record is an **absolute state assignment** for its id: an upsert
//! or move says "this id lives in this shard with these bits", a delete
//! says "this id is dead" (replay finds its shard through the placement
//! map). One mutation writes exactly one record — a cross-shard move is
//! one record naming the destination, never a paired delete.
//!
//! **Group commit.** Appends always reach the OS file; `fsync` runs per
//! [`DurabilityPolicy`]: every commit (`Always`), on the first commit a
//! window after the last sync (`Interval`), or only on explicit flush,
//! rotation and checkpoint (`Never`). Whatever the shard count, a sync is
//! one `fsync` of one file, and a batch of appends (e.g. a rebalance)
//! commits once.
//!
//! **Exact prefix.** Replay walks the segments front to back and stops at
//! the first frame that is short, oversized, CRC-mismatched, or
//! LSN-non-monotonic: that segment is truncated there, any later one
//! emptied, and the byte count reported. The log is one total order, so
//! the recovered store is always *exactly* a prefix of the acknowledged
//! history. Garbage never panics. A frame whose CRC holds but whose
//! vector is not the store's dimension, or whose shard is out of range,
//! is no torn tail: open fails with `InvalidData` and truncates nothing.
//!
//! **Checkpoint lifecycle.** `ShardedStore::checkpoint` flushes, saves a
//! `snap-<lsn>.tbix` snapshot, then calls [`WalSet::fold`]: the log
//! rotates to a fresh segment, the manifest is rewritten (atomically, via
//! temp-file rename) to reference the new snapshot + fresh segment, and
//! only then are the folded segments and the previous snapshot deleted.
//! A crash at any point leaves either the old manifest (old snapshot +
//! old segments, all still present) or the new one — never a manifest
//! pointing at deleted files. Unreferenced `wal-*`/`snap-*` leftovers are
//! garbage-collected on the next open.

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
    /// Group commit: a commit fsyncs once this many milliseconds have
    /// passed since the last sync; commits inside the window only buffer.
    /// While writes keep arriving a crash loses at most the last window.
    /// After a burst, an idle store's tail stays unsynced until the next
    /// commit past the window, a flush, a checkpoint, or drop.
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
    /// `id` lives in `shard` with this vector.
    Upsert {
        /// The vector's id.
        id: u64,
        /// The shard the row was placed in.
        shard: u32,
        /// The L2-normalized vector, exact stored bits.
        vector: Vec<f32>,
    },
    /// `id` is dead.
    Delete {
        /// The vector's id.
        id: u64,
    },
    /// A rebalance/re-route moved `id` into `shard`. Replays like an
    /// upsert; the distinct kind keeps logs auditable.
    Move {
        /// The vector's id.
        id: u64,
        /// The shard the row moved into.
        shard: u32,
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

    /// The placed row of an upsert or move: `(shard, vector)`.
    fn placed(&self) -> Option<(u32, &[f32])> {
        match self {
            WalRecord::Upsert { shard, vector, .. } | WalRecord::Move { shard, vector, .. } => {
                Some((*shard, vector))
            }
            WalRecord::Delete { .. } => None,
        }
    }
}

/// The encoded size of `rec`'s frame, length prefix and CRC included —
/// what one `append` adds to the log. Exposed so the fault-injection tests
/// can compute kill offsets at and inside frame boundaries.
pub fn frame_len(rec: &WalRecord) -> usize {
    8 + BODY_FIXED + rec.placed().map_or(0, |(_, v)| 4 + 4 * v.len())
}

/// Encodes one record frame, `[len][crc][lsn, kind, id, shard?, vector?]`,
/// into `out` (cleared first).
pub(crate) fn encode_frame(out: &mut Vec<u8>, lsn: u64, rec: &WalRecord) {
    out.clear();
    out.reserve(frame_len(rec));
    out.extend_from_slice(&[0; 8]);
    out.extend_from_slice(&lsn.to_le_bytes());
    out.push(rec.kind());
    out.extend_from_slice(&rec.id().to_le_bytes());
    if let Some((shard, v)) = rec.placed() {
        out.extend_from_slice(&shard.to_le_bytes());
        for x in v {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    let (len, crc) = ((out.len() - 8) as u32, crc32(&out[8..]));
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes the intact frames of one segment into `out`, stopping at the
/// first torn or corrupt one, and returns the byte length of the valid
/// prefix. LSNs must be strictly increasing and above `*after`, which
/// advances past every decoded frame. A CRC-valid frame whose vector is
/// not `dim` long or whose shard is not below `shards` is an error.
fn decode_log(
    bytes: &[u8],
    after: &mut u64,
    dim: usize,
    shards: usize,
    out: &mut Vec<WalRecord>,
) -> io::Result<usize> {
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
        if lsn <= *after {
            break;
        }
        let kind = body[8];
        let id = u64::from_le_bytes(body[9..17].try_into().expect("8 bytes"));
        let rec = match kind {
            KIND_DELETE if body.len() == BODY_FIXED => WalRecord::Delete { id },
            KIND_UPSERT | KIND_MOVE if body.len() >= BODY_FIXED + 4 => {
                let shard = u32::from_le_bytes(body[17..21].try_into().expect("4 bytes"));
                let tail = &body[21..];
                if tail.len() != 4 * dim || shard as usize >= shards {
                    return Err(invalid(format!(
                        "WAL frame at LSN {lsn} holds a {}-byte vector for shard {shard}, \
                         but the store is {dim}-dim × {shards}-shard",
                        tail.len()
                    )));
                }
                let vector = tail
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect();
                if kind == KIND_UPSERT {
                    WalRecord::Upsert { id, shard, vector }
                } else {
                    WalRecord::Move { id, shard, vector }
                }
            }
            _ => break,
        };
        out.push(rec);
        *after = lsn;
        pos = body_end;
    }
    Ok(pos)
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

/// Real files behind one cached append handle — the production
/// [`Storage`]. A log appends to one segment at a time, so one handle is
/// all it keeps.
#[derive(Default)]
pub struct FsStorage {
    open: Option<(PathBuf, File)>,
}

impl FsStorage {
    /// Storage with no file open yet.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Storage for FsStorage {
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.open.as_ref().is_none_or(|(p, _)| p != path) {
            let f = OpenOptions::new().create(true).append(true).open(path)?;
            self.open = Some((path.to_path_buf(), f));
        }
        let (_, f) = self.open.as_mut().expect("handle just opened");
        f.write_all(bytes)
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        match &self.open {
            Some((p, f)) if p == path => f.sync_data(),
            // Nothing was appended through us; nothing to make durable.
            _ => Ok(()),
        }
    }

    fn close(&mut self, path: &Path) {
        if self.open.as_ref().is_some_and(|(p, _)| p == path) {
            self.open = None;
        }
    }
}

// --- stats ------------------------------------------------------------------

/// Observability counters for a [`WalSet`], surfaced through
/// `ShardedStore::wal_stats` and the serve tier's `Stats` reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Bytes of log not yet folded into a snapshot — the replay debt a
    /// crash right now would incur; the checkpoint trigger signal.
    pub depth_bytes: u64,
    /// Highest LSN known durable (covered by an fsync).
    pub last_fsync_lsn: u64,
    /// Highest LSN appended (durable or not). `0` before any record.
    pub last_lsn: u64,
    /// The LSN the current snapshot folds; records at or below it live in
    /// the snapshot, not the log.
    pub fold_lsn: u64,
    /// Records replayed when this `WalSet` was opened.
    pub replay_records: u64,
    /// Bytes truncated off torn/corrupt tails at open.
    pub replay_truncated_bytes: u64,
    /// Live log segments.
    pub segments: u64,
}

/// What replay-on-open found: the snapshot to load (if any) and the
/// surviving records in log order. Consumed by `ShardedStore`'s durable
/// open; the counts land in [`WalStats`].
#[derive(Debug)]
pub struct Recovery {
    /// Full path of the snapshot the manifest references.
    pub snapshot: Option<PathBuf>,
    /// Surviving records past the snapshot, in LSN order.
    pub records: Vec<WalRecord>,
}

// --- the log ----------------------------------------------------------------

/// Default rotation threshold for one segment file.
const DEFAULT_SEGMENT_CAP: u64 = 64 << 20;

const MANIFEST_FILE: &str = "MANIFEST";
const MANIFEST_TMP: &str = "MANIFEST.tmp";
const MANIFEST_VERSION: u32 = 2;

/// One live segment file of the log.
#[derive(Clone, Copy, Debug)]
struct Segment {
    seq: u64,
    bytes: u64,
}

fn segment_file(seq: u64) -> String {
    format!("wal-{seq:010}.log")
}

/// The write-ahead log of one durable store: appends, group commit,
/// segment rotation, the manifest, and fold/GC. See the [module
/// docs](self) for the format and crash-safety argument.
pub struct WalSet {
    dir: PathBuf,
    dim: usize,
    shards: usize,
    policy: DurabilityPolicy,
    storage: Box<dyn Storage>,
    /// Live segments, oldest first; the last is the append target.
    segs: Vec<Segment>,
    /// Full path of the append target.
    active: PathBuf,
    /// Appends not yet covered by an fsync.
    dirty: bool,
    /// The frame being appended, reused across appends.
    frame: Vec<u8>,
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
    /// Opens (or initializes) the log of a `dim`-dimensional,
    /// `shards`-shard store in `dir` and replays whatever a previous
    /// process left: reads the manifest, walks every live segment,
    /// truncates a torn tail, garbage-collects unreferenced files, and
    /// returns the surviving records for the store to apply. A fresh
    /// directory initializes one empty segment and an empty [`Recovery`].
    ///
    /// A torn or corrupt log tail is tolerated (it bounds the durable
    /// prefix). A corrupt manifest, one written for another geometry, and
    /// a CRC-valid frame that does not fit the geometry are errors — the
    /// manifest is rewritten atomically and frames are checksummed, so
    /// such damage means something outside this module wrote there.
    pub fn open(
        dir: &Path,
        dim: usize,
        shards: usize,
        policy: DurabilityPolicy,
        storage: Box<dyn Storage>,
    ) -> io::Result<(WalSet, Recovery)> {
        assert!(dim > 0 && shards > 0, "a WalSet needs a dimension and at least one shard");
        fs::create_dir_all(dir)?;
        let mut wal = WalSet {
            dir: dir.to_path_buf(),
            dim,
            shards,
            policy,
            storage,
            segs: Vec::new(),
            active: PathBuf::new(),
            dirty: false,
            frame: Vec::new(),
            next_lsn: 1,
            last_fsync_lsn: 0,
            last_sync: Instant::now(),
            fold_lsn: 0,
            snapshot: None,
            segment_cap: DEFAULT_SEGMENT_CAP,
            replay_records: 0,
            replay_truncated: 0,
        };
        let manifest_path = dir.join(MANIFEST_FILE);
        if !manifest_path.exists() {
            wal.push_segment(1, 0);
            wal.write_manifest()?;
            return Ok((wal, Recovery { snapshot: None, records: Vec::new() }));
        }

        let m = read_manifest(&manifest_path)?;
        if (m.dim, m.shards) != (dim, shards) {
            return Err(invalid(format!(
                "WAL manifest records a {}-dim × {}-shard store but it was opened as \
                 {dim}-dim × {shards}-shard",
                m.dim, m.shards
            )));
        }
        let snapshot_path = match &m.snapshot {
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

        // Replay the segments in order. The first bad frame ends the
        // durable prefix: its segment is truncated there and every later
        // segment emptied (nothing past a torn frame was acknowledged as
        // durable ahead of it).
        let mut records = Vec::new();
        let mut after = m.fold_lsn;
        let mut torn = false;
        for &seq in &m.segments {
            let path = dir.join(segment_file(seq));
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(e),
            };
            let valid =
                if torn { 0 } else { decode_log(&bytes, &mut after, dim, shards, &mut records)? };
            if valid < bytes.len() {
                torn = true;
                wal.replay_truncated += (bytes.len() - valid) as u64;
                truncate_file(&path, valid as u64)?;
            }
            wal.push_segment(seq, valid as u64);
        }
        wal.fold_lsn = m.fold_lsn;
        wal.snapshot = m.snapshot;
        wal.next_lsn = after + 1;
        // Everything just read back off disk is durable by construction.
        wal.last_fsync_lsn = after;
        wal.replay_records = records.len() as u64;
        wal.gc_unreferenced()?;
        Ok((wal, Recovery { snapshot: snapshot_path, records }))
    }

    /// Makes segment `seq`, holding `bytes` already, the append target.
    fn push_segment(&mut self, seq: u64, bytes: u64) {
        self.segs.push(Segment { seq, bytes });
        self.active = self.dir.join(segment_file(seq));
    }

    /// Appends one record to the log and returns its LSN. The bytes reach
    /// the OS file before this returns; durability follows the policy at
    /// the next [`commit`](Self::commit). Rotates the segment past the
    /// size cap (sealing syncs it regardless of policy).
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<u64> {
        debug_assert!(
            rec.placed().is_none_or(|(s, v)| (s as usize) < self.shards && v.len() == self.dim),
            "record does not fit the log's {}-dim × {}-shard store",
            self.dim,
            self.shards
        );
        if self.segs.last().expect("the log has a segment").bytes >= self.segment_cap {
            self.rotate()?;
        }
        let lsn = self.next_lsn;
        encode_frame(&mut self.frame, lsn, rec);
        self.storage.append(&self.active, &self.frame)?;
        self.next_lsn += 1;
        self.segs.last_mut().expect("segment").bytes += self.frame.len() as u64;
        self.dirty = true;
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

    /// Fsyncs any unsynced appends now, regardless of policy — graceful
    /// shutdown, checkpoint prologue, and the serve tier's flush.
    pub fn flush(&mut self) -> io::Result<()> {
        self.sync_dirty()
    }

    fn sync_dirty(&mut self) -> io::Result<()> {
        if self.dirty {
            self.storage.sync(&self.active)?;
            self.dirty = false;
        }
        self.last_fsync_lsn = self.next_lsn - 1;
        self.last_sync = Instant::now();
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        // A sealed segment is always durable, whatever the policy — replay
        // treats segment boundaries as safe ground.
        self.sync_dirty()?;
        self.storage.close(&self.active);
        let seq = self.segs.last().expect("segment").seq + 1;
        self.push_segment(seq, 0);
        self.write_manifest()
    }

    /// Folds everything up to `fold_lsn` into `snapshot` (a file name in
    /// the WAL directory, already written): rotates to a fresh segment,
    /// rewrites the manifest to reference the snapshot and the fresh
    /// segment, then deletes the folded segments and the previous
    /// snapshot. The caller must have [`flush`](Self::flush)ed first —
    /// `ShardedStore::checkpoint` is the orchestration.
    pub fn fold(&mut self, fold_lsn: u64, snapshot: String) -> io::Result<()> {
        self.storage.close(&self.active);
        let folded = std::mem::take(&mut self.segs);
        self.push_segment(folded.last().map_or(0, |s| s.seq) + 1, 0);
        self.dirty = false;
        let old_snapshot = self.snapshot.replace(snapshot);
        self.fold_lsn = fold_lsn;
        self.write_manifest()?;
        // Only after the new manifest is durable do the folded files go.
        for s in folded {
            let _ = fs::remove_file(self.dir.join(segment_file(s.seq)));
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
        let mut referenced: Vec<String> = self.segs.iter().map(|s| segment_file(s.seq)).collect();
        referenced.extend(self.snapshot.clone());
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = name == MANIFEST_TMP
                || ((name.starts_with("wal-") || name.starts_with("snap-"))
                    && !referenced.iter().any(|r| r == name));
            if stale {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    fn write_manifest(&self) -> io::Result<()> {
        let mut text = format!(
            "TBWM {MANIFEST_VERSION}\ndim {}\nshards {}\nfold_lsn {}\nsnapshot {}\n",
            self.dim,
            self.shards,
            self.fold_lsn,
            self.snapshot.as_deref().unwrap_or("-")
        );
        for s in &self.segs {
            text.push_str(&format!("segment {}\n", s.seq));
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
            depth_bytes: self.segs.iter().map(|s| s.bytes).sum(),
            last_fsync_lsn: self.last_fsync_lsn,
            last_lsn: self.next_lsn - 1,
            fold_lsn: self.fold_lsn,
            replay_records: self.replay_records,
            replay_truncated_bytes: self.replay_truncated,
            segments: self.segs.len() as u64,
        }
    }

    /// The highest LSN appended so far (`0` before any record).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// The directory the log, manifest, and snapshots live in.
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

/// A parsed `TBWM 2` manifest.
struct Manifest {
    dim: usize,
    shards: usize,
    fold_lsn: u64,
    snapshot: Option<String>,
    /// Live segment sequence numbers, strictly increasing.
    segments: Vec<u64>,
}

fn read_manifest(path: &Path) -> io::Result<Manifest> {
    let text =
        fs::read_to_string(path).map_err(|e| invalid(format!("unreadable WAL manifest: {e}")))?;
    let bad = |what: &str| invalid(format!("corrupt WAL manifest: {what}"));
    match text.lines().next().and_then(|l| l.strip_prefix("TBWM ")).map(str::parse::<u32>) {
        Some(Ok(MANIFEST_VERSION)) => {}
        Some(Ok(v)) => return Err(invalid(format!("unsupported WAL manifest version {v}"))),
        _ => return Err(bad("bad magic")),
    }
    let Some((body, crc_line)) = text.trim_end_matches('\n').rsplit_once('\n') else {
        return Err(bad("too short"));
    };
    let Some(crc_hex) = crc_line.strip_prefix("crc ") else {
        return Err(bad("missing crc line"));
    };
    let crc = u32::from_str_radix(crc_hex, 16).map_err(|_| bad("unparsable crc"))?;
    if crc != crc32(&text.as_bytes()[..body.len() + 1]) {
        return Err(bad("crc mismatch"));
    }
    let mut lines = body.lines().skip(1);
    let mut field = |key: &str| {
        lines
            .next()
            .and_then(|l| l.strip_prefix(key))
            .and_then(|v| v.strip_prefix(' '))
            .ok_or_else(|| bad(&format!("bad {key} line")))
    };
    let dim = field("dim")?.parse().map_err(|_| bad("bad dim"))?;
    let shards = field("shards")?.parse().map_err(|_| bad("bad shards"))?;
    let fold_lsn = field("fold_lsn")?.parse().map_err(|_| bad("bad fold_lsn"))?;
    let snapshot = match field("snapshot")? {
        "-" => None,
        name if !name.is_empty() && !name.contains('/') => Some(name.to_string()),
        _ => return Err(bad("bad snapshot name")),
    };
    let mut segments: Vec<u64> = Vec::new();
    for line in lines {
        let seq = line
            .strip_prefix("segment ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad segment line"))?;
        if segments.last().is_some_and(|&prev| prev >= seq) {
            return Err(bad("segments out of order"));
        }
        segments.push(seq);
    }
    if segments.is_empty() {
        return Err(bad("no segment"));
    }
    Ok(Manifest { dim, shards, fold_lsn, snapshot, segments })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIM: usize = 3;
    const SHARDS: usize = 2;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tabbin_wal_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn open(dir: &Path) -> io::Result<(WalSet, Recovery)> {
        WalSet::open(dir, DIM, SHARDS, DurabilityPolicy::Never, Box::new(FsStorage::new()))
    }

    fn upsert(id: u64, x: f32) -> WalRecord {
        WalRecord::Upsert { id, shard: (id % SHARDS as u64) as u32, vector: vec![x, -x, 0.5] }
    }

    fn frame(lsn: u64, rec: &WalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(&mut out, lsn, rec);
        out
    }

    /// Decodes `bytes` at the unit tests' geometry: `(records, valid)`.
    fn decode(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
        let mut out = Vec::new();
        let valid = decode_log(bytes, &mut 0, DIM, SHARDS, &mut out).expect("geometry fits");
        (out, valid)
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
            WalRecord::Move { id: 3, shard: 1, vector: vec![0.0, 1.0, -0.0] },
        ] {
            let bytes = frame(42, &rec);
            assert_eq!(bytes.len(), frame_len(&rec));
            assert_eq!(decode(&bytes), (vec![rec], bytes.len()));
        }
        // The shard sits where a component count would: the frame size is
        // the same as a `u32` count's.
        assert_eq!(frame_len(&upsert(1, 0.5)), 8 + BODY_FIXED + 4 + 4 * DIM);
    }

    #[test]
    fn decode_stops_at_torn_and_corrupt_tails() {
        let mut log = frame(1, &upsert(1, 0.5));
        let first = log.len();
        log.extend(frame(2, &upsert(2, 0.25)));
        // Torn mid-record: drop the last 3 bytes.
        let (recs, valid) = decode(&log[..log.len() - 3]);
        assert_eq!((recs.len(), valid), (1, first));
        // Torn mid-length-prefix: only 2 bytes of the second frame.
        let (recs, valid) = decode(&log[..first + 2]);
        assert_eq!((recs.len(), valid), (1, first));
        // A flipped byte in the second body fails its CRC.
        let mut flipped = log.clone();
        flipped[first + 12] ^= 0x40;
        let (recs, valid) = decode(&flipped);
        assert_eq!((recs.len(), valid), (1, first));
        // Non-monotonic LSNs stop replay too.
        let mut stale = frame(5, &upsert(1, 0.5));
        stale.extend(frame(5, &upsert(2, 0.25)));
        assert_eq!(decode(&stale).0.len(), 1);
        // Pure garbage decodes to nothing without panicking.
        assert_eq!(decode(&[0xff; 64]), (vec![], 0));
    }

    #[test]
    fn crc_valid_frames_that_do_not_fit_the_geometry_are_errors() {
        let wrong_dim = WalRecord::Upsert { id: 1, shard: 0, vector: vec![1.0, 0.0] };
        let wrong_shard = WalRecord::Move { id: 1, shard: SHARDS as u32, vector: vec![0.0; DIM] };
        for rec in [wrong_dim, wrong_shard] {
            let mut log = frame(1, &upsert(4, 0.5));
            log.extend(frame(2, &rec));
            let err = decode_log(&log, &mut 0, DIM, SHARDS, &mut Vec::new())
                .expect_err("a misfit frame is no torn tail");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        // Through open: the error surfaces and nothing is truncated.
        let dir = tmp_dir("misfit");
        drop(open(&dir).unwrap());
        let seg = dir.join(segment_file(1));
        let bytes = frame(1, &WalRecord::Upsert { id: 1, shard: 0, vector: vec![1.0; DIM + 1] });
        fs::write(&seg, &bytes).unwrap();
        let err = open(&dir).expect_err("wrong-dim frame must error");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(fs::read(&seg).unwrap(), bytes, "nothing truncated");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_follows_the_policy() {
        let dir = tmp_dir("policy");
        let (mut wal, _) = open(&dir).unwrap();
        wal.append(&upsert(1, 0.5)).unwrap();
        wal.commit().unwrap();
        assert_eq!(wal.stats().last_fsync_lsn, 0, "Never must not fsync on commit");
        assert_eq!(wal.stats().last_lsn, 1);
        wal.flush().unwrap();
        assert_eq!(wal.stats().last_fsync_lsn, 1, "explicit flush always syncs");

        wal.set_policy(DurabilityPolicy::Always).unwrap();
        wal.append(&upsert(2, 0.25)).unwrap();
        wal.commit().unwrap();
        assert_eq!(wal.stats().last_fsync_lsn, 2, "Always syncs every commit");

        // A generous interval: the first commit inside the window buffers.
        wal.set_policy(DurabilityPolicy::Interval(60_000)).unwrap();
        wal.append(&upsert(3, 0.125)).unwrap();
        wal.commit().unwrap();
        assert_eq!(wal.stats().last_fsync_lsn, 2, "commit inside the window must buffer");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_replays_appends_and_rotation_gc_works() {
        let dir = tmp_dir("reopen");
        {
            let (mut wal, _) = open(&dir).unwrap();
            wal.set_segment_cap(1); // every append rotates the next one
            for i in 0..5u64 {
                wal.append(&upsert(i, 0.5)).unwrap();
            }
            wal.flush().unwrap();
            assert_eq!(wal.stats().segments, 5, "cap of 1 byte must have rotated");
        }
        let (wal, rec) = open(&dir).unwrap();
        assert_eq!(wal.stats().replay_records, 5);
        assert_eq!(wal.stats().replay_truncated_bytes, 0);
        // Replay hands back the records in append order across segments.
        assert_eq!(rec.records, (0..5u64).map(|i| upsert(i, 0.5)).collect::<Vec<_>>());
        assert_eq!(wal.last_lsn(), 5);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fold_rewrites_the_manifest_and_deletes_folded_segments() {
        let dir = tmp_dir("fold");
        {
            let (mut wal, _) = open(&dir).unwrap();
            for i in 0..4u64 {
                wal.append(&upsert(i, 0.5)).unwrap();
            }
            wal.flush().unwrap();
            let fold = wal.last_lsn();
            fs::write(dir.join("snap-test.tbix"), b"snapshot bytes").unwrap();
            wal.fold(fold, "snap-test.tbix".to_string()).unwrap();
            assert_eq!(wal.stats().depth_bytes, 0, "fresh segment after fold");
            assert_eq!(wal.stats().fold_lsn, 4);
            assert!(!dir.join(segment_file(1)).exists(), "folded segment deleted");
            // Post-fold appends land in the fresh segment.
            wal.append(&upsert(9, 0.5)).unwrap();
            wal.flush().unwrap();
        }
        let (wal, rec) = open(&dir).unwrap();
        assert_eq!(wal.stats().fold_lsn, 4);
        assert_eq!(rec.records, vec![upsert(9, 0.5)], "only the post-fold record replays");
        assert_eq!(rec.snapshot.as_deref(), Some(dir.join("snap-test.tbix").as_path()));
        assert_eq!(wal.stats().replay_records, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_never_panics_on_garbage_logs_and_errors_on_bad_manifests() {
        let dir = tmp_dir("garbage");
        {
            let (mut wal, _) = open(&dir).unwrap();
            wal.append(&upsert(1, 0.5)).unwrap();
            wal.flush().unwrap();
        }
        // Stomp the whole log with garbage: open succeeds, replays zero.
        fs::write(dir.join(segment_file(1)), vec![0xabu8; 512]).unwrap();
        let (wal, rec) = open(&dir).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(wal.stats().replay_truncated_bytes, 512);
        drop(wal);
        // A corrupt manifest is a clean error, not a panic.
        let manifest = dir.join(MANIFEST_FILE);
        let good = fs::read(&manifest).unwrap();
        let mut bytes = good.clone();
        bytes[8] ^= 0x01;
        fs::write(&manifest, bytes).unwrap();
        let err = open(&dir).expect_err("corrupt manifest must error");
        assert!(err.to_string().contains("manifest"), "unhelpful error: {err}");
        // Geometry mismatches are refused up front, shards and dim alike.
        fs::write(&manifest, &good).unwrap();
        for (dim, shards) in [(DIM, SHARDS + 1), (DIM + 1, SHARDS)] {
            let err = WalSet::open(
                &dir,
                dim,
                shards,
                DurabilityPolicy::Never,
                Box::new(FsStorage::new()),
            )
            .expect_err("geometry mismatch must error");
            assert!(err.to_string().contains("-shard"), "unhelpful error: {err}");
        }
        // The old per-shard format has no reader.
        let v1 = "TBWM 1\nfold_lsn 0\nsnapshot -\n";
        let v1 = format!("{v1}crc {:08x}\n", crc32(v1.as_bytes()));
        fs::write(&manifest, v1).unwrap();
        let err = open(&dir).expect_err("TBWM 1 must error");
        assert!(err.to_string().contains("unsupported WAL manifest version 1"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }
}
