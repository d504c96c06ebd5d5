//! The segment: one flat slab of vectors with its tombstones, seal state,
//! packed signatures and (exact tier only) incremental LSH band buckets.
//!
//! Segments are the unit of scanning and of the store's append lifecycle:
//! vectors append into the one unsealed tail segment; when it reaches the
//! store's `seal_threshold` rows it is sealed and a fresh segment opens.
//! Sealed segments are immutable except for tombstones — a deleted row's
//! data stays in place (and keeps its signature and bucket entries) until
//! compaction rewrites the segment list without the dead rows. Only the
//! store mutates segments; the search core and candidate sources read them
//! through the crate-private per-shard store (`store.rs`), which addresses a
//! row by its `(segment, row)` location.

use std::collections::HashMap;

/// One flat slab of vectors.
#[derive(Clone, Debug)]
pub(crate) struct Segment {
    /// Row-major normalized vectors, `rows * dim` long.
    pub(crate) data: Vec<f32>,
    /// Row -> id.
    pub(crate) ids: Vec<u64>,
    /// Tombstones; a deleted row stays in `data` until compaction.
    pub(crate) deleted: Vec<bool>,
    pub(crate) n_deleted: usize,
    pub(crate) sealed: bool,
    /// Per-band LSH buckets (`band -> key -> rows`) — what
    /// [`crate::LshCandidates`] probes on the exact tier; empty when LSH is
    /// off and on the quantized tier, which never reads them.
    pub(crate) buckets: Vec<HashMap<u64, Vec<u32>>>,
    /// Row-major packed LSH signatures, `rows * sig_words` long — the
    /// quantized tier's Hamming-pass slab, maintained in lockstep with
    /// `data` (appended on insert, dropped with the segment on compaction;
    /// a tombstoned row's signature stays in place like its vector does).
    /// Empty when LSH is off.
    pub(crate) sigs: Vec<u64>,
}

impl Segment {
    pub(crate) fn new(bands: usize) -> Self {
        Self {
            data: Vec::new(),
            ids: Vec::new(),
            deleted: Vec::new(),
            n_deleted: 0,
            sealed: false,
            buckets: vec![HashMap::new(); bands],
            sigs: Vec::new(),
        }
    }

    /// Total rows, live and tombstoned.
    pub(crate) fn rows(&self) -> usize {
        self.ids.len()
    }
}
