//! Snapshot capture and the on-disk codec.
//!
//! A [`StoreSnapshot`] is the logical content of a store: its configuration
//! plus every live `(id, normalized vector)` entry in physical order.
//! Tombstones are dropped on capture — a snapshot is implicitly compacted.
//!
//! One codec moves snapshots through disk behind
//! [`ShardedStore::save`](crate::ShardedStore::save) /
//! [`load`](crate::ShardedStore::load): **`TBIX` version 4** — a 4-byte
//! magic, a little-endian header (shard count, dimension, seal threshold,
//! hyperplane seed, LSH banding, the quantized tier's re-rank factor and
//! packed-signature width), the router section (a learned router's
//! k-means centroids plus the per-shard entry counts in save order, so a
//! routed store's placements — and therefore its probe decisions — replay
//! exactly on load; absent for hash-routed stores, whose ids re-route
//! deterministically), the raw f32 payload with each entry's sign-bit LSH
//! signature riding along after its vector, and a CRC32 (IEEE) footer
//! over every preceding byte, so a corrupt or bit-flipped file is rejected
//! with a clear error instead of being decoded into garbage vectors.
//! Vector bits round-trip exactly; loaded stores answer queries
//! byte-identically. The compaction policy is runtime tuning, not data,
//! and is not persisted — loaded stores run the policy they are
//! configured with.
//!
//! Files of any other version — and files that are not `TBIX` at all — are
//! refused with an `unsupported snapshot version` / `not a TBIX snapshot`
//! error; `tests/golden_snapshot.rs` pins the format against a checked-in
//! file.

use crate::lsh::packed_len;
use crate::store::LshParams;
use crate::wal::crc32;
use std::io;
use std::path::Path;

/// The one snapshot format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 4;

/// Magic bytes opening a snapshot file.
pub(crate) const TBIX_MAGIC: [u8; 4] = *b"TBIX";

/// Upper bound on the shard count a snapshot may carry. Snapshots
/// are untrusted input: without this, a corrupt header could make
/// `ShardedStore::load` construct billions of empty shards before any
/// entry is read. Far above any sane deployment, far below harm.
pub(crate) const MAX_SNAPSHOT_SHARDS: u32 = 65_536;

/// A snapshot of a store: its configuration plus every live
/// `(id, normalized vector)` entry in physical order. Tombstones are
/// dropped on capture — a snapshot is implicitly compacted.
#[derive(Clone, Debug)]
pub struct StoreSnapshot {
    /// Vector dimensionality.
    pub dim: usize,
    /// Hyperplane seed (see [`crate::StoreConfig::seed`]).
    pub seed: u64,
    /// Segment seal threshold.
    pub seal_threshold: usize,
    /// LSH banding, if enabled.
    pub lsh: Option<LshParams>,
    /// The quantized tier's re-rank factor; `0` means the exact tier.
    pub rerank: u64,
    /// The next auto-assigned id.
    pub next_id: u64,
    /// Live entries in shard-then-segment-then-row order.
    pub entries: Vec<(u64, Vec<f32>)>,
    /// Packed sign-bit LSH signatures, aligned with `entries`; empty when
    /// LSH is off.
    pub sigs: Vec<Vec<u64>>,
    /// The learned router, when the store had one; `None` for hash-routed
    /// stores.
    pub router: Option<RouterSnapshot>,
}

/// A learned router's persisted state: its centroids, and how many of the
/// snapshot's entries belong to each shard — entries are saved
/// shard-major, so `counts` partitions `entries` positionally and load
/// restores every placement exactly (including rows an older router placed
/// where the current centroids wouldn't).
#[derive(Clone, Debug)]
pub struct RouterSnapshot {
    /// One L2-normalized centroid per shard, shard order.
    pub centroids: Vec<Vec<f32>>,
    /// Entries per shard in the snapshot's entry list, shard order; must
    /// sum to the entry count.
    pub counts: Vec<u64>,
}

impl StoreSnapshot {
    /// Checks the invariants a store rebuild relies on. Snapshots are an
    /// untrusted-input boundary (files on disk), so violations must come
    /// back as errors rather than tripping constructor asserts.
    pub(crate) fn validate(&self) -> io::Result<()> {
        if self.dim == 0 || self.seal_threshold == 0 {
            return Err(invalid("snapshot with zero dim or seal_threshold".into()));
        }
        if let Some(p) = self.lsh {
            if p.bands == 0 || p.rows_per_band == 0 {
                return Err(invalid("snapshot with zero LSH bands or rows_per_band".into()));
            }
        }
        if self.rerank > 0 && self.lsh.is_none() {
            return Err(invalid("quantized snapshot without LSH params".into()));
        }
        for (id, v) in &self.entries {
            if v.len() != self.dim {
                return Err(invalid(format!(
                    "snapshot entry {id} has dim {} (want {})",
                    v.len(),
                    self.dim
                )));
            }
        }
        match self.lsh {
            None if !self.sigs.is_empty() => {
                return Err(invalid("snapshot carries signatures but no LSH params".into()));
            }
            None => {}
            Some(p) => {
                if self.sigs.len() != self.entries.len() {
                    return Err(invalid(format!(
                        "snapshot has {} signatures for {} entries",
                        self.sigs.len(),
                        self.entries.len()
                    )));
                }
                let words = packed_len(p.bands * p.rows_per_band);
                for (i, sig) in self.sigs.iter().enumerate() {
                    if sig.len() != words {
                        return Err(invalid(format!(
                            "signature width mismatch: entry {i} has {} words (want {words} for {} bits)",
                            sig.len(),
                            p.bands * p.rows_per_band
                        )));
                    }
                }
            }
        }
        if let Some(r) = &self.router {
            if r.centroids.is_empty() {
                return Err(invalid("router section with no centroids".into()));
            }
            if r.centroids.iter().any(|c| c.len() != self.dim) {
                return Err(invalid(format!(
                    "router centroid dimension mismatch (want {})",
                    self.dim
                )));
            }
            if r.counts.len() != r.centroids.len() {
                return Err(invalid(format!(
                    "router section has {} counts for {} centroids",
                    r.counts.len(),
                    r.centroids.len()
                )));
            }
            let total: u64 = r.counts.iter().sum();
            if total != self.entries.len() as u64 {
                return Err(invalid(format!(
                    "router counts sum to {total} but the snapshot has {} entries",
                    self.entries.len()
                )));
            }
        }
        Ok(())
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

// --- binary codec ----------------------------------------------------------

/// Encodes a snapshot of an `n_shards`-shard store into the `TBIX` v4
/// format (see the [module docs](self) for the layout). An LSH snapshot's
/// `sigs` must align with its `entries`.
pub(crate) fn encode_binary(snap: &StoreSnapshot, n_shards: u32) -> Vec<u8> {
    let sig_words = snap.lsh.map_or(0, |p| packed_len(p.bands * p.rows_per_band));
    let per_entry = 8 + snap.dim * 4 + sig_words * 8;
    let mut out = Vec::with_capacity(80 + snap.entries.len() * per_entry);
    out.extend_from_slice(&TBIX_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&n_shards.to_le_bytes());
    out.extend_from_slice(&(snap.dim as u32).to_le_bytes());
    out.extend_from_slice(&(snap.seal_threshold as u64).to_le_bytes());
    out.extend_from_slice(&snap.seed.to_le_bytes());
    match snap.lsh {
        Some(p) => {
            out.push(1);
            out.extend_from_slice(&(p.bands as u32).to_le_bytes());
            out.extend_from_slice(&(p.rows_per_band as u32).to_le_bytes());
        }
        None => out.push(0),
    }
    out.extend_from_slice(&snap.rerank.to_le_bytes());
    out.extend_from_slice(&(sig_words as u32).to_le_bytes());
    // The router section sits before the entry count so the decoder's
    // exact-length check still covers the (fixed-size) entry payload.
    match &snap.router {
        Some(r) => {
            out.push(1);
            out.extend_from_slice(&(r.centroids.len() as u32).to_le_bytes());
            for c in &r.centroids {
                for x in c {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
            for n in &r.counts {
                out.extend_from_slice(&n.to_le_bytes());
            }
        }
        None => out.push(0),
    }
    out.extend_from_slice(&snap.next_id.to_le_bytes());
    out.extend_from_slice(&(snap.entries.len() as u64).to_le_bytes());
    for (i, (id, v)) in snap.entries.iter().enumerate() {
        out.extend_from_slice(&id.to_le_bytes());
        for x in v {
            out.extend_from_slice(&x.to_le_bytes());
        }
        if sig_words > 0 {
            for w in &snap.sigs[i] {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(invalid("truncated binary snapshot".into())),
        }
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f32(&mut self) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
}

/// Decodes a `TBIX` v4 snapshot, returning the shard count and the
/// validated snapshot.
fn decode_binary(bytes: &[u8]) -> io::Result<(u32, StoreSnapshot)> {
    if !bytes.starts_with(&TBIX_MAGIC) {
        return Err(invalid("not a TBIX snapshot (bad magic)".into()));
    }
    let mut c = Cursor { bytes, pos: TBIX_MAGIC.len() };
    let version = c.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(invalid(format!(
            "unsupported snapshot version {version} (this build reads only {SNAPSHOT_VERSION})"
        )));
    }
    // Verify the CRC footer and decode over the trimmed payload — so a
    // bit-flip anywhere in the file surfaces as this one clear error, not
    // as garbage field values.
    let body_len = bytes
        .len()
        .checked_sub(4)
        .filter(|&n| n >= c.pos)
        .ok_or_else(|| invalid("binary snapshot too short for its CRC footer".into()))?;
    let footer = u32::from_le_bytes(bytes[body_len..].try_into().expect("4 bytes"));
    let computed = crc32(&bytes[..body_len]);
    if footer != computed {
        return Err(invalid(format!(
            "snapshot CRC mismatch (footer {footer:08x}, computed {computed:08x}) — the file is corrupt"
        )));
    }
    let bytes = &bytes[..body_len];
    let mut c = Cursor { bytes, pos: c.pos };
    let n_shards = c.u32()?;
    if n_shards == 0 || n_shards > MAX_SNAPSHOT_SHARDS {
        return Err(invalid(format!(
            "snapshot claims {n_shards} shards (want 1..={MAX_SNAPSHOT_SHARDS}) — corrupt header?"
        )));
    }
    let dim = c.u32()? as usize;
    let seal_threshold = c.u64()? as usize;
    let seed = c.u64()?;
    let lsh = match c.u8()? {
        0 => None,
        1 => Some(LshParams { bands: c.u32()? as usize, rows_per_band: c.u32()? as usize }),
        flag => return Err(invalid(format!("bad LSH flag byte {flag}"))),
    };
    let rerank = c.u64()?;
    let sig_words = c.u32()? as usize;
    // The router section: absent (flag 0) for hash-routed stores. The cell
    // count is header-bounded like the shard count — untrusted input must
    // not size allocations unchecked.
    let router = match c.u8()? {
        0 => None,
        1 => {
            let nlist = c.u32()?;
            if nlist == 0 || nlist > MAX_SNAPSHOT_SHARDS {
                return Err(invalid(format!(
                    "router section claims {nlist} cells (max {MAX_SNAPSHOT_SHARDS}) — corrupt header?"
                )));
            }
            let mut centroids = Vec::with_capacity(nlist as usize);
            for _ in 0..nlist {
                let mut cvec = Vec::with_capacity(dim);
                for _ in 0..dim {
                    cvec.push(c.f32()?);
                }
                centroids.push(cvec);
            }
            let mut counts = Vec::with_capacity(nlist as usize);
            for _ in 0..nlist {
                counts.push(c.u64()?);
            }
            Some(RouterSnapshot { centroids, counts })
        }
        flag => return Err(invalid(format!("bad router flag byte {flag}"))),
    };
    let next_id = c.u64()?;
    let n_entries = c.u64()? as usize;
    // The payload length is implied by the header; a mismatch means a
    // corrupt or truncated file, caught before any large allocation.
    let per_entry = dim
        .checked_mul(4)
        .and_then(|d| sig_words.checked_mul(8).and_then(|s| d.checked_add(s)))
        .and_then(|p| p.checked_add(8))
        .ok_or_else(|| invalid("dim overflow".into()))?;
    let want = n_entries
        .checked_mul(per_entry)
        .and_then(|p| p.checked_add(c.pos))
        .ok_or_else(|| invalid("entry count overflow".into()))?;
    if want != bytes.len() {
        return Err(invalid(format!(
            "binary snapshot length {} does not match header (want {want})",
            bytes.len()
        )));
    }
    let mut entries = Vec::with_capacity(n_entries);
    let mut sigs = Vec::with_capacity(if sig_words > 0 { n_entries } else { 0 });
    for _ in 0..n_entries {
        let id = c.u64()?;
        let mut v = Vec::with_capacity(dim);
        for _ in 0..dim {
            v.push(c.f32()?);
        }
        entries.push((id, v));
        if sig_words > 0 {
            let mut sig = Vec::with_capacity(sig_words);
            for _ in 0..sig_words {
                sig.push(c.u64()?);
            }
            sigs.push(sig);
        }
    }
    let snap =
        StoreSnapshot { dim, seed, seal_threshold, lsh, rerank, next_id, entries, sigs, router };
    snap.validate()?;
    Ok((n_shards, snap))
}

// --- file I/O --------------------------------------------------------------

/// Writes a snapshot of an `n_shards`-shard store to `path`.
pub(crate) fn write_file(path: &Path, snap: &StoreSnapshot, n_shards: u32) -> io::Result<()> {
    std::fs::write(path, encode_binary(snap, n_shards))
}

/// Reads a snapshot from `path`, returning the shard count and the
/// validated snapshot.
pub(crate) fn read_file(path: &Path) -> io::Result<(u32, StoreSnapshot)> {
    decode_binary(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StoreSnapshot {
        StoreSnapshot {
            dim: 3,
            seed: 7,
            seal_threshold: 16,
            lsh: Some(LshParams { bands: 4, rows_per_band: 2 }),
            rerank: 0,
            next_id: 2,
            entries: vec![(0, vec![1.0, 0.0, 0.0]), (1, vec![0.0, 0.6, 0.8])],
            sigs: vec![vec![0b1010_1010], vec![0b0101_0101]],
            router: None,
        }
    }

    /// `sample()` with the quantized tier on: a re-rank factor in the
    /// header beside the 8-bit (one-word) signatures.
    fn sample_quantized() -> StoreSnapshot {
        StoreSnapshot { rerank: 4, ..sample() }
    }

    /// `sample()` with a two-cell router section: one entry per shard.
    fn sample_routed() -> StoreSnapshot {
        StoreSnapshot {
            router: Some(RouterSnapshot {
                centroids: vec![vec![1.0, 0.0, 0.0], vec![0.0, 0.6, 0.8]],
                counts: vec![1, 1],
            }),
            ..sample()
        }
    }

    #[test]
    fn binary_roundtrips_bit_exact() {
        let snap = sample();
        let bytes = encode_binary(&snap, 1);
        let (n_shards, back) = decode_binary(&bytes).expect("decode");
        assert_eq!(n_shards, 1);
        assert_eq!(back.dim, snap.dim);
        assert_eq!(back.next_id, snap.next_id);
        assert_eq!(back.lsh, snap.lsh);
        for ((ia, va), (ib, vb)) in back.entries.iter().zip(&snap.entries) {
            assert_eq!(ia, ib);
            for (a, b) in va.iter().zip(vb) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn binary_preserves_shard_marker() {
        let bytes = encode_binary(&sample(), 4);
        let (n_shards, _) = decode_binary(&bytes).expect("decode");
        assert_eq!(n_shards, 4);
    }

    #[test]
    fn truncated_or_padded_binary_is_rejected() {
        let bytes = encode_binary(&sample(), 1);
        assert!(decode_binary(&bytes[..bytes.len() - 3]).is_err(), "truncated must fail");
        for cut in 0..12 {
            assert!(decode_binary(&bytes[..cut]).is_err(), "a {cut}-byte file must fail");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_binary(&padded).is_err(), "padded must fail");
        // Every version but the current one — the retired 1..=3 included —
        // is refused by name, before the CRC is even looked at.
        for version in [0u32, 1, 2, 3, 5, 99] {
            let mut other = bytes.clone();
            other[4..8].copy_from_slice(&version.to_le_bytes());
            let err = decode_binary(&other).expect_err("other versions must fail");
            assert!(
                err.to_string().contains("unsupported snapshot version"),
                "unhelpful error for version {version}: {err}"
            );
        }
        let err = decode_binary(b"{\"version\":4}").expect_err("JSON must fail");
        assert!(err.to_string().contains("not a TBIX snapshot"), "unhelpful error: {err}");
    }

    #[test]
    fn absurd_shard_count_is_rejected_before_any_allocation() {
        // A crafted header claiming u32::MAX shards must come back as
        // InvalidData, not as billions of shard constructions in load().
        // Rewrite the CRC footer after each header edit so the check under
        // test — the shard bound, not the integrity footer — is what fires.
        fn refit_crc(bytes: &mut [u8]) {
            let body_len = bytes.len() - 4;
            let crc = crate::wal::crc32(&bytes[..body_len]).to_le_bytes();
            bytes[body_len..].copy_from_slice(&crc);
        }
        let mut bytes = encode_binary(&sample(), 4);
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        refit_crc(&mut bytes);
        let err = decode_binary(&bytes).expect_err("absurd shard count must fail");
        assert!(err.to_string().contains("shards"), "unhelpful error: {err}");
        // The bound itself is inclusive.
        let mut at_max = encode_binary(&sample(), 4);
        at_max[8..12].copy_from_slice(&MAX_SNAPSHOT_SHARDS.to_le_bytes());
        refit_crc(&mut at_max);
        assert!(decode_binary(&at_max).is_ok());
        // And a store has at least one shard.
        let mut zero = encode_binary(&sample(), 4);
        zero[8..12].copy_from_slice(&0u32.to_le_bytes());
        refit_crc(&mut zero);
        assert!(decode_binary(&zero).is_err(), "a zero-shard header must fail");
    }

    #[test]
    fn validate_rejects_mismatched_entry_dim() {
        let mut snap = sample();
        snap.entries.push((9, vec![1.0]));
        assert!(snap.validate().is_err());
    }

    #[test]
    fn binary_roundtrips_signatures_and_rerank() {
        let snap = sample_quantized();
        let bytes = encode_binary(&snap, 1);
        let (_, back) = decode_binary(&bytes).expect("decode");
        assert_eq!(back.rerank, 4);
        assert_eq!(back.sigs, snap.sigs);
    }

    #[test]
    fn v3_router_section_roundtrips_bit_exact() {
        let snap = sample_routed();
        let bytes = encode_binary(&snap, 2);
        let (n_shards, back) = decode_binary(&bytes).expect("decode");
        assert_eq!(n_shards, 2);
        let (orig, got) = (snap.router.unwrap(), back.router.expect("router survived"));
        assert_eq!(got.counts, orig.counts);
        assert_eq!(got.centroids.len(), orig.centroids.len());
        for (a, b) in got.centroids.iter().flatten().zip(orig.centroids.iter().flatten()) {
            assert_eq!(a.to_bits(), b.to_bits(), "centroid bits drifted through the codec");
        }
    }

    #[test]
    fn validate_rejects_bad_router_shapes() {
        // Counts must partition the entries exactly.
        let mut snap = sample_routed();
        snap.router.as_mut().unwrap().counts = vec![2, 1];
        let err = snap.validate().expect_err("bad counts sum must fail");
        assert!(err.to_string().contains("counts sum"), "unhelpful error: {err}");
        // One count per centroid.
        let mut snap = sample_routed();
        snap.router.as_mut().unwrap().counts = vec![2];
        assert!(snap.validate().is_err());
        // Centroids share the store dimension.
        let mut snap = sample_routed();
        snap.router.as_mut().unwrap().centroids[0] = vec![1.0];
        assert!(snap.validate().is_err());
        // A corrupt router flag byte is rejected in the decoder. Walk back
        // from the end: CRC footer, entry payload, router payload, flag.
        let good = encode_binary(&sample_routed(), 2);
        let flag_pos = good.len()
            - 4
            - (8 + 8 + sample_routed().entries.len() * (8 + 3 * 4 + 8))
            - (2 * 3 * 4 + 2 * 8 + 4)
            - 1;
        let mut bad = good.clone();
        assert_eq!(bad[flag_pos], 1, "flag offset arithmetic drifted");
        bad[flag_pos] = 9;
        // Rewrite the footer so decode gets past the CRC check and reaches
        // the flag validation this test is about.
        let body_len = bad.len() - 4;
        let crc = crate::wal::crc32(&bad[..body_len]).to_le_bytes();
        bad[body_len..].copy_from_slice(&crc);
        let err = decode_binary(&bad).expect_err("bad flag must fail");
        assert!(err.to_string().contains("router flag"), "unhelpful error: {err}");
    }

    #[test]
    fn crc_footer_rejects_bit_flips_with_a_clear_error() {
        let good = encode_binary(&sample_quantized(), 2);
        // Flip one bit in every region of the file — header, payload,
        // footer — and demand the corruption error every time.
        for pos in [9, good.len() / 2, good.len() - 2] {
            let mut bad = good.clone();
            bad[pos] ^= 0x10;
            let err = decode_binary(&bad).expect_err("bit flip must fail");
            assert!(
                err.to_string().contains("CRC mismatch"),
                "unhelpful error for flip at {pos}: {err}"
            );
        }
    }

    #[test]
    fn validate_rejects_bad_signature_shapes() {
        // Wrong width: 4×2 = 8 bits wants exactly one u64 word per row.
        let mut snap = sample_quantized();
        snap.sigs[1] = vec![1, 2];
        let err = snap.validate().expect_err("width mismatch must fail");
        assert!(err.to_string().contains("signature width mismatch"), "unhelpful error: {err}");
        // Wrong count: signatures must align 1:1 with entries.
        let mut snap = sample_quantized();
        snap.sigs.pop();
        assert!(snap.validate().is_err());
        // ...and an LSH snapshot must carry them: there is no rebuild path.
        let mut snap = sample();
        snap.sigs.clear();
        assert!(snap.validate().is_err());
        // Signatures (or a re-rank factor) without LSH make no sense.
        let mut snap = sample_quantized();
        snap.lsh = None;
        assert!(snap.validate().is_err());
        let mut snap = sample();
        snap.lsh = None;
        snap.sigs.clear();
        snap.rerank = 4;
        assert!(snap.validate().is_err());
    }
}
