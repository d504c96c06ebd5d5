//! Candidate generation for exact-tier searches.
//!
//! A [`CandidateSource`] decides, per segment, which rows the f32 kernel
//! scores for a query. [`ExactScan`] nominates everything; [`LshCandidates`]
//! probes the segment's banded LSH buckets — the paper's §4.1 blocking step
//! turned into a query-time accelerator. The quantized tier never consults
//! a source: its coarse pass sweeps every signature of the probed shards.
//!
//! Sources receive a [`QueryContext`] rather than a bare vector: the store
//! computes per-query state (the normalized vector, and the packed LSH
//! signature when LSH is enabled) exactly once, so probing N segments never
//! repeats the `bands * rows_per_band` hyperplane dot products per segment.

use crate::lsh::{band_key, pack_signature, signature_of};
use crate::store::VectorStore;

/// Per-query state shared across every segment probe of one search.
#[derive(Clone, Copy, Debug)]
pub struct QueryContext<'a> {
    /// The L2-normalized query vector.
    pub vector: &'a [f32],
    /// The query's LSH signature packed into `u64` words, precomputed once
    /// by the store when LSH is enabled — what band keys are cut from and
    /// what the quantized tier's Hamming pass scores against; `None` on
    /// stores without LSH.
    pub packed: Option<&'a [u64]>,
}

/// Which rows of one segment to score for a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Candidates {
    /// Score every live row of the segment.
    All,
    /// Score only these rows (tombstoned or out-of-range rows are skipped).
    Subset(Vec<u32>),
}

/// A per-segment candidate generator. `Sync` because batched searches call
/// it from worker threads. The per-shard store it reads is crate-private,
/// so the implementers are the two in this module.
pub trait CandidateSource: Sync {
    /// Candidate rows of segment `seg` for the query.
    fn candidates(&self, store: &VectorStore, seg: usize, query: &QueryContext<'_>) -> Candidates;
}

/// The exhaustive source: every live row is a candidate. Recall 1.0 by
/// construction; cost linear in the segment size.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactScan;

impl CandidateSource for ExactScan {
    fn candidates(
        &self,
        _store: &VectorStore,
        _seg: usize,
        _query: &QueryContext<'_>,
    ) -> Candidates {
        Candidates::All
    }
}

/// LSH banded blocking: rows sharing at least one band bucket with the
/// query. Requires an exact-tier store built with `StoreConfig::lsh` (the
/// quantized tier keeps no buckets and never consults a source); on a store
/// without LSH it degrades to [`ExactScan`] rather than silently returning
/// nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct LshCandidates;

impl CandidateSource for LshCandidates {
    fn candidates(&self, store: &VectorStore, seg: usize, query: &QueryContext<'_>) -> Candidates {
        let Some(params) = store.lsh_params() else {
            return Candidates::All;
        };
        // The store hands LSH-enabled queries a precomputed signature; the
        // fallback covers contexts built by hand.
        let computed;
        let sig: &[u64] = match query.packed {
            Some(s) => s,
            None => {
                computed = pack_signature(&signature_of(store.lsh_planes(), query.vector));
                &computed
            }
        };
        let mut rows = Vec::new();
        for band in 0..params.bands {
            let key = band_key(sig, band, params.rows_per_band);
            if let Some(members) = store.bucket_rows(seg, band, key) {
                rows.extend_from_slice(members);
            }
        }
        rows.sort_unstable();
        rows.dedup();
        Candidates::Subset(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{LshParams, StoreConfig};
    use crate::ShardedStore;

    fn ctx<'a>(v: &'a [f32]) -> QueryContext<'a> {
        QueryContext { vector: v, packed: None }
    }

    /// One shard's slab holding `rows` (normalized on the way in).
    fn slab(cfg: StoreConfig, rows: &[[f32; 4]]) -> VectorStore {
        let mut store = VectorStore::new(4, cfg);
        for (id, v) in rows.iter().enumerate() {
            let mut nv = v.to_vec();
            crate::simd::l2_normalize(&mut nv);
            store.upsert_normalized(id as u64, &nv);
        }
        store
    }

    #[test]
    fn lsh_source_on_plain_store_degrades_to_exact() {
        let store = slab(StoreConfig::default(), &[[1.0, 0.0, 0.0, 0.0]]);
        let q = [1.0f32, 0.0, 0.0, 0.0];
        assert_eq!(LshCandidates.candidates(&store, 0, &ctx(&q)), Candidates::All);
        // Ergo the two sources agree end to end.
        let mut store = ShardedStore::exact(4, 1);
        store.insert(&[1.0, 0.0, 0.0, 0.0]);
        let q = [0.9f32, 0.1, 0.0, 0.0];
        assert_eq!(store.search(&q, 1, &LshCandidates), store.search(&q, 1, &ExactScan));
    }

    #[test]
    fn exact_scan_nominates_everything() {
        let store = slab(StoreConfig::default(), &[]);
        assert_eq!(ExactScan.candidates(&store, 0, &ctx(&[0.0; 4])), Candidates::All);
    }

    #[test]
    fn handmade_context_without_signature_matches_store_path() {
        let store = slab(
            StoreConfig::with_lsh(LshParams { bands: 4, rows_per_band: 2 }),
            &[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.7, 0.7, 0.0, 0.0]],
        );
        // A context without a precomputed signature must produce the same
        // candidates the store's own (signature-carrying) path does.
        let q = [0.9f32, 0.3, 0.0, 0.0];
        let prepared = store.prepare_query(&q);
        let via_fallback = LshCandidates.candidates(&store, 0, &ctx(&prepared.nq));
        let hits = store.scan_prepared(&prepared.ctx(), 3, &LshCandidates).into_sorted();
        if let Candidates::Subset(rows) = &via_fallback {
            assert_eq!(rows.len(), hits.len());
        } else {
            panic!("LSH-enabled store must emit a subset");
        }
    }
}
