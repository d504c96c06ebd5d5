//! Random-hyperplane LSH with banded blocking.
//!
//! The paper uses "LSH-based blocking to avoid quadratic complexity for the
//! entire dataset" when clustering the 227k CancerKG columns (§4.1). This is
//! the classic SimHash construction: each item receives a bit signature from
//! random hyperplanes; signatures are cut into bands, and items sharing any
//! band bucket become blocking candidates of each other.
//!
//! These are the primitives; the crate-private per-shard store
//! (`store.rs`) hashes vectors **incrementally** as they are
//! upserted, maintaining packed signature slabs (both tiers) and, on the
//! exact tier, per-segment band buckets that [`crate::LshCandidates`]
//! probes at query time.
//!
//! The store signs through one `Signer`: the hyperplanes plus one threshold
//! per plane, writing packed words directly. Bit `j` is
//! `dot(P_j, v) ≥ t_j` with `t_j = dot(P_j, μ)` for the router's sample
//! mean μ ([`crate::Router::mean`]) — the sign of `P_j · (v − μ)`, i.e.
//! hyperplanes through the corpus centre rather than the origin, at one
//! compare per bit and no per-vector work. Without a mean every threshold
//! is zero and the bits are exactly [`signature_of`]'s.

use crate::simd::dot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws `n_planes` random hyperplanes of dimension `dim`, each component
/// uniform in `[-1, 1)`. Deterministic per seed.
pub fn random_planes(n_planes: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_planes).map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect()
}

/// The bit signature of `v` against `planes`: one bit per hyperplane,
/// set when the vector lies on the non-negative side. Each projection runs
/// through the vectorized [`crate::simd::dot`] kernel — signatures are
/// computed once per upsert and once per query, and the `bands ×
/// rows_per_band` hyperplane products dominate that cost.
pub fn signature_of(planes: &[Vec<f32>], v: &[f32]) -> Vec<bool> {
    planes.iter().map(|p| dot(p, v) >= 0.0).collect()
}

/// Hyperplanes with one threshold each: what every shard signs its rows and
/// queries with (see the [module docs](self)).
#[derive(Clone, Debug)]
pub(crate) struct Signer {
    planes: Vec<Vec<f32>>,
    /// `dot(P_j, μ)` per plane; all zero without a centre.
    thresholds: Vec<f32>,
}

impl Signer {
    /// `planes` centred on `centre` (through the origin when `None`).
    pub(crate) fn new(planes: Vec<Vec<f32>>, centre: Option<&[f32]>) -> Self {
        let mut signer = Self { planes, thresholds: Vec::new() };
        signer.recentre(centre);
        signer
    }

    /// Moves the hyperplanes onto `centre`; returns whether any threshold
    /// changed — i.e. whether signatures taken before are now stale.
    pub(crate) fn recentre(&mut self, centre: Option<&[f32]>) -> bool {
        let thresholds: Vec<f32> = match centre {
            Some(c) => self.planes.iter().map(|p| dot(p, c)).collect(),
            None => vec![0.0; self.planes.len()],
        };
        let changed =
            !thresholds.iter().map(|t| t.to_bits()).eq(self.thresholds.iter().map(|t| t.to_bits()));
        self.thresholds = thresholds;
        changed
    }

    /// Signature width in bits.
    pub(crate) fn bits(&self) -> usize {
        self.planes.len()
    }

    /// The packed signature of `v`: bit `j` set when `dot(P_j, v) ≥ t_j`,
    /// tail bits of the last word zero (see [`pack_signature`]).
    pub(crate) fn sign(&self, v: &[f32]) -> Vec<u64> {
        let mut words = vec![0u64; packed_len(self.bits())];
        for (j, (p, &t)) in self.planes.iter().zip(&self.thresholds).enumerate() {
            words[j / 64] |= u64::from(dot(p, v) >= t) << (j % 64);
        }
        words
    }
}

/// Number of `u64` words a packed `bits`-bit signature occupies.
pub fn packed_len(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Packs a bit signature into `u64` words, bit `i` of the signature in bit
/// `i % 64` of word `i / 64` (LSB-first). Widths that are not a multiple of
/// 64 leave the tail bits of the last word **zero** — the masking the
/// quantized tier's Hamming kernel ([`crate::simd::hamming`]) relies on:
/// both sides of an XOR carry zeroed tails, so no per-distance mask is paid.
pub fn pack_signature(sig: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; packed_len(sig.len())];
    for (i, &bit) in sig.iter().enumerate() {
        if bit {
            words[i / 64] |= 1u64 << (i % 64);
        }
    }
    words
}

/// Zeroes the bits past `bits` in the last word of a packed signature —
/// the tail invariant [`pack_signature`] establishes, re-imposed on
/// signatures that arrive from outside (a snapshot file).
pub(crate) fn mask_tail(packed: &mut [u64], bits: usize) {
    let tail = bits % 64;
    if let Some(last) = packed.last_mut().filter(|_| tail != 0) {
        *last &= (1u64 << tail) - 1;
    }
}

/// Packs `rows` consecutive bits of one band of a packed signature into a
/// bucket key (the band's first bit most significant).
pub fn band_key(sig: &[u64], band: usize, rows: usize) -> u64 {
    let mut key = 0u64;
    for i in band * rows..(band + 1) * rows {
        key = (key << 1) | (sig[i / 64] >> (i % 64) & 1);
    }
    // Mix the band id in so identical bit patterns in different bands do not
    // collide into one bucket map (they live in separate maps anyway; this
    // guards against accidental cross-band reuse).
    key ^ ((band as u64) << 32)
}

#[cfg(test)]
mod tests {
    //! The blocking behaviour the primitives add up to, checked where it
    //! now lives: a flat exact-tier store probed through
    //! [`LshCandidates`](crate::LshCandidates) — the paper's §4.1 recipe.

    use super::*;
    use crate::store::{LshParams, StoreConfig, VectorSink};
    use crate::{ExactScan, LshCandidates, ShardedStore};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Clustered vectors: `n_clusters` directions, `per` members each with
    /// small jitter.
    fn clustered(
        n_clusters: usize,
        per: usize,
        dim: usize,
        seed: u64,
    ) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..n_clusters)
            .map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect())
            .collect();
        let mut items = Vec::new();
        let mut labels = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..per {
                let v: Vec<f32> =
                    center.iter().map(|x| x + rng.random_range(-0.05f32..0.05)).collect();
                items.push(v);
                labels.push(c);
            }
        }
        (items, labels)
    }

    /// A flat LSH-blocked `dim`-dimensional store over `items`, ids = item
    /// indices.
    fn blocked(
        dim: usize,
        items: &[Vec<f32>],
        bands: usize,
        rows_per_band: usize,
        seed: u64,
    ) -> ShardedStore {
        let cfg =
            StoreConfig { seed, ..StoreConfig::with_lsh(LshParams::new(bands, rows_per_band)) };
        let mut store = ShardedStore::new(dim, 1, cfg);
        for v in items {
            store.insert(v);
        }
        store
    }

    /// Ids sharing at least one band bucket with `q`, ascending.
    fn candidates(store: &ShardedStore, q: &[f32]) -> Vec<u64> {
        let mut ids: Vec<u64> =
            store.search(q, store.len(), &LshCandidates).iter().map(|h| h.id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn near_duplicates_are_candidates() {
        let (items, labels) = clustered(5, 8, 16, 1);
        let store = blocked(16, &items, 8, 4, 2);
        // Most same-cluster members should appear among candidates.
        let mut recall_hits = 0usize;
        let mut recall_total = 0usize;
        for i in 0..items.len() {
            let cands = candidates(&store, &items[i]);
            for j in 0..items.len() {
                if j != i && labels[j] == labels[i] {
                    recall_total += 1;
                    if cands.contains(&(j as u64)) {
                        recall_hits += 1;
                    }
                }
            }
        }
        let recall = recall_hits as f64 / recall_total as f64;
        assert!(recall > 0.9, "LSH recall too low: {recall}");
    }

    #[test]
    fn blocking_reduces_candidate_count() {
        let (items, _) = clustered(20, 5, 16, 3);
        // Narrow bands => aggressive blocking.
        let store = blocked(16, &items, 4, 8, 4);
        let total: usize = items.iter().map(|q| store.candidate_count(q, &LshCandidates)).sum();
        let mean = total as f64 / items.len() as f64;
        assert!(
            mean < items.len() as f64 * 0.6,
            "blocking did not prune: mean {mean} of {}",
            items.len()
        );
        assert_eq!(store.candidate_count(&items[0], &ExactScan), items.len());
    }

    #[test]
    fn query_candidates_match_member_candidates() {
        let (items, _) = clustered(4, 4, 8, 5);
        let store = blocked(8, &items, 6, 3, 6);
        // The item itself hashes identically, so it must be in its own
        // query candidates.
        assert!(candidates(&store, &items[0]).contains(&0));
    }

    #[test]
    fn deterministic_per_seed() {
        let (items, _) = clustered(3, 3, 8, 7);
        let a = blocked(8, &items, 4, 4, 9);
        let b = blocked(8, &items, 4, 4, 9);
        for q in &items {
            assert_eq!(candidates(&a, q), candidates(&b, q));
        }
        let planes = random_planes(16, 8, 9);
        assert_eq!(planes, random_planes(16, 8, 9));
        assert_eq!(signature_of(&planes, &items[0]), signature_of(&planes, &items[0]));
    }

    #[test]
    fn empty_index() {
        let store = blocked(4, &[], 4, 4, 1);
        assert!(store.is_empty());
        assert_eq!(store.len(), 0);
        // Nothing indexed, nothing nominated — no silent everything-bucket.
        assert_eq!(store.candidate_count(&[1.0, 2.0, 3.0, 4.0], &LshCandidates), 0);
        assert!(store.search(&[1.0, 2.0, 3.0, 4.0], 5, &LshCandidates).is_empty());
    }

    #[test]
    fn pack_roundtrips_and_zeroes_the_tail() {
        for bits in [1usize, 7, 63, 64, 65, 128, 130] {
            let sig: Vec<bool> = (0..bits).map(|i| (i * 7 + bits) % 3 == 0).collect();
            let packed = pack_signature(&sig);
            assert_eq!(packed.len(), packed_len(bits));
            let unpacked: Vec<bool> =
                (0..bits).map(|i| packed[i / 64] >> (i % 64) & 1 == 1).collect();
            assert_eq!(unpacked, sig, "bits={bits}");
            // A band key reads the same bits, first bit most significant.
            let key = (0..bits.min(8)).fold(0u64, |key, i| (key << 1) | sig[i] as u64);
            assert_eq!(band_key(&packed, 0, bits.min(8)), key, "bits={bits}");
            // Tail bits beyond `bits` in the last word must be zero, and
            // `mask_tail` restores exactly that on a dirtied copy.
            let mut dirty = packed.clone();
            if bits % 64 != 0 {
                let tail = packed[packed.len() - 1] >> (bits % 64);
                assert_eq!(tail, 0, "bits={bits}: tail not masked");
                dirty[packed.len() - 1] |= !0u64 << (bits % 64);
            }
            mask_tail(&mut dirty, bits);
            assert_eq!(dirty, packed, "bits={bits}: mask_tail");
        }
        assert_eq!(pack_signature(&[]).len(), 0);
    }

    #[test]
    fn signer_bits_are_the_thresholded_projections() {
        let (items, _) = clustered(3, 6, 8, 21);
        for n_planes in [5usize, 64, 130] {
            let planes = random_planes(n_planes, 8, 3);
            // Uncentred, the signer is `signature_of`, packed.
            let origin = Signer::new(planes.clone(), None);
            for v in &items {
                assert_eq!(origin.sign(v), pack_signature(&signature_of(&planes, v)));
            }
            // Centred on `mu`, bit j compares against `dot(P_j, mu)`.
            let mu = &items[4];
            let centred = Signer::new(planes.clone(), Some(mu));
            for v in &items {
                let bits: Vec<bool> = planes.iter().map(|p| dot(p, v) >= dot(p, mu)).collect();
                assert_eq!(centred.sign(v), pack_signature(&bits), "{n_planes} planes");
            }
            // The centre itself sits on every hyperplane: all ones.
            assert_eq!(centred.sign(mu), pack_signature(&vec![true; n_planes]));
        }
    }

    #[test]
    fn recentre_reports_whether_thresholds_moved() {
        let planes = random_planes(16, 4, 5);
        let mut signer = Signer::new(planes, None);
        assert!(!signer.recentre(None), "origin to origin");
        assert!(signer.recentre(Some(&[0.5, 0.1, -0.2, 0.0])));
        assert!(!signer.recentre(Some(&[0.5, 0.1, -0.2, 0.0])), "same centre");
        assert!(signer.recentre(None));
    }

    #[test]
    fn from_embeddings_streams_and_matches_build() {
        let (items, _) = clustered(4, 4, 8, 11);
        let built = blocked(8, &items, 4, 4, 13);
        // Feed the same vectors through the `VectorSink` surface the
        // batched embedding pipeline streams into, consuming them.
        let mut streamed = blocked(8, &[], 4, 4, 13);
        let sink: &mut dyn VectorSink = &mut streamed;
        assert_eq!(sink.dim(), 8);
        for v in items.clone() {
            sink.insert(&v);
        }
        assert_eq!(streamed.len(), built.len());
        for q in &items {
            assert_eq!(candidates(&streamed, q), candidates(&built, q));
        }
    }
}
