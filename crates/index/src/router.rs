//! Placement and probe-set routing for [`crate::ShardedStore`].
//!
//! Routing used to be baked into id hashing: every id landed on
//! `splitmix64(id) % n_shards`, and every query fanned out to **all**
//! shards — correct, but O(shards) per query and blind to vector geometry.
//! This module extracts that decision behind the [`Router`] trait:
//!
//! * [`HashRouter`] — the historical behavior and the default. Placement is
//!   a pure function of the id, so it needs no training and survives any
//!   churn; but because placement ignores geometry, *every* query must
//!   probe every shard (a selective probe would miss neighbors scattered
//!   uniformly across shards).
//! * [`IvfRouter`] — the classic IVF coarse quantizer (`IVF_FLAT` /
//!   `nlist`): k-means centroids trained on a corpus sample, one per
//!   shard. Upserts co-locate under their nearest centroid, and a query
//!   probes only its `nprobe` nearest cells — the sublinear-scan step.
//!   Training is **deterministic**: k-means++ seeding and Lloyd iterations
//!   run from a caller-provided seed (conventionally the store's LSH
//!   seed), and every distance tie breaks by lowest index under
//!   `total_cmp`, so two builds over the same sample produce bit-identical
//!   routers.
//!
//! Placement and probing both rank shards by dot product against
//! L2-normalized centroids (cosine similarity — the same geometry the
//! store scores with), via the batched `simd::matvec_dots`
//! kernel.
//!
//! A trained router also keeps its sample **mean** μ ([`Router::mean`]):
//! the mean of the L2-normalized training sample, accumulated in f64 and
//! independent of `nlist`. It plays no part in placement or probing. The
//! store's shards centre their signature hyperplanes on it: table encoders
//! are anisotropic (every embedding shares a large common component), so
//! hyperplanes through the origin give nearly every row the same sign
//! bits, while hyperplanes through μ split the corpus where it actually
//! varies. [`HashRouter`] has no sample and no mean; its stores keep the
//! hyperplanes through the origin.

use crate::simd::{l2_normalize, matvec_dots};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Lloyd iterations [`IvfRouter::train`] runs after k-means++ seeding.
/// Assignments on clustered corpora stabilize well before this; a fixed
/// count (rather than a convergence test) keeps training cost predictable
/// and its output trivially deterministic.
pub const KMEANS_ITERS: usize = 10;

/// How a [`crate::ShardedStore`] maps vectors to shards.
///
/// `place` decides where an upsert lands; `probe` decides which shards a
/// query visits. Implementations must be pure functions of their own state
/// plus the arguments — the store persists routers through snapshots and
/// replays placements, so a nondeterministic router would break
/// byte-identical round-trips.
pub trait Router: Send + Sync + fmt::Debug {
    /// Short stable identifier (`"hash"`, `"ivf"`) for stats and logs.
    fn name(&self) -> &'static str;

    /// The shard the vector `v` (L2-normalized) stored under `id` belongs
    /// to, in `0..n_shards`.
    fn place(&self, id: u64, v: &[f32], n_shards: usize) -> usize;

    /// The shards a query `q` (L2-normalized) should visit for an
    /// `nprobe`-shard budget, ascending shard order. Geometry-blind routers
    /// ignore `nprobe` and return every shard — probing a subset of
    /// hash-placed shards would silently drop neighbors.
    fn probe(&self, q: &[f32], nprobe: usize, n_shards: usize) -> Vec<usize>;

    /// Whether placement follows vector geometry — i.e. whether an
    /// `nprobe < n_shards` probe set is meaningful.
    fn is_learned(&self) -> bool {
        false
    }

    /// The router's centroids for persistence, when it has any.
    fn centroids(&self) -> Option<Vec<Vec<f32>>> {
        None
    }

    /// The mean of the (L2-normalized) sample the router was trained on,
    /// when it has one: the point every shard's signature hyperplanes pass
    /// through. `None` keeps them through the origin.
    fn mean(&self) -> Option<&[f32]> {
        None
    }

    /// The placement residual `1 - cos(centroid[shard], v)` — the drift
    /// signal the rebalance trigger accumulates. `None` for routers with no
    /// geometry.
    fn residual(&self, v: &[f32], shard: usize) -> Option<f64> {
        let _ = (v, shard);
        None
    }
}

/// Finalizing mixer from the splitmix64 generator: every id bit diffuses
/// into the shard choice, so sequential ids (the common case — auto-ids and
/// corpus indices) spread uniformly instead of striping.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Geometry-blind id-hash routing — the historical default. Pure in
/// `(id, n_shards)`, stable across processes, runs, and snapshot
/// round-trips.
#[derive(Clone, Copy, Debug, Default)]
pub struct HashRouter;

impl Router for HashRouter {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn place(&self, id: u64, _v: &[f32], n_shards: usize) -> usize {
        (splitmix64(id) % n_shards as u64) as usize
    }

    fn probe(&self, _q: &[f32], _nprobe: usize, n_shards: usize) -> Vec<usize> {
        (0..n_shards).collect()
    }
}

/// A k-means coarse quantizer: one L2-normalized centroid per shard
/// (`nlist == n_shards`), placing vectors under their nearest centroid and
/// probing queries against the `nprobe` nearest. See the
/// [module docs](self) for the determinism contract.
#[derive(Clone, Debug)]
pub struct IvfRouter {
    dim: usize,
    /// `nlist × dim` centroid components, row-major — the layout
    /// [`matvec_dots`] consumes.
    centroids: Vec<f32>,
    /// The training sample's mean, `dim` components (see [`Router::mean`]).
    mean: Vec<f32>,
}

impl IvfRouter {
    /// Trains `nlist` centroids on `sample` with k-means++ seeding and
    /// [`KMEANS_ITERS`] Lloyd iterations, all randomness drawn from `seed`
    /// (pass the store's [`crate::StoreConfig::seed`]). Sample vectors are
    /// L2-normalized copies; the input is untouched. Empty clusters are
    /// re-seeded by splitting the largest cluster at its farthest member.
    /// The router also keeps the normalized sample's mean, accumulated in
    /// f64 before any clustering, so it does not depend on `nlist` or
    /// `seed`.
    ///
    /// # Panics
    /// On an empty sample, `nlist == 0`, or mixed dimensionalities.
    pub fn train(sample: &[Vec<f32>], nlist: usize, seed: u64) -> Self {
        assert!(!sample.is_empty(), "IvfRouter::train needs a non-empty sample");
        assert!(nlist > 0, "IvfRouter::train needs at least one centroid");
        let dim = sample[0].len();
        assert!(dim > 0, "IvfRouter::train over zero-dimensional vectors");
        let normalized: Vec<Vec<f32>> = sample
            .iter()
            .map(|v| {
                assert_eq!(v.len(), dim, "IvfRouter::train over mixed dimensions");
                let mut nv = v.clone();
                l2_normalize(&mut nv);
                nv
            })
            .collect();
        let mut sum = vec![0.0f64; dim];
        for v in &normalized {
            for (s, x) in sum.iter_mut().zip(v) {
                *s += *x as f64;
            }
        }
        let mean = sum.iter().map(|s| (s / normalized.len() as f64) as f32).collect();

        let mut rng = StdRng::seed_from_u64(seed);
        let mut centroids = kmeans_pp_seed(&normalized, nlist, dim, &mut rng);
        let mut assignment = vec![0usize; normalized.len()];
        for _ in 0..KMEANS_ITERS {
            // Assign: nearest centroid by dot, ties to the lowest index.
            let mut dots = vec![0.0f32; nlist];
            for (vi, v) in normalized.iter().enumerate() {
                matvec_dots(&centroids, dim, v, &mut dots);
                assignment[vi] = argmax(&dots);
            }
            // Update: member mean, re-normalized back onto the sphere. f64
            // accumulation keeps the mean independent of how f32 rounding
            // would interact with member count.
            let mut sums = vec![0.0f64; nlist * dim];
            let mut counts = vec![0usize; nlist];
            for (vi, v) in normalized.iter().enumerate() {
                let c = assignment[vi];
                counts[c] += 1;
                for (d, x) in v.iter().enumerate() {
                    sums[c * dim + d] += *x as f64;
                }
            }
            // Empty clusters steal the farthest member of the largest
            // cluster (both ties by lowest index) so every shard keeps a
            // centroid — splitting, not collapsing.
            while let Some(empty) = counts.iter().position(|&c| c == 0) {
                let donor = argmax_count(&counts);
                if counts[donor] <= 1 {
                    // Fewer members than cells: nothing left to split
                    // without emptying the donor (the loop would ping-pong
                    // one vector forever). The leftover empty cells keep
                    // their seeded centroids below.
                    break;
                }
                let victim = farthest_member(&normalized, &assignment, &centroids, dim, donor);
                counts[donor] -= 1;
                counts[empty] += 1;
                assignment[victim] = empty;
                let v = &normalized[victim];
                for d in 0..dim {
                    sums[donor * dim + d] -= v[d] as f64;
                    sums[empty * dim + d] += v[d] as f64;
                }
            }
            for c in 0..nlist {
                // A cell that stayed empty (sample smaller than nlist)
                // keeps its seeded centroid — a mean over zero members
                // would turn it into NaNs.
                if counts[c] == 0 {
                    continue;
                }
                let n = counts[c] as f64;
                for d in 0..dim {
                    centroids[c * dim + d] = (sums[c * dim + d] / n) as f32;
                }
                l2_normalize(&mut centroids[c * dim..(c + 1) * dim]);
            }
        }
        Self { dim, centroids, mean }
    }

    /// Reconstructs a router from persisted centroids and sample mean (the
    /// snapshot load path). Both are taken as-is — the centroids were
    /// normalized before capture, and re-normalizing could shift bits and
    /// change placements.
    ///
    /// # Panics
    /// On an empty centroid list or mixed dimensionalities.
    pub fn from_centroids(centroids: Vec<Vec<f32>>, mean: Vec<f32>) -> Self {
        assert!(!centroids.is_empty(), "IvfRouter needs at least one centroid");
        let dim = centroids[0].len();
        assert!(dim > 0, "IvfRouter over zero-dimensional centroids");
        let mut flat = Vec::with_capacity(centroids.len() * dim);
        for c in &centroids {
            assert_eq!(c.len(), dim, "IvfRouter over mixed centroid dimensions");
            flat.extend_from_slice(c);
        }
        assert_eq!(mean.len(), dim, "IvfRouter mean must match the centroid dimension");
        Self { dim, centroids: flat, mean }
    }

    /// Number of cells (= shards this router must be paired with).
    pub fn nlist(&self) -> usize {
        self.centroids.len() / self.dim
    }

    /// Centroid dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Dot products of `v` against every centroid, via the batched kernel.
    fn cell_dots(&self, v: &[f32]) -> Vec<f32> {
        let mut dots = vec![0.0f32; self.nlist()];
        matvec_dots(&self.centroids, self.dim, v, &mut dots);
        dots
    }
}

impl Router for IvfRouter {
    fn name(&self) -> &'static str {
        "ivf"
    }

    fn place(&self, _id: u64, v: &[f32], n_shards: usize) -> usize {
        debug_assert_eq!(self.nlist(), n_shards, "IvfRouter nlist must equal the shard count");
        let _ = n_shards;
        argmax(&self.cell_dots(v))
    }

    fn probe(&self, q: &[f32], nprobe: usize, n_shards: usize) -> Vec<usize> {
        debug_assert_eq!(self.nlist(), n_shards, "IvfRouter nlist must equal the shard count");
        let nlist = self.nlist().min(n_shards);
        let nprobe = nprobe.clamp(1, nlist);
        if nprobe == nlist {
            return (0..nlist).collect();
        }
        let dots = self.cell_dots(q);
        let mut cells: Vec<usize> = (0..nlist).collect();
        // Highest similarity first, ties to the lowest index; the selected
        // set is unique under this total order, so the probe set is a pure
        // function of (q, nprobe).
        cells.sort_unstable_by(|&a, &b| dots[b].total_cmp(&dots[a]).then(a.cmp(&b)));
        cells.truncate(nprobe);
        cells.sort_unstable();
        cells
    }

    fn is_learned(&self) -> bool {
        true
    }

    fn centroids(&self) -> Option<Vec<Vec<f32>>> {
        Some(self.centroids.chunks_exact(self.dim).map(<[f32]>::to_vec).collect())
    }

    fn mean(&self) -> Option<&[f32]> {
        Some(&self.mean)
    }

    fn residual(&self, v: &[f32], shard: usize) -> Option<f64> {
        let c = &self.centroids[shard * self.dim..(shard + 1) * self.dim];
        Some(1.0 - crate::simd::dot(c, v) as f64)
    }
}

/// Index of the largest value, ties to the lowest index (`total_cmp`, so
/// NaNs order deterministically too).
#[inline]
fn argmax(dots: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, d) in dots.iter().enumerate().skip(1) {
        if d.total_cmp(&dots[best]) == std::cmp::Ordering::Greater {
            best = i;
        }
    }
    best
}

/// Index of the largest count, ties to the lowest index.
#[inline]
fn argmax_count(counts: &[usize]) -> usize {
    let mut best = 0usize;
    for (i, &c) in counts.iter().enumerate().skip(1) {
        if c > counts[best] {
            best = i;
        }
    }
    best
}

/// The member of `cluster` farthest from its centroid (smallest dot, ties
/// to the lowest member index) — the split point for empty-cluster repair.
fn farthest_member(
    vecs: &[Vec<f32>],
    assignment: &[usize],
    centroids: &[f32],
    dim: usize,
    cluster: usize,
) -> usize {
    let c = &centroids[cluster * dim..(cluster + 1) * dim];
    let mut best: Option<(usize, f32)> = None;
    for (vi, v) in vecs.iter().enumerate() {
        if assignment[vi] != cluster {
            continue;
        }
        let d = crate::simd::dot(c, v);
        match best {
            Some((_, bd)) if d.total_cmp(&bd) != std::cmp::Ordering::Less => {}
            _ => best = Some((vi, d)),
        }
    }
    best.expect("donor cluster has members").0
}

/// K-means++ seeding: the first centroid is drawn uniformly, each next one
/// with probability proportional to the squared distance to the nearest
/// centroid chosen so far — all draws from the caller's seeded `rng`, with
/// cumulative-weight selection so the choice is a deterministic function of
/// the (ordered) sample and the RNG stream. Degenerate weights (every
/// point already coincides with a centroid) fall back to cycling the
/// sample, as does `nlist > sample.len()`.
fn kmeans_pp_seed(vecs: &[Vec<f32>], nlist: usize, dim: usize, rng: &mut StdRng) -> Vec<f32> {
    let n = vecs.len();
    let mut centroids = Vec::with_capacity(nlist * dim);
    let first = rng.random_range(0..n);
    centroids.extend_from_slice(&vecs[first]);
    // Squared Euclidean distance to the nearest chosen centroid; on the
    // unit sphere `|a - b|² = 2 - 2·a·b`, clamped at zero for round-off.
    let mut d2: Vec<f64> = vecs
        .iter()
        .map(|v| (2.0 - 2.0 * crate::simd::dot(v, &vecs[first]) as f64).max(0.0))
        .collect();
    for _ in 1..nlist {
        let total: f64 = d2.iter().sum();
        let pick = if total > 0.0 {
            let mut r = rng.random_range(0.0..1.0) * total;
            let mut pick = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if r < w {
                    pick = i;
                    break;
                }
                r -= w;
            }
            pick
        } else {
            // Fewer distinct points than centroids: cycle the sample so
            // every cell still gets a seed (Lloyd's empty-cluster repair
            // keeps them apart afterwards).
            (centroids.len() / dim) % n
        };
        let start = centroids.len();
        centroids.extend_from_slice(&vecs[pick]);
        let c = &centroids[start..start + dim];
        for (v, d) in vecs.iter().zip(d2.iter_mut()) {
            let nd = (2.0 - 2.0 * crate::simd::dot(v, c) as f64).max(0.0);
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` points around `k` well-separated anchor directions.
    fn clustered(n: usize, dim: usize, k: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let anchors: Vec<Vec<f32>> =
            (0..k).map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect();
        (0..n)
            .map(|i| {
                let a = &anchors[i % k];
                a.iter().map(|x| x + rng.random_range(-0.1f32..0.1)).collect()
            })
            .collect()
    }

    #[test]
    fn hash_router_matches_splitmix_and_probes_everything() {
        let r = HashRouter;
        for id in 0..100u64 {
            assert_eq!(r.place(id, &[1.0], 4), (splitmix64(id) % 4) as usize);
        }
        assert_eq!(r.probe(&[1.0], 1, 4), vec![0, 1, 2, 3], "hash probing must full-fan");
        assert!(!r.is_learned());
        assert!(r.centroids().is_none());
        assert!(r.mean().is_none(), "hash routing keeps hyperplanes through the origin");
    }

    #[test]
    fn training_is_bit_deterministic() {
        let sample = clustered(200, 16, 8, 3);
        let a = IvfRouter::train(&sample, 8, 0x7ab1);
        let b = IvfRouter::train(&sample, 8, 0x7ab1);
        assert_eq!(a.nlist(), 8);
        let (ca, cb) = (a.centroids().unwrap(), b.centroids().unwrap());
        for (x, y) in ca.iter().flatten().zip(cb.iter().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits(), "two trainings diverged");
        }
    }

    #[test]
    fn placement_follows_clusters_and_probe_ranks_by_similarity() {
        let sample = clustered(120, 8, 4, 7);
        let router = IvfRouter::train(&sample, 4, 42);
        // Points of one cluster overwhelmingly co-locate.
        let mut first_of = [None; 4];
        let mut agree = 0usize;
        for (i, v) in sample.iter().enumerate() {
            let mut nv = v.clone();
            l2_normalize(&mut nv);
            let shard = router.place(i as u64, &nv, 4);
            match first_of[i % 4] {
                None => first_of[i % 4] = Some(shard),
                Some(s) if s == shard => agree += 1,
                Some(_) => {}
            }
        }
        assert!(agree >= 100, "only {agree}/116 points joined their cluster's shard");
        // probe(1) is the placement cell; probe(nlist) is every cell.
        let mut q = sample[0].clone();
        l2_normalize(&mut q);
        assert_eq!(router.probe(&q, 1, 4), vec![router.place(0, &q, 4)]);
        assert_eq!(router.probe(&q, 4, 4), vec![0, 1, 2, 3]);
        assert_eq!(router.probe(&q, 0, 4).len(), 1, "nprobe clamps up to 1");
        assert_eq!(router.probe(&q, 99, 4).len(), 4, "nprobe clamps down to nlist");
    }

    #[test]
    fn more_centroids_than_sample_points_still_trains() {
        let sample = clustered(3, 6, 3, 1);
        let router = IvfRouter::train(&sample, 8, 9);
        assert_eq!(router.nlist(), 8);
        let cents = router.centroids().unwrap();
        assert!(cents.iter().all(|c| c.len() == 6));
    }

    #[test]
    fn from_centroids_round_trips_placements() {
        let sample = clustered(90, 8, 4, 11);
        let trained = IvfRouter::train(&sample, 4, 5);
        let restored = IvfRouter::from_centroids(
            trained.centroids().unwrap(),
            trained.mean().unwrap().to_vec(),
        );
        assert_eq!(restored.mean(), trained.mean());
        for (i, v) in sample.iter().enumerate() {
            let mut nv = v.clone();
            l2_normalize(&mut nv);
            assert_eq!(trained.place(i as u64, &nv, 4), restored.place(i as u64, &nv, 4));
            assert_eq!(trained.probe(&nv, 2, 4), restored.probe(&nv, 2, 4));
        }
    }

    #[test]
    fn mean_is_the_normalized_sample_mean_whatever_nlist_and_seed() {
        let sample = clustered(64, 8, 4, 19);
        let router = IvfRouter::train(&sample, 4, 3);
        let mean = router.mean().expect("a trained router keeps its sample mean");
        for d in 0..8 {
            let want = sample
                .iter()
                .map(|v| {
                    let mut nv = v.clone();
                    l2_normalize(&mut nv);
                    nv[d] as f64
                })
                .sum::<f64>()
                / sample.len() as f64;
            assert!((mean[d] as f64 - want).abs() < 1e-6, "component {d}: {} vs {want}", mean[d]);
        }
        // One cell or many, any seed: the same bits.
        for (nlist, seed) in [(1, 3), (8, 3), (4, 77)] {
            let other = IvfRouter::train(&sample, nlist, seed);
            let bits = |m: &[f32]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(other.mean().unwrap()), bits(mean), "nlist {nlist}, seed {seed}");
        }
    }

    #[test]
    fn residual_is_zero_at_the_centroid() {
        let sample = clustered(40, 6, 2, 13);
        let router = IvfRouter::train(&sample, 2, 17);
        let cents = router.centroids().unwrap();
        let r = router.residual(&cents[0], 0).unwrap();
        assert!(r.abs() < 1e-5, "centroid residual {r} should be ~0");
    }
}
