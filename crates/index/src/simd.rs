//! SIMD-friendly scoring kernels and the two selections built on them.
//!
//! * [`dot`] and [`hamming`] — the f32 and packed sign-bit kernels.
//! * `TopK` — the bounded top-k by (score, id) every search ends in.
//! * `DistHistogram` / `Cut` — the quantized tier's **counting select**:
//!   pass 1 tallies every probed row's Hamming distance (`bits + 1` bins,
//!   four interleaved sub-histograms), the cut `T` is the smallest distance
//!   covering `r` rows, and pass 2 keeps the rows under `T` plus the
//!   smallest ids at `T`. Its cost is two linear walks whatever the
//!   distance distribution — no heap, no entry bar to estimate, no
//!   tie-churn on concentrated signatures.
//!
//! The store keeps every vector L2-normalized, so similarity search reduces
//! to a plain dot product — one FMA per element instead of the three the
//! cosine formula pays, and no square roots on the hot path. The dot kernel
//! follows the AVX2 pattern established by `tabbin_core::infer`: an
//! explicitly vectorized path where `target-cpu=native` statically enables
//! AVX2+FMA (see `.cargo/config.toml`), and a four-accumulator scalar
//! fallback elsewhere. Within one build the kernel is a pure function of its
//! inputs, which is what makes snapshot round-trips byte-identical. The
//! Hamming kernel has no vector path: the stores sign in one or two words,
//! one `POPCNT` each, and its integer results are the same on every build.

use std::cmp::Ordering;

/// Dot product of two equal-length slices.
///
/// Lengths are checked with `debug_assert!` only — the store guarantees both
/// sides share its dimension before any scoring happens.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot over mismatched lengths");
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
    // SAFETY: the avx2/fma target features are statically enabled for this
    // compilation (checked by the cfg above).
    unsafe {
        dot_avx2(a, b)
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma")))]
    dot_scalar(a, b)
}

/// Four-accumulator scalar dot product: enough instruction-level parallelism
/// for the compiler to keep SIMD lanes busy without reassociating any sum it
/// was not told to.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma")))]
fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for i in 0..4 {
            acc[i] += xa[i] * xb[i];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2", target_feature = "fma"))]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    unsafe {
        let n = a.len().min(b.len());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0usize;
        // Two 8-lane FMA accumulators hide the FMA latency chain.
        while i + 16 <= n {
            let a0 = _mm256_loadu_ps(a.as_ptr().add(i));
            let b0 = _mm256_loadu_ps(b.as_ptr().add(i));
            acc0 = _mm256_fmadd_ps(a0, b0, acc0);
            let a1 = _mm256_loadu_ps(a.as_ptr().add(i + 8));
            let b1 = _mm256_loadu_ps(b.as_ptr().add(i + 8));
            acc1 = _mm256_fmadd_ps(a1, b1, acc1);
            i += 16;
        }
        while i + 8 <= n {
            let a0 = _mm256_loadu_ps(a.as_ptr().add(i));
            let b0 = _mm256_loadu_ps(b.as_ptr().add(i));
            acc0 = _mm256_fmadd_ps(a0, b0, acc0);
            i += 8;
        }
        let acc = _mm256_add_ps(acc0, acc1);
        // Horizontal sum: high lane + low lane, then pairwise.
        let hi = _mm256_extractf128_ps::<1>(acc);
        let lo = _mm256_castps256_ps128(acc);
        let s = _mm_add_ps(hi, lo);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps::<1>(s, s));
        let mut total = _mm_cvtss_f32(s);
        while i < n {
            total += a[i] * b[i];
            i += 1;
        }
        total
    }
}

/// Hamming distance between two packed bit signatures (`[u64]` words, as
/// produced by [`crate::lsh::pack_signature`]).
///
/// This is the quantized tier's coarse kernel: XOR + population count per
/// word, 64 signature bits per load instead of 64 `f32` lanes — the whole
/// point of scoring sign bits first. Signature widths that are not a
/// multiple of 64 need no masking here: the packer zeroes the tail bits of
/// the last word on both sides, so they XOR to zero. Every width goes
/// through `u64::count_ones`, which compiles to a single `POPCNT` on any
/// popcount-capable build; the stores build 16- to 128-bit signatures (1–2
/// words), where a vector popcount would be pure setup overhead.
///
/// Lengths are checked with `debug_assert!` only — the store guarantees
/// both sides share its signature width before any scoring happens.
#[inline(always)]
pub fn hamming(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len(), "hamming over mismatched signature widths");
    // Short signatures are the hot case (128 bits = 2 words under
    // `default_blocking`): the generic loop pays a trip-count branch per
    // word there. Pinning the length per arm lets LLVM emit straight-line
    // XOR+POPCNT.
    match a.len() {
        1 => fixed_hamming::<1>(a, b),
        2 => fixed_hamming::<2>(a, b),
        3 => fixed_hamming::<3>(a, b),
        4 => fixed_hamming::<4>(a, b),
        _ => a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum(),
    }
}

/// Fully unrolled XOR+POPCNT over a compile-time word count. The caller
/// guarantees `a.len() == N`; one slice conversion per side hoists every
/// bounds check out of the per-word arithmetic.
#[inline(always)]
fn fixed_hamming<const N: usize>(a: &[u64], b: &[u64]) -> u32 {
    let a: &[u64; N] = a.try_into().expect("caller matched on len");
    let b: &[u64; N] = b.try_into().expect("hamming over mismatched signature widths");
    let mut acc = 0u32;
    for i in 0..N {
        acc += (a[i] ^ b[i]).count_ones();
    }
    acc
}

/// Dot products of one vector against every row of a row-major `rows × dim`
/// matrix — the batched point-to-centroid kernel the IVF router ranks cells
/// with. Each row goes through [`dot`], so the result bits match `rows`
/// independent calls exactly (placement decisions replay deterministically
/// from persisted centroids).
///
/// # Panics
/// Debug-asserts that `mat` is `out.len() × dim` and `v` has length `dim`.
#[inline]
pub(crate) fn matvec_dots(mat: &[f32], dim: usize, v: &[f32], out: &mut [f32]) {
    debug_assert_eq!(mat.len(), out.len() * dim, "matvec_dots over a ragged matrix");
    debug_assert_eq!(v.len(), dim, "matvec_dots over mismatched lengths");
    for (row, o) in mat.chunks_exact(dim).zip(out.iter_mut()) {
        *o = dot(row, v);
    }
}

/// L2-normalizes `v` in place — the **single** normalization everything
/// routes through: stored vectors ([`crate::ShardedStore::upsert`]), query
/// preparation, and the engine's cache keys. One implementation is a
/// correctness requirement, not a style choice: the engine's cache is
/// keyed on these exact bits, and a key computed by a divergent copy would
/// silently serve another query's results. Norms that are not strictly
/// positive (zero, NaN) leave the vector unchanged; an infinite norm
/// divides through (components collapse to `±0`/NaN), which downstream
/// scoring handles via `total_cmp` ordering.
#[inline]
pub(crate) fn l2_normalize(v: &mut [f32]) {
    let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v {
            *x /= norm;
        }
    }
}

/// One search result: a stored id and its similarity score (dot product of
/// L2-normalized vectors, i.e. cosine similarity in `[-1, 1]`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hit {
    /// The id the vector was upserted under.
    pub id: u64,
    /// Normalized-dot similarity to the query.
    pub score: f32,
}

/// Ranking order: higher score first, ties broken by ascending id so results
/// never depend on physical segment layout (and therefore survive
/// compaction and snapshot round-trips bit-for-bit).
#[inline]
pub(crate) fn rank_cmp(a: &Hit, b: &Hit) -> Ordering {
    b.score.total_cmp(&a.score).then(a.id.cmp(&b.id))
}

/// A bounded top-k accumulator: a sorted array of at most `k` hits.
///
/// For the small `k` retrieval uses (10–20), a sorted-insert array beats a
/// heap: the common case is a single comparison against the current k-th
/// score, and candidates rarely displace anything.
#[derive(Clone, Debug)]
pub(crate) struct TopK {
    k: usize,
    hits: Vec<Hit>,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        Self { k, hits: Vec::with_capacity(k.min(64)) }
    }

    /// Offers one candidate.
    pub(crate) fn push(&mut self, id: u64, score: f32) {
        if self.k == 0 {
            return;
        }
        let hit = Hit { id, score };
        if self.hits.len() == self.k {
            if rank_cmp(self.hits.last().expect("k > 0"), &hit) != Ordering::Greater {
                return;
            }
            self.hits.pop();
        }
        let pos = self.hits.partition_point(|h| rank_cmp(h, &hit) == Ordering::Less);
        self.hits.insert(pos, hit);
    }

    /// The final ranked hits, best first.
    pub(crate) fn into_sorted(self) -> Vec<Hit> {
        self.hits
    }
}

/// Pass 1's tally of the quantized tier's counting select: how many probed
/// rows sit at each Hamming distance `0..=bits`, plus one bin for the
/// tombstone [`sentinel`](Self::sentinel) that [`cut`](Self::cut) never
/// reads. The counts live in four interleaved sub-histograms picked by row
/// index: on concentrated signatures consecutive rows land in the same bin,
/// and four separate counters keep those increments from forming one
/// store-to-load dependency chain.
#[derive(Clone, Debug)]
pub(crate) struct DistHistogram {
    /// `bins[d][lane]`: rows at distance `d` whose index is `lane` mod 4.
    bins: Vec<[u32; 4]>,
}

/// Where the counting select cuts to keep `r` rows: every row closer than
/// `t`, and the `ties` smallest ids among the rows at exactly `t`. That is
/// the `r` smallest rows under the (distance, id) total order — a function
/// of the live probed rows alone, never of segment or shard layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Cut {
    /// The smallest distance `T` with `count(d ≤ T) ≥ r`; the widest
    /// distance when fewer than `r` rows are live.
    pub(crate) t: u32,
    /// `r − count(d < T)`: how many rows at distance `T` survive (at least
    /// all of them when fewer than `r` rows are live).
    pub(crate) ties: usize,
}

impl DistHistogram {
    /// An empty tally for `bits`-bit signatures.
    pub(crate) fn new(bits: usize) -> Self {
        Self { bins: vec![[0; 4]; bits + 2] }
    }

    /// The distance a tombstoned row is recorded at: `bits + 1`, past every
    /// real distance, so pass 2 never keeps it.
    pub(crate) fn sentinel(&self) -> u32 {
        (self.bins.len() - 1) as u32
    }

    /// Counts row number `row` at distance `d` (≤ the sentinel).
    #[inline(always)]
    pub(crate) fn add(&mut self, row: usize, d: u32) {
        self.bins[d as usize][row & 3] += 1;
    }

    /// The cut that keeps `r` rows (see [`Cut`]).
    pub(crate) fn cut(&self, r: usize) -> Cut {
        let widest = self.bins.len() - 2;
        let (mut t, mut below) = (0, 0usize);
        while t < widest {
            let at: usize = self.bins[t].iter().map(|&n| n as usize).sum();
            if below + at >= r {
                break;
            }
            below += at;
            t += 1;
        }
        Cut { t: t as u32, ties: r - below }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        // Cover remainder handling across lengths, including non-multiples
        // of the 8/16-lane strides.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 127, 128] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos()).collect();
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let fast = dot(&a, &b);
            assert!((naive - fast).abs() < 1e-4, "n={n}: {naive} vs {fast}");
        }
    }

    #[test]
    fn dot_is_deterministic() {
        let a: Vec<f32> = (0..128).map(|i| (i as f32 * 0.7).sin()).collect();
        let b: Vec<f32> = (0..128).map(|i| (i as f32 * 0.3).cos()).collect();
        let first = dot(&a, &b);
        for _ in 0..10 {
            assert_eq!(dot(&a, &b).to_bits(), first.to_bits());
        }
    }

    #[test]
    fn topk_keeps_best_and_breaks_ties_by_id() {
        let mut t = TopK::new(3);
        for (id, score) in [(5u64, 0.5f32), (1, 0.9), (2, 0.5), (3, 0.1), (4, 0.9)] {
            t.push(id, score);
        }
        let hits = t.into_sorted();
        let ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
        // 0.9 ties break toward the smaller id; the 0.5 tie keeps id 2.
        assert_eq!(ids, vec![1, 4, 2]);
    }

    #[test]
    fn topk_merge_is_order_independent() {
        let hits = [(1u64, 0.3f32), (2, 0.8), (3, 0.8), (4, -0.2), (5, 0.31)];
        let mut left = TopK::new(3);
        let mut right = TopK::new(3);
        for (i, (id, s)) in hits.iter().enumerate() {
            if i % 2 == 0 {
                left.push(*id, *s);
            } else {
                right.push(*id, *s);
            }
        }
        // Folding one accumulator's hits into another is a function of the
        // combined hit *set* — what lets scans thread a single accumulator
        // through segments and shards in any order.
        let fold = |mut into: TopK, from: &TopK| {
            for h in &from.hits {
                into.push(h.id, h.score);
            }
            into.into_sorted()
        };
        assert_eq!(fold(left.clone(), &right), fold(right, &left));
    }

    #[test]
    fn topk_zero_k_stays_empty() {
        let mut t = TopK::new(0);
        t.push(1, 1.0);
        assert!(t.into_sorted().is_empty());
    }

    #[test]
    fn hamming_matches_naive_bit_count() {
        // Cover the fixed-width arms (1–4 words) and the generic loop past
        // them.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 31] {
            let a: Vec<u64> = (0..n).map(|_| next()).collect();
            let b: Vec<u64> = (0..n).map(|_| next()).collect();
            let naive: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
            assert_eq!(hamming(&a, &b), naive, "n={n}");
        }
        assert_eq!(hamming(&[0b1011, 0], &[0b0001, 0]), 2);
        assert_eq!(hamming(&[u64::MAX; 5], &[0; 5]), 320);
    }

    /// A tally of `dists` (the sentinel marks tombstones) over 8-bit
    /// signatures.
    fn tally(dists: &[u32]) -> DistHistogram {
        let mut h = DistHistogram::new(8);
        for (row, &d) in dists.iter().enumerate() {
            h.add(row, d);
        }
        h
    }

    #[test]
    fn cut_is_the_smallest_distance_covering_r() {
        let h = tally(&[4, 9, 4, 1, 9, 4, 4, 4, 4]);
        // One row at 1, six at 4: keeping 3 takes the 1 and two of the 4s.
        assert_eq!(h.cut(3), Cut { t: 4, ties: 2 });
        assert_eq!(h.cut(1), Cut { t: 1, ties: 1 });
        // r landing exactly on a bin's end keeps every row at it.
        assert_eq!(h.cut(7), Cut { t: 4, ties: 6 });
        assert_eq!(h.cut(8), Cut { t: 8, ties: 1 }, "the two 9s are past 8 bits");
    }

    #[test]
    fn cut_ignores_tombstones_and_keeps_every_row_past_the_live_count() {
        // Rows 1 and 2 are tombstones (at the sentinel): three live rows.
        let h = tally(&[2, 9, 9, 3, 2]);
        assert_eq!(h.sentinel(), 9);
        assert_eq!(h.cut(3), Cut { t: 3, ties: 1 });
        // r = 40 over three live rows: the cut opens to the widest distance,
        // so every live row survives and no tombstone is at or under it.
        assert_eq!(h.cut(40), Cut { t: 8, ties: 37 });
    }

    #[test]
    fn cut_of_zero_r_keeps_no_row() {
        assert_eq!(tally(&[0, 0, 5]).cut(0), Cut { t: 0, ties: 0 });
        assert_eq!(DistHistogram::new(8).cut(0).ties, 0);
    }
}
