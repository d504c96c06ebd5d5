//! The SIMD kernels of the fused forward pass, written once over an 8-lane
//! vector abstraction.
//!
//! Every kernel is generic over [`Lanes`], the trait `tabbin-tensor`'s
//! [`tabbin_tensor::lanes`] defines for the training tape and this pass
//! alike (re-exported here with its two implementations): [`Scalar`]
//! (`[f32; 8]`, plain Rust) and, where AVX2+FMA are statically enabled, an
//! `__m256` wrapper. [`Native`] names the one the forward pass runs. Each
//! lane operation is a single correctly-rounded IEEE operation in both, and
//! horizontal reductions go through one fixed tree, so a kernel
//! instantiated with `Scalar` is the lane-for-lane twin of the same kernel
//! instantiated with `Native`: `tests/prop_kernels.rs` pins them bit for
//! bit. This module has no `unsafe`; the trait's `__m256` implementation is
//! the only one in the workspace.
//!
//! The module is public for that test suite and for the stage bench; it is
//! not a stable interface.

use tabbin_tensor::lanes::fused;
pub use tabbin_tensor::lanes::{hmax, hsum, Lanes, Native, Scalar, LANES};

/// Additive mask value for invisible pairs (matches `nn::additive_mask`) and
/// for the padding that rounds an attention row up to a multiple of
/// [`LANES`]; `exp` of it is exactly 0.
pub const MASK_NEG: f32 = -1e9;

/// Below this, `expf` underflows to 0; at it, `2^z` is still a normal float.
const EXP_LO: f32 = -87.0;
/// Above this, `expf` overflows; GELU clamps its argument here.
const EXP_HI: f32 = 87.0;

/// Applies `f` to `row` eight lanes at a time, in place; a ragged tail is
/// run through a copy padded with `pad`, so there is no scalar remainder
/// path.
#[inline(always)]
fn map_lanes<V: Lanes>(row: &mut [f32], pad: f32, mut f: impl FnMut(V) -> V) {
    let (chunks, tail) = row.as_chunks_mut::<LANES>();
    for c in chunks {
        f(V::load(c)).store(c);
    }
    if !tail.is_empty() {
        let mut buf = [pad; LANES];
        buf[..tail.len()].copy_from_slice(tail);
        f(V::load(&buf)).store(&mut buf);
        tail.copy_from_slice(&buf[..tail.len()]);
    }
}

/// Branch-free polynomial `exp` (Cephes-style `expf`, ≤ 2 ulp for
/// `x ≤ EXP_HI`). Lanes at or below the underflow cutoff — and NaN lanes —
/// return exactly 0.0, the value libm produces for masked (-1e9) scores.
#[inline(always)]
#[allow(clippy::excessive_precision)] // the Cephes ln2 split is exact in f32
fn exp_lanes<V: Lanes>(x: V) -> V {
    const C1: f32 = 0.693_359_375; // ln 2, split high…
    const C2: f32 = -2.121_944_4e-4; // …and low for exact range reduction
    let lo = V::splat(EXP_LO);
    let xc = x.max(lo);
    let z = xc.mul_add(V::splat(std::f32::consts::LOG2_E), V::splat(0.5)).floor();
    let xr = z.mul_add(V::splat(-C2), z.mul_add(V::splat(-C1), xc));
    let mut p = V::splat(1.987_569_2e-4);
    for c in [1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_5e-1, 5.000_000_3e-1] {
        p = p.mul_add(xr, V::splat(c));
    }
    let poly = p.mul_add(xr.mul(xr), xr).add(V::splat(1.0));
    x.gt_then(lo, poly.mul(z.exp2i()))
}

/// In place `row[j] = exp(row[j] - max(row))`; returns the sum of the
/// results, by which the caller normalizes. Any length ≥ 1.
pub fn exp_row<V: Lanes>(row: &mut [f32]) -> f32 {
    let (chunks, tail) = row.as_chunks::<LANES>();
    let mut vmax = V::splat(f32::NEG_INFINITY);
    for c in chunks {
        vmax = V::load(c).max(vmax);
    }
    let max = tail.iter().copied().fold(hmax(vmax), f32::max);
    let vm = V::splat(max);
    let mut vsum = V::splat(0.0);
    map_lanes::<V>(row, f32::NEG_INFINITY, |v| {
        let e = exp_lanes(v.sub(vm));
        vsum = vsum.add(e);
        e
    });
    hsum(vsum)
}

/// In place GELU (tanh approximation, as in BERT and on the tape), in the
/// form `x / (1 + exp(-2u))`, `u = c·(x + 0.044715x³)`, which is
/// `0.5x(1 + tanh u)` without the `tanh`. Agrees with the libm form to
/// 5e-7 absolute.
pub fn gelu_row<V: Lanes>(row: &mut [f32]) {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    map_lanes::<V>(row, 0.0, |x| {
        let inner = x.mul(x).mul(x).mul_add(V::splat(0.044715), x);
        let arg = inner.mul(V::splat(-2.0 * C)).min(V::splat(EXP_HI));
        x.div(V::splat(1.0).add(exp_lanes(arg)))
    });
}

/// A row-major matrix view: row `i` starts at `data[i * stride]`. A stride
/// of 0 repeats one row (a bias).
#[derive(Clone, Copy)]
pub struct Rows<'a> {
    /// Backing floats, starting at the view's first element.
    pub data: &'a [f32],
    /// Distance between consecutive rows.
    pub stride: usize,
}

/// Rows per register tile of [`gemm`]: with ≤ 3 column vectors that is 12
/// independent FMA chains in 12 accumulators, which leaves room for the
/// three `w` vectors and the broadcast in 16 registers.
const TILE_ROWS: usize = 4;

/// `out[i, j] = seed[i, j] + Σ_p x[i, p] · w[p, j]` for `i < n`, `j < m`,
/// summed in order of `p` (so a row's result does not depend on which tile
/// computed it). `seed: None` starts from zero. Register-tiled over
/// `TILE_ROWS` (or, for the last rows, two or one) rows × up to three
/// 8-wide column vectors; columns past the last whole vector take a scalar
/// path.
///
/// One kernel serves the linears (`seed` = bias, stride 0), the attention
/// scores (`x` = Q head, `w` = Kᵀ, `seed` = visibility mask) and the
/// attention context (`x` = scores, `w` = V head).
pub fn gemm<V: Lanes>(
    x: Rows<'_>,
    w: Rows<'_>,
    seed: Option<Rows<'_>>,
    out: &mut [f32],
    out_stride: usize,
    [n, k, m]: [usize; 3],
) {
    let vectors = m / LANES;
    // Whole 4-row tiles, then the rows left over: three take a 4-row tile
    // overlapping its predecessor, two or one a narrower tile — the short,
    // odd row counts of short sequences and of a last block's pooled rows.
    let mut i0 = 0;
    while i0 < n {
        let (i, rows) = match n - i0 {
            left if left >= TILE_ROWS => (i0, TILE_ROWS),
            3 if n >= TILE_ROWS => (n - TILE_ROWS, TILE_ROWS),
            1 => (i0, 1),
            _ => (i0, 2),
        };
        let mut j = 0;
        while j < vectors {
            let left = vectors - j;
            let cols = if left == 4 { 2 } else { left.min(3) };
            let at = j * LANES;
            match (rows, cols) {
                (TILE_ROWS, 3) => tile::<V, TILE_ROWS, 3>(x, w, seed, out, out_stride, [i, k, at]),
                (TILE_ROWS, 2) => tile::<V, TILE_ROWS, 2>(x, w, seed, out, out_stride, [i, k, at]),
                (TILE_ROWS, _) => tile::<V, TILE_ROWS, 1>(x, w, seed, out, out_stride, [i, k, at]),
                (2, 3) => tile::<V, 2, 3>(x, w, seed, out, out_stride, [i, k, at]),
                (2, 2) => tile::<V, 2, 2>(x, w, seed, out, out_stride, [i, k, at]),
                (2, _) => tile::<V, 2, 1>(x, w, seed, out, out_stride, [i, k, at]),
                (_, 3) => tile::<V, 1, 3>(x, w, seed, out, out_stride, [i, k, at]),
                (_, 2) => tile::<V, 1, 2>(x, w, seed, out, out_stride, [i, k, at]),
                (_, _) => tile::<V, 1, 1>(x, w, seed, out, out_stride, [i, k, at]),
            }
            j += cols;
        }
        i0 = i + rows;
    }
    for j in vectors * LANES..m {
        for i in 0..n {
            let xrow = &x.data[i * x.stride..][..k];
            let mut acc = seed.map_or(0.0, |s| s.data[i * s.stride + j]);
            for (p, &xv) in xrow.iter().enumerate() {
                acc = fused(xv, w.data[p * w.stride + j], acc);
            }
            out[i * out_stride + j] = acc;
        }
    }
}

/// One `R × 8C` register tile of [`gemm`] at row `i`, column `j`.
#[inline(always)]
fn tile<V: Lanes, const R: usize, const C: usize>(
    x: Rows<'_>,
    w: Rows<'_>,
    seed: Option<Rows<'_>>,
    out: &mut [f32],
    out_stride: usize,
    [i, k, j]: [usize; 3],
) {
    let chunk = |s: &[f32], c: usize| -> V {
        V::load(s[c * LANES..][..LANES].try_into().expect("eight lanes"))
    };
    let mut acc = [[V::splat(0.0); C]; R];
    if let Some(seed) = seed {
        for (r, arow) in acc.iter_mut().enumerate() {
            let srow = &seed.data[(i + r) * seed.stride + j..][..C * LANES];
            for (c, a) in arow.iter_mut().enumerate() {
                *a = chunk(srow, c);
            }
        }
    }
    let xrows: [&[f32]; R] = std::array::from_fn(|r| &x.data[(i + r) * x.stride..][..k]);
    // `p` walks a row of `w` and a column of all `R` rows of `x` at once.
    #[allow(clippy::needless_range_loop)]
    for p in 0..k {
        let wrow = &w.data[p * w.stride + j..][..C * LANES];
        let wv: [V; C] = std::array::from_fn(|c| chunk(wrow, c));
        for (r, arow) in acc.iter_mut().enumerate() {
            let xv = V::splat(xrows[r][p]);
            for (c, a) in arow.iter_mut().enumerate() {
                *a = xv.mul_add(wv[c], *a);
            }
        }
    }
    for (r, arow) in acc.iter().enumerate() {
        let orow = &mut out[(i + r) * out_stride + j..][..C * LANES];
        for (c, a) in arow.iter().enumerate() {
            a.store((&mut orow[c * LANES..][..LANES]).try_into().expect("eight lanes"));
        }
    }
}

/// Row-wise layer normalization of `x[n, d]` into `out[n, d]`, same formula
/// as the tape op, with lane-wise mean and variance sums.
pub fn layer_norm<V: Lanes>(
    x: &[f32],
    d: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
) {
    let (gv, gt) = gamma[..d].as_chunks::<LANES>();
    let (bv, bt) = beta[..d].as_chunks::<LANES>();
    for (row, orow) in x.chunks_exact(d).zip(out.chunks_exact_mut(d)) {
        let (rv, rt) = row.as_chunks::<LANES>();
        let mut vsum = V::splat(0.0);
        for c in rv {
            vsum = vsum.add(V::load(c));
        }
        let mu = (hsum(vsum) + rt.iter().sum::<f32>()) / d as f32;
        let vmu = V::splat(mu);
        let mut vsq = V::splat(0.0);
        for c in rv {
            let dv = V::load(c).sub(vmu);
            vsq = dv.mul_add(dv, vsq);
        }
        let var = (hsum(vsq) + rt.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>()) / d as f32;
        let istd = 1.0 / (var + eps).sqrt();
        let vistd = V::splat(istd);
        let (ov, ot) = orow.as_chunks_mut::<LANES>();
        for (c, o) in ov.iter_mut().enumerate() {
            let xhat = V::load(&rv[c]).sub(vmu).mul(vistd);
            xhat.mul_add(V::load(&gv[c]), V::load(&bv[c])).store(o);
        }
        for (t, o) in ot.iter_mut().enumerate() {
            *o = (rt[t] - mu) * istd * gt[t] + bt[t];
        }
    }
}

/// Borrowed views and scratch one attention head operates on. `m` query
/// rows attend over `n` keys, model width `h`, the head's columns are
/// `off..off + dh`; `np` is `n` rounded up to a multiple of [`LANES`] and
/// `dhp` is `dh` likewise. `m == n` is plain self-attention; with `m < n`
/// each output row is bit for bit the row the `m == n` call computes for
/// the same query and mask row.
pub struct HeadArgs<'s> {
    /// Scaled queries `[m, h]`.
    pub q: &'s [f32],
    /// Keys `[n, h]`.
    pub k: &'s [f32],
    /// Values `[n, h]`.
    pub v: &'s [f32],
    /// Additive mask `[m, np]`: 0 visible, [`MASK_NEG`] hidden and padding.
    pub mask: &'s [f32],
    /// Scratch `[dh, np]`: the head's keys, transposed.
    pub kt: &'s mut [f32],
    /// Scratch `[n, dhp]`: the head's values, zero-padded.
    pub vh: &'s mut [f32],
    /// Scratch `[m, np]`.
    pub scores: &'s mut [f32],
    /// Scratch `[m]`: the reciprocal of each row's softmax sum.
    pub inv: &'s mut [f32],
    /// Scratch `[m, dhp]`.
    pub ctxh: &'s mut [f32],
    /// Output `[m, h]`; only the head's columns are written.
    pub ctx: &'s mut [f32],
    /// Query rows.
    pub m: usize,
    /// Keys: the sequence length.
    pub n: usize,
    /// Model width.
    pub h: usize,
    /// First column of the head.
    pub off: usize,
    /// Head width.
    pub dh: usize,
}

/// First phase of one attention head: `scores = exp(mask + Q_h·K_hᵀ - max)`
/// row by row, unnormalized, with `inv[i] = 1 / Σ_j scores[i, j]`. The mask
/// seeds the accumulators, hidden pairs and padding sit at ~-1e9 and
/// underflow to exactly 0, as on the tape path.
pub fn attn_scores<V: Lanes>(a: &mut HeadArgs<'_>) {
    let (m, n, h, off, dh) = (a.m, a.n, a.h, a.off, a.dh);
    let np = n.next_multiple_of(LANES);
    for p in 0..dh {
        let krow = &mut a.kt[p * np..(p + 1) * np];
        for (j, kv) in krow[..n].iter_mut().enumerate() {
            *kv = a.k[j * h + off + p];
        }
        krow[n..].fill(0.0);
    }
    gemm::<V>(
        Rows { data: &a.q[off..], stride: h },
        Rows { data: a.kt, stride: np },
        Some(Rows { data: a.mask, stride: np }),
        a.scores,
        np,
        [m, dh, np],
    );
    for (srow, inv) in a.scores.chunks_exact_mut(np).zip(a.inv.iter_mut()).take(m) {
        *inv = 1.0 / exp_row::<V>(srow);
    }
}

/// Second phase: `ctx_h = diag(inv) · scores · V_h`, written into the
/// head's columns of `ctx`.
pub fn attn_context<V: Lanes>(a: &mut HeadArgs<'_>) {
    let (m, n, h, off, dh) = (a.m, a.n, a.h, a.off, a.dh);
    let np = n.next_multiple_of(LANES);
    let dhp = dh.next_multiple_of(LANES);
    for (j, vrow) in a.vh.chunks_exact_mut(dhp).enumerate().take(n) {
        vrow[..dh].copy_from_slice(&a.v[j * h + off..][..dh]);
        vrow[dh..].fill(0.0);
    }
    gemm::<V>(
        Rows { data: a.scores, stride: np },
        Rows { data: a.vh, stride: dhp },
        None,
        a.ctxh,
        dhp,
        [m, n, dhp],
    );
    for (i, crow) in a.ctxh.chunks_exact(dhp).enumerate().take(m) {
        let inv = a.inv[i];
        for (o, &c) in a.ctx[i * h + off..][..dh].iter_mut().zip(crow) {
            *o = c * inv;
        }
    }
}
