//! The training tape's matrix products, written once over [`Lanes`].
//!
//! Three products cover every matrix product of the tape's forward and
//! backward passes, and each reads both operands in place:
//!
//! | product          | forward of     | backward                                   |
//! |------------------|----------------|--------------------------------------------|
//! | [`Product::AB`]  | `Matmul`       | `dA = dC·B` of `MatmulTransB`              |
//! | [`Product::ABt`] | `MatmulTransB` | `dA = dC·Wᵀ` of `Matmul`                   |
//! | [`Product::AtB`] | —              | `dW = xᵀ·dC` of `Matmul` and `MatmulTransB` |
//!
//! **Bit-identity contract.** Every output element is the value the scalar
//! `ikj` loop computes: start from `0.0` and add `a(i, p) · b(p, j)` for
//! ascending `p`, a separate multiply and add (never a fused one), skipping
//! every term whose `a(i, p)` is exactly zero of either sign. The lanes run
//! across output columns, never along `p`, so no sum is reassociated, and a
//! row's result does not depend on which tile, panel or thread computed it.
//!
//! A sum that starts at `+0.0` is never `-0.0`, so adding a zero term leaves
//! it as it was: the skip is only observable where a zero `a(i, p)` meets an
//! infinite or NaN `b(p, j)` (`0 · ∞` is NaN). The kernels therefore add
//! every term when the left factor has no zero or the right factor is all
//! finite, and otherwise blend zero-factor terms to `+0.0` lane by lane;
//! both are the skip, bit for bit.
//!
//! **Shape of the kernel.** Output columns go in blocks of up to three
//! 8-lane vectors, rows in register tiles of four (one at a time
//! for the last few). `A·B` and `Aᵀ·B` read whole vectors of `B`'s rows
//! where they exist. `Bᵀ`'s columns, and a block narrower than its vectors
//! (the ragged last columns of any product), are packed instead: up to
//! [`PANEL_DEPTH`] values of `p` at a time into a zero-padded panel, the
//! accumulators going through the output between panels (an exact store and
//! reload). Nothing is transposed and there is no scalar remainder path.
//!
//! The module is public for the differential suite (`tests/prop_tape.rs`,
//! `Native` against `Scalar` and against the scalar oracle); it is not a
//! stable interface.

use crate::lanes::{Lanes, LANES};
use std::array::from_fn;
use std::ops::Range;

/// Which product of two row-major operands [`product_rows`] computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Product {
    /// `out[m, n] = a[m, k] · b[k, n]`.
    AB,
    /// `out[m, n] = a[m, k] · b[n, k]ᵀ`.
    ABt,
    /// `out[m, n] = a[k, m]ᵀ · b[k, n]`.
    AtB,
}

/// Rows per register tile: with up to three column vectors that is twelve
/// independent multiply-add chains.
const TILE_ROWS: usize = 4;

/// Values of `p` per packed panel.
pub const PANEL_DEPTH: usize = 128;

/// Column vectors per block.
const MAX_VECTORS: usize = 3;

/// Rows `row0 .. row0 + out.len() / n` of `product(a, b)` into `out`, which
/// is overwritten; `[m, k, n]` are the dimensions of the whole product (see
/// [`Product`]). Splitting the rows of one product across calls — or
/// threads — cannot move a bit.
pub fn product_rows<V: Lanes>(
    product: Product,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    row0: usize,
    [m, k, n]: [usize; 3],
) {
    if n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let at = Operands { a, b, m, k, n, row0, rows: out.len() / n };
    let plain = !any_zero(a) || all_finite(b);
    let vectors = n.div_ceil(LANES);
    let packs = product == Product::ABt || n % LANES != 0;
    let mut panel =
        if packs { vec![0.0; k.min(PANEL_DEPTH) * MAX_VECTORS * LANES] } else { Vec::new() };
    let mut v = 0;
    while v < vectors {
        let left = vectors - v;
        // Four vectors go as two and two, not three and a lone one.
        let c = if left == 4 { 2 } else { left.min(MAX_VECTORS) };
        let j = v * LANES;
        let width = (n - j).min(c * LANES);
        match (c, plain) {
            (3, true) => block::<V, 3, false>(product, &at, out, j, width, &mut panel),
            (2, true) => block::<V, 2, false>(product, &at, out, j, width, &mut panel),
            (_, true) => block::<V, 1, false>(product, &at, out, j, width, &mut panel),
            (3, false) => block::<V, 3, true>(product, &at, out, j, width, &mut panel),
            (2, false) => block::<V, 2, true>(product, &at, out, j, width, &mut panel),
            (_, false) => block::<V, 1, true>(product, &at, out, j, width, &mut panel),
        }
        v += c;
    }
}

/// Whether any of `x` is `±0.0`; folded without an early exit per chunk,
/// so the test vectorizes.
fn any_zero(x: &[f32]) -> bool {
    x.chunks(256).any(|c| c.iter().fold(false, |z, &v| z | (v == 0.0)))
}

/// Whether every one of `x` is finite (see [`any_zero`]).
fn all_finite(x: &[f32]) -> bool {
    x.chunks(256).all(|c| c.iter().fold(true, |ok, v| ok & v.is_finite()))
}

/// The operands of one call of [`product_rows`].
struct Operands<'a> {
    a: &'a [f32],
    b: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
    /// First output row of the call.
    row0: usize,
    /// Output rows of the call.
    rows: usize,
}

/// A row-major view of the right factor: row `q` (the `q`-th value of `p`
/// of the pass) starts at `data[q * stride]`.
#[derive(Clone, Copy)]
struct Panel<'a> {
    data: &'a [f32],
    stride: usize,
}

/// Columns `j .. j + width` of every row of the call, `C` vectors wide;
/// `MASK` blends zero-factor terms to `+0.0` (for a left factor with zeros
/// and a right factor with non-finite values).
fn block<V: Lanes, const C: usize, const MASK: bool>(
    product: Product,
    at: &Operands<'_>,
    out: &mut [f32],
    j: usize,
    width: usize,
    panel: &mut [f32],
) {
    let (b, k, n) = (at.b, at.k, at.n);
    if product != Product::ABt && width == C * LANES {
        let direct = Panel { data: &b[j..], stride: n };
        return rows::<V, C, MASK>(product, at, direct, 0..k, out, j, width);
    }
    let pw = C * LANES;
    for p0 in (0..k).step_by(PANEL_DEPTH) {
        let depth = PANEL_DEPTH.min(k - p0);
        let packed = &mut panel[..depth * pw];
        if product == Product::ABt {
            // Column `c` of the panel is row `j + c` of `b`, read along `p`:
            // 8×8 blocks go through a register transpose, the ragged rest
            // one value at a time. A short last group repeats its last row;
            // those lanes are padding, cleared below.
            for c0 in (0..width).step_by(LANES) {
                let last = LANES.min(width - c0) - 1;
                let src: [&[f32]; LANES] =
                    from_fn(|l| &b[(j + c0 + l.min(last)) * k + p0..][..depth]);
                let whole = depth - depth % LANES;
                for q in (0..whole).step_by(LANES) {
                    let block =
                        from_fn(|l| V::load(src[l][q..q + LANES].try_into().expect("lanes")));
                    for (i, v) in V::transpose(block).into_iter().enumerate() {
                        v.store(
                            (&mut packed[(q + i) * pw + c0..][..LANES]).try_into().expect("lanes"),
                        );
                    }
                }
                for q in whole..depth {
                    for (l, s) in src.iter().enumerate() {
                        packed[q * pw + c0 + l] = s[q];
                    }
                }
            }
        } else {
            for (q, prow) in packed.chunks_exact_mut(pw).enumerate() {
                prow[..width].copy_from_slice(&b[(p0 + q) * n + j..][..width]);
            }
        }
        if width < pw {
            for prow in packed.chunks_exact_mut(pw) {
                prow[width..].fill(0.0);
            }
        }
        let view = Panel { data: packed, stride: pw };
        rows::<V, C, MASK>(product, at, view, p0..p0 + depth, out, j, width);
    }
}

/// Every row of the call over one panel: tiles of [`TILE_ROWS`], then the
/// rest one row at a time. A panel past the first (`ps.start > 0`) resumes
/// from the partial sums in `out`.
fn rows<V: Lanes, const C: usize, const MASK: bool>(
    product: Product,
    at: &Operands<'_>,
    w: Panel<'_>,
    ps: Range<usize>,
    out: &mut [f32],
    j: usize,
    width: usize,
) {
    let mut r = 0;
    let transposed = product == Product::AtB;
    while r + TILE_ROWS <= at.rows {
        if transposed {
            tile::<V, TILE_ROWS, C, true, MASK>(at, w, ps.clone(), out, r, j, width);
        } else {
            tile::<V, TILE_ROWS, C, false, MASK>(at, w, ps.clone(), out, r, j, width);
        }
        r += TILE_ROWS;
    }
    while r < at.rows {
        if transposed {
            tile::<V, 1, C, true, MASK>(at, w, ps.clone(), out, r, j, width);
        } else {
            tile::<V, 1, C, false, MASK>(at, w, ps.clone(), out, r, j, width);
        }
        r += 1;
    }
}

/// One `R × 8C` register tile at local row `r`, columns `j .. j + width`,
/// over `p ∈ ps`. `AT` reads the left factor transposed (`a[p][i]`).
#[inline(always)]
fn tile<V: Lanes, const R: usize, const C: usize, const AT: bool, const MASK: bool>(
    at: &Operands<'_>,
    w: Panel<'_>,
    ps: Range<usize>,
    out: &mut [f32],
    r: usize,
    j: usize,
    width: usize,
) {
    let (a, m, k, n) = (at.a, at.m, at.k, at.n);
    let i = at.row0 + r;
    let (p0, depth) = (ps.start, ps.len());
    let zero = V::splat(0.0);
    let mut acc = [[zero; C]; R];
    if p0 > 0 {
        for (rr, row) in acc.iter_mut().enumerate() {
            *row = load::<V, C>(&out[(r + rr) * n + j..][..width]);
        }
    }
    let arows: [&[f32]; R] = from_fn(|rr| if AT { &[] } else { &a[(i + rr) * k + p0..][..depth] });
    for q in 0..depth {
        let wrow = &w.data[q * w.stride..][..C * LANES];
        let wv: [V; C] =
            from_fn(|c| V::load(wrow[c * LANES..][..LANES].try_into().expect("lanes")));
        let av: [f32; R] = if AT {
            a[(p0 + q) * m + i..][..R].try_into().expect("tile rows")
        } else {
            from_fn(|rr| arows[rr][q])
        };
        for (row, &x) in acc.iter_mut().zip(&av) {
            let xv = V::splat(x);
            for (s, &wc) in row.iter_mut().zip(&wv) {
                let term = xv.mul(wc);
                *s = s.add(if MASK { xv.ne_then(zero, term) } else { term });
            }
        }
    }
    for (rr, row) in acc.iter().enumerate() {
        store::<V, C>(row, &mut out[(r + rr) * n + j..][..width]);
    }
}

/// `src` (at most `C` vectors of floats) as `C` vectors, zero-padded.
#[inline(always)]
fn load<V: Lanes, const C: usize>(src: &[f32]) -> [V; C] {
    let mut buf = [[0.0f32; LANES]; C];
    buf.as_flattened_mut()[..src.len()].copy_from_slice(src);
    buf.map(|x| V::load(&x))
}

/// The first `dst.len()` lanes of `row` into `dst`.
#[inline(always)]
fn store<V: Lanes, const C: usize>(row: &[V; C], dst: &mut [f32]) {
    if dst.len() == C * LANES {
        for (v, chunk) in row.iter().zip(dst.as_chunks_mut::<LANES>().0) {
            v.store(chunk);
        }
    } else {
        let mut buf = [[0.0f32; LANES]; C];
        for (v, chunk) in row.iter().zip(&mut buf) {
            v.store(chunk);
        }
        dst.copy_from_slice(&buf.as_flattened()[..dst.len()]);
    }
}
