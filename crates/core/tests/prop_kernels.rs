//! Differential tests of the inference kernels: every kernel instantiated
//! with the `Native` lanes (AVX2 where it is compiled in) must equal, bit for
//! bit, the same kernel on the portable `Scalar` lanes, and both must sit
//! within float noise of a plain f64 reference. On a build without AVX2 the
//! two instantiations are the same code and the references carry the suite.

use proptest::prelude::*;
use tabbin_core::infer::kernels::{
    attn_context, attn_scores, exp_row, gelu_row, gemm, hmax, hsum, layer_norm, HeadArgs, Lanes,
    Native, Rows, Scalar, LANES, MASK_NEG,
};

/// Lengths on both sides of every lane boundary the kernels have, and every
/// row count left over after whole 4-row `gemm` tiles (1, 2, 3), alone and
/// after a tile.
const LENGTHS: [usize; 11] = [1, 2, 3, 6, 7, 8, 9, 10, 47, 48, 96];

/// Deterministic floats in `[-scale, scale)` from a seed (xorshift64*).
fn floats(seed: u64, n: usize, scale: f32) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let u = (s.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) as f32 / (1u64 << 24) as f32;
            (2.0 * u - 1.0) * scale
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn max_abs_diff(a: &[f32], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (f64::from(*x) - y).abs()).fold(0.0, f64::max)
}

fn gelu_libm(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044715 * x * x * x)).tanh())
}

fn gelu_on<V: Lanes>(input: &[f32]) -> Vec<f32> {
    let mut row = input.to_vec();
    gelu_row::<V>(&mut row);
    row
}

fn exp_on<V: Lanes>(input: &[f32]) -> (Vec<f32>, f32) {
    let mut row = input.to_vec();
    let sum = exp_row::<V>(&mut row);
    (row, sum)
}

#[test]
fn gelu_pinned_inputs_match_twin_and_libm() {
    let mut input = Vec::new();
    for m in [0.0f32, 1e-8, 0.5, 6.0, 12.0, 40.0, 1e4] {
        input.extend([m, -m]);
    }
    // One ragged copy per tail length, so every value also sits in a tail.
    for len in 1..=input.len() {
        let got = gelu_on::<Native>(&input[..len]);
        assert_eq!(bits(&got), bits(&gelu_on::<Scalar>(&input[..len])), "len {len}");
        for (x, y) in input[..len].iter().zip(&got) {
            assert!((y - gelu_libm(*x)).abs() <= 5e-7, "gelu({x}) = {y}, libm {}", gelu_libm(*x));
        }
    }
}

#[test]
fn exp_row_with_a_lone_visible_key_is_one_hot() {
    for len in LENGTHS {
        for at in [0, len / 2, len - 1] {
            let mut row = vec![MASK_NEG; len];
            row[at] = 0.37 - at as f32;
            let (got, sum) = exp_on::<Native>(&row);
            let (twin, twin_sum) = exp_on::<Scalar>(&row);
            assert_eq!((bits(&got), sum.to_bits()), (bits(&twin), twin_sum.to_bits()));
            assert_eq!(sum, 1.0, "len {len} at {at}");
            for (j, e) in got.iter().enumerate() {
                assert_eq!(*e, if j == at { 1.0 } else { 0.0 }, "len {len} at {at} j {j}");
            }
        }
    }
}

fn layer_norm_on<V: Lanes>(x: &[f32], d: usize, gamma: &[f32], beta: &[f32]) -> Vec<f32> {
    let mut out = vec![f32::NAN; x.len()];
    layer_norm::<V>(x, d, gamma, beta, 1e-5, &mut out);
    out
}

/// `out = seed + x · w` in f64, the reference for [`gemm`].
fn gemm_reference(
    x: &[f32],
    w: &[f32],
    seed: Option<(&[f32], usize)>,
    [n, k, m]: [usize; 3],
) -> Vec<f64> {
    let mut out = vec![0.0f64; n * m];
    for i in 0..n {
        for j in 0..m {
            let mut acc = seed.map_or(0.0, |(s, stride)| f64::from(s[i * stride + j]));
            for p in 0..k {
                acc += f64::from(x[i * k + p]) * f64::from(w[p * m + j]);
            }
            out[i * m + j] = acc;
        }
    }
    out
}

fn gemm_on<V: Lanes>(
    x: &[f32],
    w: &[f32],
    seed: Option<(&[f32], usize)>,
    [n, k, m]: [usize; 3],
) -> Vec<f32> {
    let mut out = vec![f32::NAN; n * m];
    gemm::<V>(
        Rows { data: x, stride: k },
        Rows { data: w, stride: m },
        seed.map(|(data, stride)| Rows { data, stride }),
        &mut out,
        m,
        [n, k, m],
    );
    out
}

/// One attention head on `V` lanes over `[n, h]` q/k/v: the context `[n, h]`
/// (only the head's columns written) and the unnormalized scores `[n, np]`.
fn head_on<V: Lanes>(
    qkv: [&[f32]; 3],
    mask: &[f32],
    [n, h, off, dh]: [usize; 4],
) -> (Vec<f32>, Vec<f32>) {
    let np = n.next_multiple_of(LANES);
    let dhp = dh.next_multiple_of(LANES);
    let mut ctx = vec![0.0f32; n * h];
    let mut scores = vec![f32::NAN; n * np];
    let (mut kt, mut vh) = (vec![f32::NAN; dh * np], vec![f32::NAN; n * dhp]);
    let (mut inv, mut ctxh) = (vec![f32::NAN; n], vec![f32::NAN; n * dhp]);
    let mut args = HeadArgs {
        q: qkv[0],
        k: qkv[1],
        v: qkv[2],
        mask,
        kt: &mut kt,
        vh: &mut vh,
        scores: &mut scores,
        inv: &mut inv,
        ctxh: &mut ctxh,
        ctx: &mut ctx,
        m: n,
        n,
        h,
        off,
        dh,
    };
    attn_scores::<V>(&mut args);
    attn_context::<V>(&mut args);
    (ctx, scores)
}

/// The head on `V` lanes for the query rows `rows` (token indices) alone,
/// over all `n` keys and values: `q` and `mask` are gathered to those rows,
/// and the `[m, h]` context comes back (only the head's columns written).
fn head_rows_on<V: Lanes>(
    qkv: [&[f32]; 3],
    mask: &[f32],
    [n, h, off, dh]: [usize; 4],
    rows: &[usize],
) -> Vec<f32> {
    let (m, np, dhp) = (rows.len(), n.next_multiple_of(LANES), dh.next_multiple_of(LANES));
    let q: Vec<f32> = rows.iter().flat_map(|&i| &qkv[0][i * h..][..h]).copied().collect();
    let qmask: Vec<f32> = rows.iter().flat_map(|&i| &mask[i * np..][..np]).copied().collect();
    let mut ctx = vec![0.0f32; m * h];
    let mut scores = vec![f32::NAN; m * np];
    let (mut kt, mut vh) = (vec![f32::NAN; dh * np], vec![f32::NAN; n * dhp]);
    let (mut inv, mut ctxh) = (vec![f32::NAN; m], vec![f32::NAN; m * dhp]);
    let mut args = HeadArgs {
        q: &q,
        k: qkv[1],
        v: qkv[2],
        mask: &qmask,
        kt: &mut kt,
        vh: &mut vh,
        scores: &mut scores,
        inv: &mut inv,
        ctxh: &mut ctxh,
        ctx: &mut ctx,
        m,
        n,
        h,
        off,
        dh,
    };
    attn_scores::<V>(&mut args);
    attn_context::<V>(&mut args);
    ctx
}

/// The head in f64: softmax(mask + q·kᵀ) · v over the head's columns.
fn head_reference(qkv: [&[f32]; 3], mask: &[f32], [n, h, off, dh]: [usize; 4]) -> Vec<f64> {
    let np = n.next_multiple_of(LANES);
    let at = |m: &[f32], i: usize, d: usize| f64::from(m[i * h + off + d]);
    let mut ctx = vec![0.0f64; n * h];
    for i in 0..n {
        let s: Vec<f64> = (0..n)
            .map(|j| {
                let dot: f64 = (0..dh).map(|d| at(qkv[0], i, d) * at(qkv[1], j, d)).sum();
                f64::from(mask[i * np + j]) + dot
            })
            .collect();
        let max = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let e: Vec<f64> = s.iter().map(|v| (v - max).exp()).collect();
        let sum: f64 = e.iter().sum();
        for d in 0..dh {
            ctx[i * h + off + d] = (0..n).map(|j| e[j] / sum * at(qkv[2], j, d)).sum();
        }
    }
    ctx
}

/// A visibility-shaped mask `[n, np]`: grid addresses `cols` wide, every
/// `special_every`-th token global; `lonely` hides everything but the
/// diagonal, so each row's only visible key is itself.
fn grid_mask(n: usize, cols: usize, special_every: usize, lonely: bool) -> Vec<f32> {
    let np = n.next_multiple_of(LANES);
    let mut mask = vec![MASK_NEG; n * np];
    let special = |i: usize| !lonely && i.is_multiple_of(special_every);
    for i in 0..n {
        for j in 0..n {
            let same = i == j || (!lonely && (i / cols == j / cols || i % cols == j % cols));
            if same || special(i) || special(j) {
                mask[i * np + j] = 0.0;
            }
        }
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gelu_matches_twin_and_libm(seed in 0..u64::MAX, which in 0..LENGTHS.len()) {
        let input = floats(seed, LENGTHS[which], 12.0);
        let got = gelu_on::<Native>(&input);
        prop_assert_eq!(bits(&got), bits(&gelu_on::<Scalar>(&input)));
        for (x, y) in input.iter().zip(&got) {
            prop_assert!((y - gelu_libm(*x)).abs() <= 5e-7, "gelu({}) = {}", x, y);
        }
    }

    #[test]
    fn exp_row_matches_twin_and_libm(
        seed in 0..u64::MAX,
        which in 0..LENGTHS.len(),
        hide_every in 2..5usize,
    ) {
        let mut input = floats(seed, LENGTHS[which], 8.0);
        for v in input.iter_mut().skip(1).step_by(hide_every) {
            *v += MASK_NEG;
        }
        let (got, sum) = exp_on::<Native>(&input);
        let (twin, twin_sum) = exp_on::<Scalar>(&input);
        prop_assert_eq!((bits(&got), sum.to_bits()), (bits(&twin), twin_sum.to_bits()));
        let max = input.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let want: Vec<f64> = input.iter().map(|v| f64::from(v - max).exp()).collect();
        prop_assert!(max_abs_diff(&got, &want) <= 1e-6);
        prop_assert!((f64::from(sum) - want.iter().sum::<f64>()).abs() <= 1e-5);
    }

    #[test]
    fn lane_reductions_match_twin_and_f64(seed in 0..u64::MAX, scale in 0.1f32..100.0) {
        let v: [f32; LANES] = floats(seed, LANES, scale).try_into().unwrap();
        let (native, scalar) = (Native::load(&v), Scalar::load(&v));
        prop_assert_eq!(hsum(native).to_bits(), hsum(scalar).to_bits());
        prop_assert_eq!(hmax(native).to_bits(), hmax(scalar).to_bits());
        let want: f64 = v.iter().map(|x| f64::from(*x)).sum();
        prop_assert!((f64::from(hsum(native)) - want).abs() <= 1e-5 * f64::from(scale));
        prop_assert_eq!(hmax(native), v.iter().copied().fold(f32::NEG_INFINITY, f32::max));
    }

    #[test]
    fn blocked_linear_matches_twin_reference_and_single_rows(
        seed in 0..u64::MAX,
        which in 0..LENGTHS.len(),
        k in prop_oneof![Just(24usize), Just(32), Just(7)],
        m in prop_oneof![Just(24usize), Just(32), Just(96), Just(36), Just(5)],
        seeded in 0..3usize,
    ) {
        let n = LENGTHS[which];
        let x = floats(seed, n * k, 2.0);
        let w = floats(seed ^ 0x5bd1, k * m, 0.5);
        let s = floats(seed ^ 0x9e37, n * m, 1.0);
        // No seed, a bias row (stride 0), a full seed matrix.
        let seed_rows = [None, Some((&s[..m], 0)), Some((&s[..], m))][seeded];
        let got = gemm_on::<Native>(&x, &w, seed_rows, [n, k, m]);
        prop_assert_eq!(bits(&got), bits(&gemm_on::<Scalar>(&x, &w, seed_rows, [n, k, m])));
        let want = gemm_reference(&x, &w, seed_rows, [n, k, m]);
        prop_assert!(max_abs_diff(&got, &want) <= 1e-4);
        // A row's result does not depend on the tile that computed it.
        for i in [0, n / 2, n - 1] {
            let row_seed = seed_rows.map(|(d, stride)| (&d[i * stride..], stride));
            let alone = gemm_on::<Native>(&x[i * k..][..k], &w, row_seed, [1, k, m]);
            prop_assert_eq!(bits(&alone), bits(&got[i * m..][..m]));
        }
    }

    #[test]
    fn layer_norm_matches_twin_and_reference(
        seed in 0..u64::MAX,
        which in 0..LENGTHS.len(),
        d in prop_oneof![Just(24usize), Just(48), Just(12), Just(36)],
    ) {
        let n = LENGTHS[which];
        let x = floats(seed, n * d, 3.0);
        let gamma = floats(seed ^ 1, d, 1.5);
        let beta = floats(seed ^ 2, d, 0.5);
        let got = layer_norm_on::<Native>(&x, d, &gamma, &beta);
        prop_assert_eq!(bits(&got), bits(&layer_norm_on::<Scalar>(&x, d, &gamma, &beta)));
        let mut want = Vec::with_capacity(n * d);
        for row in x.chunks(d) {
            let mu = row.iter().map(|v| f64::from(*v)).sum::<f64>() / d as f64;
            let var = row.iter().map(|v| (f64::from(*v) - mu).powi(2)).sum::<f64>() / d as f64;
            let istd = 1.0 / (var + 1e-5).sqrt();
            want.extend((0..d).map(|j| {
                (f64::from(row[j]) - mu) * istd * f64::from(gamma[j]) + f64::from(beta[j])
            }));
        }
        prop_assert!(max_abs_diff(&got, &want) <= 1e-5);
    }

    #[test]
    fn attention_head_matches_twin_and_reference(
        seed in 0..u64::MAX,
        which in 0..LENGTHS.len(),
        geometry in prop_oneof![Just((24usize, 12usize)), Just((48, 12)), Just((24, 8)), Just((20, 5))],
        head in 0..2usize,
        cols in 1..7usize,
        lonely in 0..4usize,
    ) {
        let n = LENGTHS[which];
        let (h, dh) = geometry;
        let dims = [n, h, head * dh, dh];
        let q = floats(seed, n * h, 1.0);
        let k = floats(seed ^ 0xa5a5, n * h, 1.0);
        let v = floats(seed ^ 0x5a5a, n * h, 2.0);
        let mask = grid_mask(n, cols, 5, lonely == 0);
        let (ctx, scores) = head_on::<Native>([&q, &k, &v], &mask, dims);
        let (twin_ctx, twin_scores) = head_on::<Scalar>([&q, &k, &v], &mask, dims);
        prop_assert_eq!(bits(&ctx), bits(&twin_ctx));
        prop_assert_eq!(bits(&scores), bits(&twin_scores));
        prop_assert!(max_abs_diff(&ctx, &head_reference([&q, &k, &v], &mask, dims)) <= 1e-5);
        if lonely == 0 {
            // Each row sees only itself: its context is its own value row.
            for i in 0..n {
                let own = &v[i * h + head * dh..][..dh];
                prop_assert_eq!(bits(&ctx[i * h + head * dh..][..dh]), bits(own));
            }
        }
    }

    #[test]
    fn attention_over_fewer_query_rows_is_those_rows_of_the_full_head(
        seed in 0..u64::MAX,
        which in 0..LENGTHS.len(),
        geometry in prop_oneof![Just((24usize, 12usize)), Just((48, 12)), Just((20, 5))],
        head in 0..2usize,
        keep_every in 1..5usize,
        phase in 0..4usize,
    ) {
        let n = LENGTHS[which];
        let (h, dh) = geometry;
        let dims = [n, h, head * dh, dh];
        let q = floats(seed, n * h, 1.0);
        let k = floats(seed ^ 0xa5a5, n * h, 1.0);
        let v = floats(seed ^ 0x5a5a, n * h, 2.0);
        let mask = grid_mask(n, 3, 4, false);
        // Ascending query rows, as the pool-aware block gathers them; never
        // empty.
        let mut rows: Vec<usize> = (0..n).filter(|i| (i + phase) % keep_every == 0).collect();
        if rows.is_empty() {
            rows.push(n - 1);
        }
        let (full, _) = head_on::<Native>([&q, &k, &v], &mask, dims);
        let got = head_rows_on::<Native>([&q, &k, &v], &mask, dims, &rows);
        prop_assert_eq!(bits(&got), bits(&head_rows_on::<Scalar>([&q, &k, &v], &mask, dims, &rows)));
        for (r, &i) in rows.iter().enumerate() {
            let cols = head * dh..head * dh + dh;
            prop_assert_eq!(bits(&got[r * h..][cols.clone()]), bits(&full[i * h..][cols]));
        }
    }
}
