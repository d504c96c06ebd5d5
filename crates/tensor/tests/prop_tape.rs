//! Differential tests of the training tape against the scalar code it
//! replaced.
//!
//! * **Oracle.** Every rewritten op, forward and backward, equals bit for
//!   bit the scalar implementation kept below in [`oracle`]: the `ikj`
//!   `matmul_rows`, transpose-then-multiply gradients, clone-then-add
//!   gradient accumulation and the `at()` loops. Shapes are random —
//!   `1×n`, `n×1`, widths off the 8-lane grid, inner dimensions past a
//!   packed panel — and operands carry exact `0.0` and `-0.0` entries.
//! * **Native vs Scalar.** Each product kernel, and the lane operations only
//!   it uses, agree across the two [`Lanes`] implementations, including on
//!   operands with infinities and NaNs.
//! * **Trained weights.** Pre-training a small family of all five corpus
//!   profiles gives parameters whose bits hash to a constant computed with
//!   the scalar tape, so any numeric drift of the tape fails here.
//!
//! A comparison treats every NaN as one value (its payload depends on the
//! operand order the compiler picks for a commutative operation) and every
//! other float by its bits.

use proptest::prelude::*;
use tabbin_tensor::kernels::{product_rows, Product, PANEL_DEPTH};
use tabbin_tensor::lanes::{Lanes, Native, Scalar, LANES};
use tabbin_tensor::{Graph, NodeId, ParamStore, Tensor};

/// The tape's ops as the scalar code computed them, kept as the reference
/// (index loops included).
#[allow(clippy::needless_range_loop)]
mod oracle {
    use tabbin_tensor::Tensor;

    /// Rows `[row0, row0 + out.len()/n)` of `a x b` into `out`.
    pub fn matmul_rows(a: &[f32], b: &[f32], out: &mut [f32], row0: usize, k: usize, n: usize) {
        let rows = out.len() / n;
        for li in 0..rows {
            let i = row0 + li;
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[li * n..(li + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
    }

    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        assert_eq!(b.rows(), k);
        let mut out = vec![0.0f32; m * n];
        if n > 0 {
            matmul_rows(a.data(), b.data(), &mut out, 0, k, n);
        }
        Tensor::from_vec(out, &[m, n])
    }

    pub fn transpose(t: &Tensor) -> Tensor {
        let (m, n) = (t.rows(), t.cols());
        let mut data = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = t.data()[i * n + j];
            }
        }
        Tensor::from_vec(data, &[n, m])
    }

    /// Gradient accumulation: the first gradient is cloned, later ones added.
    pub fn accumulate(slot: &mut Option<Tensor>, g: &Tensor) {
        match slot {
            Some(existing) => existing.add_assign(g),
            None => *slot = Some(g.clone()),
        }
    }

    pub fn add_row(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = a.clone();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                *out.at_mut(i, j) += b.at(0, j);
            }
        }
        out
    }

    /// The bias gradient of `AddRow` and the gradient of `RepeatRows`.
    pub fn sum_rows(g: &Tensor) -> Tensor {
        let mut bg = Tensor::zeros(&[1, g.cols()]);
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                *bg.at_mut(0, j) += g.at(i, j);
            }
        }
        bg
    }

    pub struct LayerNorm {
        pub out: Tensor,
        pub xhat: Tensor,
        pub inv_std: Vec<f32>,
    }

    pub fn layer_norm(x: &Tensor, gv: &Tensor, bv: &Tensor, eps: f32) -> LayerNorm {
        let (n, d) = (x.rows(), x.cols());
        let mut xhat = Tensor::zeros(&[n, d]);
        let mut inv_std = Vec::with_capacity(n);
        for i in 0..n {
            let row = x.row(i);
            let mu = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + eps).sqrt();
            inv_std.push(istd);
            for (j, &rv) in row.iter().enumerate() {
                *xhat.at_mut(i, j) = (rv - mu) * istd;
            }
        }
        let mut out = Tensor::zeros(&[n, d]);
        for i in 0..n {
            for j in 0..d {
                *out.at_mut(i, j) = xhat.at(i, j) * gv.at(0, j) + bv.at(0, j);
            }
        }
        LayerNorm { out, xhat, inv_std }
    }

    /// `(dx, dgamma, dbeta)`.
    pub fn layer_norm_backward(g: &Tensor, gv: &Tensor, ln: &LayerNorm) -> [Tensor; 3] {
        let (n, d) = (g.rows(), g.cols());
        let mut dgamma = Tensor::zeros(&[1, d]);
        let mut dbeta = Tensor::zeros(&[1, d]);
        let mut dx = Tensor::zeros(&[n, d]);
        for i in 0..n {
            let gr = g.row(i);
            let xh = ln.xhat.row(i);
            let istd = ln.inv_std[i];
            let mut mean_dxhat = 0.0f32;
            let mut mean_dxhat_xhat = 0.0f32;
            for j in 0..d {
                let dxh = gr[j] * gv.at(0, j);
                mean_dxhat += dxh;
                mean_dxhat_xhat += dxh * xh[j];
            }
            mean_dxhat /= d as f32;
            mean_dxhat_xhat /= d as f32;
            for j in 0..d {
                let dxh = gr[j] * gv.at(0, j);
                *dx.at_mut(i, j) = istd * (dxh - mean_dxhat - xh[j] * mean_dxhat_xhat);
                *dgamma.at_mut(0, j) += gr[j] * xh[j];
                *dbeta.at_mut(0, j) += gr[j];
            }
        }
        [dx, dgamma, dbeta]
    }

    const GELU_C: f32 = 0.797_884_6;

    pub fn gelu_fwd(x: f32) -> f32 {
        0.5 * x * (1.0 + (GELU_C * (x + 0.044715 * x * x * x)).tanh())
    }

    pub fn gelu_bwd(x: f32) -> f32 {
        let inner = GELU_C * (x + 0.044715 * x * x * x);
        let t = inner.tanh();
        let dinner = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    }

    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        let n = parts[0].rows();
        let total: usize = parts.iter().map(|p| p.cols()).sum();
        let mut out = Tensor::zeros(&[n, total]);
        let mut off = 0;
        for p in parts {
            for i in 0..n {
                for j in 0..p.cols() {
                    *out.at_mut(i, off + j) = p.at(i, j);
                }
            }
            off += p.cols();
        }
        out
    }

    /// Columns `start .. start + len` of `x`; also the gradient of
    /// `ConcatCols` for one part.
    pub fn col_slice(x: &Tensor, start: usize, len: usize) -> Tensor {
        let mut out = Tensor::zeros(&[x.rows(), len]);
        for i in 0..x.rows() {
            for j in 0..len {
                *out.at_mut(i, j) = x.at(i, start + j);
            }
        }
        out
    }

    pub fn col_slice_backward(g: &Tensor, cols: usize, start: usize) -> Tensor {
        let mut gx = Tensor::zeros(&[g.rows(), cols]);
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                *gx.at_mut(i, start + j) = g.at(i, j);
            }
        }
        gx
    }

    pub fn mean_rows(x: &Tensor) -> Tensor {
        let (m, n) = (x.rows(), x.cols());
        let mut data = vec![0.0f32; n];
        for i in 0..m {
            for j in 0..n {
                data[j] += x.at(i, j);
            }
        }
        let inv = 1.0 / m as f32;
        for v in &mut data {
            *v *= inv;
        }
        Tensor::from_vec(data, &[1, n])
    }

    pub fn mean_rows_backward(g: &Tensor, n: usize) -> Tensor {
        let d = g.cols();
        let mut gx = Tensor::zeros(&[n, d]);
        let inv = 1.0 / n as f32;
        for i in 0..n {
            for j in 0..d {
                *gx.at_mut(i, j) = g.at(0, j) * inv;
            }
        }
        gx
    }

    pub fn repeat_rows(x: &Tensor, n: usize) -> Tensor {
        let mut out = Tensor::zeros(&[n, x.cols()]);
        for i in 0..n {
            for j in 0..x.cols() {
                *out.at_mut(i, j) = x.at(0, j);
            }
        }
        out
    }

    pub fn row_select(x: &Tensor, rows: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(&[rows.len(), x.cols()]);
        for (i, &r) in rows.iter().enumerate() {
            for j in 0..x.cols() {
                *out.at_mut(i, j) = x.at(r, j);
            }
        }
        out
    }

    pub fn row_select_backward(g: &Tensor, x_rows: usize, rows: &[usize]) -> Tensor {
        let mut gx = Tensor::zeros(&[x_rows, g.cols()]);
        for (i, &r) in rows.iter().enumerate() {
            for j in 0..g.cols() {
                *gx.at_mut(r, j) += g.at(i, j);
            }
        }
        gx
    }
}

/// NaN-insensitive bits (see the module docs).
fn key(x: f32) -> u32 {
    if x.is_nan() {
        0x7fc0_0000
    } else {
        x.to_bits()
    }
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|&x| key(x)).collect()
}

/// Asserts two tensors equal in shape and bits.
fn same(what: &str, got: &Tensor, want: &Tensor) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    if bits(got.data()) != bits(want.data()) {
        let at = got.data().iter().zip(want.data()).position(|(a, b)| key(*a) != key(*b));
        let at = at.expect("a differing element");
        panic!(
            "{what} {:?}: element {at} is {:e} ({:#010x}), the scalar tape gives {:e} ({:#010x})",
            got.shape(),
            got.data()[at],
            got.data()[at].to_bits(),
            want.data()[at],
            want.data()[at].to_bits()
        );
    }
}

/// Special values a random entry may take instead of a plain float.
#[derive(Clone, Copy)]
enum Specials {
    /// Exact `0.0` and `-0.0`.
    Zeros,
    /// Exact zeros, `±∞` and NaN.
    NonFinite,
}

/// Deterministic floats in `[-2, 2)` from a seed (xorshift64*), about one
/// in six replaced by a special value.
fn values(seed: u64, n: usize, specials: Specials) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            let r = s.wrapping_mul(0x2545_f491_4f6c_dd1d);
            let u = (r >> 40) as f32 / (1u64 << 24) as f32;
            match (r & 0xff, specials) {
                (0..=19, _) => 0.0,
                (20..=39, _) => -0.0,
                (40..=44, Specials::NonFinite) => f32::INFINITY,
                (45..=49, Specials::NonFinite) => f32::NEG_INFINITY,
                (50..=54, Specials::NonFinite) => f32::NAN,
                _ => 4.0 * u - 2.0,
            }
        })
        .collect()
}

fn tensor(seed: u64, shape: &[usize]) -> Tensor {
    Tensor::from_vec(values(seed, shape.iter().product(), Specials::Zeros), shape)
}

/// One tape over `params`, each placed as a parameter; `build` maps the
/// placed nodes to an output `y`, and the loss is `mean(y ⊙ probe)` with a
/// random probe. Returns `y`, the gradient `y` received (computed by hand:
/// what `MeanAll` and `Mul` hand down), and each parameter's gradient.
fn tape(
    params: &[&Tensor],
    seed: u64,
    build: impl FnOnce(&mut Graph, &[NodeId]) -> NodeId,
) -> (Tensor, Tensor, Vec<Tensor>) {
    let mut store = ParamStore::new();
    let ids: Vec<_> = params.iter().map(|p| store.register("p", (*p).clone())).collect();
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = ids.iter().map(|&id| g.param(&store, id)).collect();
    let y = build(&mut g, &nodes);
    let yv = g.value(y).clone();
    let probe = tensor(seed ^ 0x9b0b, yv.shape());
    let pn = g.input(probe.clone());
    let weighted = g.mul(y, pn);
    let loss = g.mean_all(weighted);
    g.backward(loss);
    let dy = Tensor::full(yv.shape(), 1.0 / yv.len() as f32).mul(&probe);
    let grads = nodes.iter().map(|&n| g.param_grad(n).expect("reached").clone()).collect();
    (yv, dy, grads)
}

/// Inner dimensions: short ones, and ones past a packed panel.
fn inner() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=20, PANEL_DEPTH - 3..=2 * PANEL_DEPTH + 9]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_forward_and_backward_equal_the_scalar_tape(
        m in 1usize..=13, k in inner(), n in 1usize..=30, seed in 0u64..u64::MAX
    ) {
        let (x, w) = (tensor(seed, &[m, k]), tensor(seed + 1, &[k, n]));
        let (y, dy, grads) = tape(&[&x, &w], seed, |g, p| g.matmul(p[0], p[1]));
        same("matmul", &y, &oracle::matmul(&x, &w));
        same("matmul dA", &grads[0], &oracle::matmul(&dy, &oracle::transpose(&w)));
        same("matmul dB", &grads[1], &oracle::matmul(&oracle::transpose(&x), &dy));
    }

    #[test]
    fn matmul_trans_b_forward_and_backward_equal_the_scalar_tape(
        m in 1usize..=13, k in inner(), n in 1usize..=30, seed in 0u64..u64::MAX
    ) {
        let (x, w) = (tensor(seed, &[m, k]), tensor(seed + 1, &[n, k]));
        let (y, dy, grads) = tape(&[&x, &w], seed, |g, p| g.matmul_trans_b(p[0], p[1]));
        same("matmul_trans_b", &y, &oracle::matmul(&x, &oracle::transpose(&w)));
        same("matmul_trans_b dA", &grads[0], &oracle::matmul(&dy, &w));
        same("matmul_trans_b dB", &grads[1], &oracle::matmul(&oracle::transpose(&dy), &x));
    }

    #[test]
    fn a_parameter_used_three_times_accumulates_as_the_scalar_tape(
        m in 1usize..=9, k in 1usize..=20, n in 1usize..=20, seed in 0u64..u64::MAX
    ) {
        let w = tensor(seed, &[k, n]);
        let xs: Vec<Tensor> = (0..3).map(|i| tensor(seed + 1 + i, &[m, k])).collect();
        let (_, dy, grads) = tape(&[&w, &xs[0], &xs[1], &xs[2]], seed, |g, p| {
            let m1 = g.matmul(p[1], p[0]);
            let m2 = g.matmul(p[2], p[0]);
            let s = g.add(m1, m2);
            let m3 = g.matmul(p[3], p[0]);
            g.add(s, m3)
        });
        // Reverse tape order: the third product's gradient arrives first.
        let mut dw = None;
        for x in xs.iter().rev() {
            oracle::accumulate(&mut dw, &oracle::matmul(&oracle::transpose(x), &dy));
        }
        same("accumulated dW", &grads[0], &dw.expect("three gradients"));
    }

    #[test]
    fn add_row_and_layer_norm_equal_the_scalar_tape(
        n in 1usize..=11, d in 1usize..=40, seed in 0u64..u64::MAX
    ) {
        let (x, b) = (tensor(seed, &[n, d]), tensor(seed + 1, &[1, d]));
        let (y, dy, grads) = tape(&[&x, &b], seed, |g, p| g.add_row(p[0], p[1]));
        same("add_row", &y, &oracle::add_row(&x, &b));
        same("add_row dA", &grads[0], &dy);
        same("add_row dbias", &grads[1], &oracle::sum_rows(&dy));

        let gamma = tensor(seed + 2, &[1, d]);
        let (y, dy, grads) = tape(&[&x, &gamma, &b], seed, |g, p| g.layer_norm(p[0], p[1], p[2], 1e-5));
        let ln = oracle::layer_norm(&x, &gamma, &b, 1e-5);
        same("layer_norm", &y, &ln.out);
        let [dx, dgamma, dbeta] = oracle::layer_norm_backward(&dy, &gamma, &ln);
        same("layer_norm dx", &grads[0], &dx);
        same("layer_norm dgamma", &grads[1], &dgamma);
        same("layer_norm dbeta", &grads[2], &dbeta);
    }

    #[test]
    fn gelu_equals_the_scalar_tape(n in 1usize..=9, d in 1usize..=40, seed in 0u64..u64::MAX) {
        let mut x = tensor(seed, &[n, d]);
        // Large magnitudes too, where tanh saturates.
        for v in x.data_mut().iter_mut().step_by(5) {
            *v *= 20.0;
        }
        let (y, dy, grads) = tape(&[&x], seed, |g, p| g.gelu(p[0]));
        same("gelu", &y, &x.map(oracle::gelu_fwd));
        let dx: Vec<f32> = dy.data().iter().zip(x.data()).map(|(&g, &x)| g * oracle::gelu_bwd(x)).collect();
        same("gelu dx", &grads[0], &Tensor::from_vec(dx, x.shape()));
    }

    #[test]
    fn concat_cols_and_col_slice_equal_the_scalar_tape(
        n in 1usize..=9, w0 in 1usize..=13, w1 in 1usize..=13, w2 in 1usize..=13, seed in 0u64..u64::MAX
    ) {
        let parts: Vec<Tensor> = [w0, w1, w2].iter().zip(0..).map(|(&w, i)| tensor(seed + i, &[n, w])).collect();
        let refs: Vec<&Tensor> = parts.iter().collect();
        let (y, dy, grads) = tape(&refs, seed, |g, p| g.concat_cols(p));
        same("concat_cols", &y, &oracle::concat_cols(&refs));
        let mut off = 0;
        for (part, grad) in parts.iter().zip(&grads) {
            same("concat_cols dpart", grad, &oracle::col_slice(&dy, off, part.cols()));
            off += part.cols();
        }

        let x = &parts[0];
        let start = (seed as usize) % x.cols();
        let len = 1 + (seed as usize >> 8) % (x.cols() - start);
        let (y, dy, grads) = tape(&[x], seed, |g, p| g.col_slice(p[0], start, len));
        same("col_slice", &y, &oracle::col_slice(x, start, len));
        same("col_slice dx", &grads[0], &oracle::col_slice_backward(&dy, x.cols(), start));
    }

    #[test]
    fn row_gathers_and_means_equal_the_scalar_tape(
        n in 1usize..=12, d in 1usize..=30, picks in 1usize..=15, seed in 0u64..u64::MAX
    ) {
        let x = tensor(seed, &[n, d]);
        let rows: Vec<usize> = (0..picks).map(|i| (seed as usize >> (i % 32)).wrapping_add(i * 7) % n).collect();
        let (y, dy, grads) = tape(&[&x], seed, |g, p| g.row_select(p[0], &rows));
        same("row_select", &y, &oracle::row_select(&x, &rows));
        same("row_select dx", &grads[0], &oracle::row_select_backward(&dy, n, &rows));

        let (y, dy, grads) = tape(&[&x], seed, |g, p| g.mean_rows(p[0]));
        same("mean_rows", &y, &oracle::mean_rows(&x));
        same("mean_rows dx", &grads[0], &oracle::mean_rows_backward(&dy, n));

        let row = tensor(seed + 1, &[1, d]);
        let (y, dy, grads) = tape(&[&row], seed, |g, p| g.repeat_rows(p[0], n));
        same("repeat_rows", &y, &oracle::repeat_rows(&row, n));
        same("repeat_rows dx", &grads[0], &oracle::sum_rows(&dy));
    }

    #[test]
    fn products_equal_the_scalar_loop_with_non_finite_operands(
        m in 1usize..=13, k in inner(), n in 1usize..=30, seed in 0u64..u64::MAX
    ) {
        // A zero left factor must skip an infinite or NaN right factor.
        let a = Tensor::from_vec(values(seed, m * k, Specials::Zeros), &[m, k]);
        let b = Tensor::from_vec(values(seed + 1, k * n, Specials::NonFinite), &[k, n]);
        let want = oracle::matmul(&a, &b);
        let at = oracle::transpose(&a);
        let bt = oracle::transpose(&b);
        for (kind, a, b) in [(Product::AB, &a, &b), (Product::ABt, &a, &bt), (Product::AtB, &at, &b)] {
            let mut out = vec![f32::NAN; m * n];
            product_rows::<Native>(kind, a.data(), b.data(), &mut out, 0, [m, k, n]);
            same(&format!("{kind:?}"), &Tensor::from_vec(out, &[m, n]), &want);
        }
    }

    #[test]
    fn native_and_scalar_products_agree_bit_for_bit(
        m in 1usize..=13, k in inner(), n in 1usize..=30, seed in 0u64..u64::MAX
    ) {
        for specials in [Specials::Zeros, Specials::NonFinite] {
            let a = values(seed, m * k, specials);
            let b = values(seed + 1, k * n, specials);
            for kind in [Product::AB, Product::ABt, Product::AtB] {
                let mut native = vec![f32::NAN; m * n];
                let mut scalar = vec![0.0; m * n];
                product_rows::<Native>(kind, &a, &b, &mut native, 0, [m, k, n]);
                product_rows::<Scalar>(kind, &a, &b, &mut scalar, 0, [m, k, n]);
                prop_assert_eq!(bits(&native), bits(&scalar));
                // Any split of the rows gives the same bits.
                let split = 1 + seed as usize % m;
                let (top, bottom) = scalar.split_at_mut(split * n);
                product_rows::<Scalar>(kind, &a, &b, top, 0, [m, k, n]);
                product_rows::<Scalar>(kind, &a, &b, bottom, split, [m, k, n]);
                prop_assert_eq!(bits(&native), bits(&scalar));
            }
        }
    }
}

#[test]
fn native_and_scalar_lane_ops_of_the_products_agree() {
    let lanes = |seed: u64| -> [f32; LANES] {
        values(seed, LANES, Specials::NonFinite).try_into().expect("eight lanes")
    };
    for seed in 0..64 {
        let rows: [[f32; LANES]; LANES] = std::array::from_fn(|r| lanes(seed * 8 + r as u64));
        let native = Native::transpose(rows.map(|r| Native::load(&r))).map(Native::to_array);
        let scalar = Scalar::transpose(rows.map(|r| Scalar::load(&r))).map(Scalar::to_array);
        for i in 0..LANES {
            assert_eq!(bits(&native[i]), bits(&scalar[i]));
            let column: Vec<f32> = rows.iter().map(|r| r[i]).collect();
            assert_eq!(bits(&native[i]), bits(&column), "output {i} is input column {i}");
        }
        let (x, o, v) = (lanes(seed), lanes(seed + 100), lanes(seed + 200));
        let native = Native::load(&x).ne_then(Native::load(&o), Native::load(&v)).to_array();
        let scalar = Scalar::load(&x).ne_then(Scalar::load(&o), Scalar::load(&v)).to_array();
        assert_eq!(bits(&native), bits(&scalar));
    }
}

/// Digest of every parameter of all four models after pre-training a small
/// family, computed with the scalar tape.
const PRETRAINED_DIGEST: u64 = 0xc43b_b426_82f7_688c;

#[test]
fn pretrained_weights_are_those_of_the_scalar_tape() {
    use tabbin_core::config::ModelConfig;
    use tabbin_core::pretrain::PretrainOptions;
    use tabbin_core::variants::TabBiNFamily;
    use tabbin_corpus::{generate, Dataset, GenOptions};

    let tables: Vec<_> = Dataset::ALL
        .into_iter()
        .flat_map(|ds| generate(ds, &GenOptions { n_tables: Some(3), seed: 11 }).plain_tables())
        .collect();
    let mut family = TabBiNFamily::new(&tables, ModelConfig::tiny(), 11);
    let opts = PretrainOptions { steps: 6, batch: 2, seed: 11, ..PretrainOptions::default() };
    family.pretrain(&tables, &opts);
    // FNV-1a over the little-endian bits, models and parameters in order.
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for model in [&family.row, &family.col, &family.hmd, &family.vmd] {
        for (id, _) in model.store.iter_ids() {
            for v in model.store.value(id).data() {
                for byte in v.to_bits().to_le_bytes() {
                    digest ^= u64::from(byte);
                    digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    assert_eq!(digest, PRETRAINED_DIGEST, "pre-trained weights drifted: {digest:#018x}");
}
