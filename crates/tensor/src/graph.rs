//! Append-only autograd tape.
//!
//! Every forward operation appends a node recording its inputs; because nodes
//! are appended in execution order, the tape is already topologically sorted
//! and [`Graph::backward`] simply walks it in reverse.

use crate::kernels::Product;
use crate::param::{ParamId, ParamStore};
use crate::Tensor;

/// Handle to a node on the tape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(usize);

#[derive(Debug)]
enum Op {
    /// Constant input; gradients stop here.
    Input,
    /// Copy of a persistent parameter; gradients are later folded back into
    /// the originating [`ParamStore`].
    Param(ParamId),
    Add(NodeId, NodeId),
    /// `a [n,d] + b [1,d]` broadcast over rows.
    AddRow(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    ScalarMul(NodeId, f32),
    Matmul(NodeId, NodeId),
    /// `a [m,k] x b[n,k]^T -> [m,n]`; the product kernel reads `b` in place.
    MatmulTransB(NodeId, NodeId),
    Transpose(NodeId),
    Relu(NodeId),
    /// GELU, keeping the `tanh` of every element for the backward pass.
    Gelu {
        x: NodeId,
        tanh: Vec<f32>,
    },
    Tanh(NodeId),
    Sigmoid(NodeId),
    /// Row-wise softmax over the last dimension of a rank-2 tensor.
    SoftmaxRows(NodeId),
    /// Row-wise layer normalization with learnable `gamma`/`beta` of shape `[1,d]`.
    LayerNorm {
        x: NodeId,
        gamma: NodeId,
        beta: NodeId,
        cache: LnCache,
    },
    /// Gathers rows `rows[i]` of `x`; the building block for embedding lookup.
    RowSelect {
        x: NodeId,
        rows: Vec<usize>,
    },
    ConcatCols(Vec<NodeId>),
    ConcatRows(Vec<NodeId>),
    /// Columns `[start, start+len)` of `x`.
    ColSlice {
        x: NodeId,
        start: usize,
    },
    MeanRows(NodeId),
    MeanAll(NodeId),
    /// Adds a constant tensor (e.g. an additive attention mask).
    AddConst(NodeId),
    /// Multiplies by a constant tensor (e.g. an inverted dropout mask).
    MulConst {
        x: NodeId,
        mask: Tensor,
    },
    /// Mean cross-entropy over rows; `targets[i] < 0` rows are ignored.
    CrossEntropyRows {
        logits: NodeId,
        targets: Vec<i64>,
        probs: Tensor,
        counted: usize,
    },
    /// Repeats a `[1,d]` row into `[n,d]` (the count lives in the output
    /// shape; backward only needs the parent).
    RepeatRows {
        x: NodeId,
    },
}

#[derive(Debug)]
struct LnCache {
    /// Normalized activations `(x - mu) / sigma`, one row per input row.
    xhat: Tensor,
    /// Per-row `1 / sigma`.
    inv_std: Vec<f32>,
}

struct Node {
    value: Tensor,
    op: Op,
}

/// A single forward/backward tape.
///
/// Create one per training step, or create one, use it, and
/// [`Graph::reset`] it before the next step (as pre-training does) so the
/// node arena's allocation is reused instead of rebuilt.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Gradients retained for [`Op::Param`] nodes after [`Graph::backward`];
    /// held here rather than on nodes so the backward sweep can borrow nodes
    /// immutably.
    param_grads: Vec<Option<Tensor>>,
    /// Parameter copies of the tape before the last [`Graph::reset`], by
    /// [`ParamId`] index: the next copy of the same parameter goes into its
    /// buffer instead of a fresh allocation.
    spare: Vec<Option<Tensor>>,
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Self {
        Self::with_capacity(256)
    }

    /// An empty tape with room for `nodes` operations before reallocating.
    pub fn with_capacity(nodes: usize) -> Self {
        Self { nodes: Vec::with_capacity(nodes), param_grads: Vec::new(), spare: Vec::new() }
    }

    /// Clears the tape for reuse, keeping the node arena's allocation.
    ///
    /// After `reset` the graph is observationally identical to a fresh
    /// [`Graph::new`], but repeated build/backward cycles (pre-training
    /// steps, matcher batches) skip the per-step reallocation of the node
    /// vector and the parameter copies' buffers. `NodeId`s handed out before
    /// the reset must not be used afterwards.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            if let Op::Param(id) = node.op {
                if self.spare.len() <= id.index() {
                    self.spare.resize_with(id.index() + 1, || None);
                }
                self.spare[id.index()] = Some(node.value);
            }
        }
        self.param_grads.clear();
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Tensor {
        &self.nodes[id.0].value
    }

    fn is_input(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.0].op, Op::Input)
    }

    fn push(&mut self, value: Tensor, op: Op) -> NodeId {
        self.nodes.push(Node { value, op });
        NodeId(self.nodes.len() - 1)
    }

    /// Records a constant input tensor.
    pub fn input(&mut self, t: Tensor) -> NodeId {
        self.push(t, Op::Input)
    }

    /// Records a parameter by copying its current value onto the tape.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        let src = store.value(id);
        let value = match self.spare.get_mut(id.index()).and_then(Option::take) {
            Some(mut buf) if buf.shape() == src.shape() => {
                buf.data_mut().copy_from_slice(src.data());
                buf
            }
            _ => src.clone(),
        };
        self.push(value, Op::Param(id))
    }

    /// Elementwise addition of equally-shaped tensors.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// Adds a `[1,d]` bias row to every row of an `[n,d]` tensor.
    pub fn add_row(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let (av, bv) = (self.value(a), self.value(bias));
        assert_eq!(bv.rows(), 1, "add_row bias must have one row");
        assert_eq!(av.cols(), bv.cols(), "add_row width mismatch");
        let mut out = av.clone();
        for i in 0..out.rows() {
            for (o, &b) in out.row_mut(i).iter_mut().zip(bv.data()) {
                *o += b;
            }
        }
        self.push(out, Op::AddRow(a, bias))
    }

    /// Elementwise subtraction.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// Multiplication by a scalar constant.
    pub fn scalar_mul(&mut self, a: NodeId, c: f32) -> NodeId {
        let mut v = self.value(a).clone();
        v.scale(c);
        self.push(v, Op::ScalarMul(a, c))
    }

    /// Matrix product of rank-2 nodes.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::Matmul(a, b))
    }

    /// `a x b^T`, reading `b` in place: no transpose is materialized,
    /// forward or backward.
    pub fn matmul_trans_b(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).product(Product::ABt, self.value(b));
        self.push(v, Op::MatmulTransB(a, b))
    }

    /// Transpose of a rank-2 node (the one op on the tape that copies a
    /// transpose, because it is the one that asks for it).
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let v = Tensor::transpose(self.value(a));
        self.push(v, Op::Transpose(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// Gaussian error linear unit (tanh approximation, as in BERT).
    pub fn gelu(&mut self, a: NodeId) -> NodeId {
        let xv = self.value(a);
        let tanh: Vec<f32> = xv.data().iter().map(|&x| gelu_tanh(x)).collect();
        let data = xv.data().iter().zip(&tanh).map(|(&x, &t)| 0.5 * x * (1.0 + t)).collect();
        let v = Tensor::from_vec(data, xv.shape());
        self.push(v, Op::Gelu { x: a, tanh })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a))
    }

    /// Numerically-stable row-wise softmax.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let x = self.value(a);
        let (n, d) = (x.rows(), x.cols());
        let mut out = Tensor::zeros(&[n, d]);
        for i in 0..n {
            softmax_row(x.row(i), out.row_mut(i));
        }
        self.push(out, Op::SoftmaxRows(a))
    }

    /// Row-wise layer normalization; `gamma`/`beta` must be `[1,d]`.
    pub fn layer_norm(&mut self, x: NodeId, gamma: NodeId, beta: NodeId, eps: f32) -> NodeId {
        let xv = self.value(x);
        let (n, d) = (xv.rows(), xv.cols());
        assert_eq!(self.value(gamma).cols(), d, "layer_norm gamma width");
        assert_eq!(self.value(beta).cols(), d, "layer_norm beta width");
        let mut xhat = Tensor::zeros(&[n, d]);
        let mut inv_std = vec![0.0; n];
        let mut i = 0;
        while i < n {
            i += if n - i >= 4 {
                normalize::<4>(xv, i, eps, &mut xhat, &mut inv_std)
            } else {
                normalize::<1>(xv, i, eps, &mut xhat, &mut inv_std)
            };
        }
        let (gv, bv) = (&self.value(gamma).data()[..d], &self.value(beta).data()[..d]);
        let mut out = Tensor::zeros(&[n, d]);
        for i in 0..n {
            let orow = out.row_mut(i).iter_mut().zip(xhat.row(i));
            for ((o, &xh), (&gj, &bj)) in orow.zip(gv.iter().zip(bv)) {
                *o = xh * gj + bj;
            }
        }
        self.push(out, Op::LayerNorm { x, gamma, beta, cache: LnCache { xhat, inv_std } })
    }

    /// Gathers rows of `x` (duplicates allowed). This doubles as embedding
    /// lookup when `x` is a `[vocab, hidden]` parameter.
    pub fn row_select(&mut self, x: NodeId, rows: &[usize]) -> NodeId {
        let xv = self.value(x);
        let d = xv.cols();
        let mut out = Tensor::zeros(&[rows.len(), d]);
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(xv.row(r));
        }
        self.push(out, Op::RowSelect { x, rows: rows.to_vec() })
    }

    /// Concatenates nodes along columns; all must share the row count.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let n = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        let mut out = Tensor::zeros(&[n, total]);
        let mut off = 0;
        for &p in parts {
            let pv = self.value(p);
            assert_eq!(pv.rows(), n, "concat_cols row mismatch");
            let w = pv.cols();
            for i in 0..n {
                out.row_mut(i)[off..off + w].copy_from_slice(pv.row(i));
            }
            off += w;
        }
        self.push(out, Op::ConcatCols(parts.to_vec()))
    }

    /// Concatenates nodes along rows; all must share the column count.
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let d = self.value(parts[0]).cols();
        let total: usize = parts.iter().map(|&p| self.value(p).rows()).sum();
        let mut out = Tensor::zeros(&[total, d]);
        let mut off = 0;
        for &p in parts {
            let pv = self.value(p);
            assert_eq!(pv.cols(), d, "concat_rows col mismatch");
            for i in 0..pv.rows() {
                out.row_mut(off + i).copy_from_slice(pv.row(i));
            }
            off += pv.rows();
        }
        self.push(out, Op::ConcatRows(parts.to_vec()))
    }

    /// Columns `[start, start+len)` of `x`.
    pub fn col_slice(&mut self, x: NodeId, start: usize, len: usize) -> NodeId {
        let xv = self.value(x);
        let n = xv.rows();
        assert!(start + len <= xv.cols(), "col_slice out of bounds");
        let mut out = Tensor::zeros(&[n, len]);
        for i in 0..n {
            out.row_mut(i).copy_from_slice(&xv.row(i)[start..start + len]);
        }
        self.push(out, Op::ColSlice { x, start })
    }

    /// Mean over rows, producing `[1,d]`.
    pub fn mean_rows(&mut self, x: NodeId) -> NodeId {
        let v = self.value(x).mean_rows();
        self.push(v, Op::MeanRows(x))
    }

    /// Mean over all elements, producing `[1,1]`.
    pub fn mean_all(&mut self, x: NodeId) -> NodeId {
        let xv = self.value(x);
        let v = Tensor::from_vec(vec![xv.sum() / xv.len() as f32], &[1, 1]);
        self.push(v, Op::MeanAll(x))
    }

    /// Adds a constant tensor (gradient flows only to `x`). The canonical use
    /// is applying an additive attention mask of `0 / -1e9` entries built from
    /// a visibility matrix.
    pub fn add_const(&mut self, x: NodeId, c: &Tensor) -> NodeId {
        let v = self.value(x).add(c);
        self.push(v, Op::AddConst(x))
    }

    /// Multiplies by a constant tensor (gradient flows only to `x`), e.g. an
    /// inverted dropout mask.
    pub fn mul_const(&mut self, x: NodeId, mask: Tensor) -> NodeId {
        let v = self.value(x).mul(&mask);
        self.push(v, Op::MulConst { x, mask })
    }

    /// Repeats a `[1,d]` row `n` times.
    pub fn repeat_rows(&mut self, x: NodeId, n: usize) -> NodeId {
        let xv = self.value(x);
        assert_eq!(xv.rows(), 1, "repeat_rows input must be [1,d]");
        let d = xv.cols();
        let mut out = Tensor::zeros(&[n, d]);
        for i in 0..n {
            out.row_mut(i).copy_from_slice(xv.row(0));
        }
        self.push(out, Op::RepeatRows { x })
    }

    /// Mean cross-entropy between `logits` rows and integer `targets`.
    /// Targets below zero are ignored (no loss, no gradient). Returns a
    /// `[1,1]` node; panics if every target is ignored.
    pub fn cross_entropy_rows(&mut self, logits: NodeId, targets: &[i64]) -> NodeId {
        let lv = self.value(logits);
        let (n, c) = (lv.rows(), lv.cols());
        assert_eq!(targets.len(), n, "cross_entropy target count mismatch");
        let mut probs = Tensor::zeros(&[n, c]);
        let mut total = 0.0f64;
        let mut counted = 0usize;
        for (i, &t) in targets.iter().enumerate() {
            softmax_row(lv.row(i), probs.row_mut(i));
            if t >= 0 {
                let t = t as usize;
                assert!(t < c, "target {t} out of range for {c} classes");
                let p = probs.row(i)[t].max(1e-12);
                total -= (p as f64).ln();
                counted += 1;
            }
        }
        assert!(counted > 0, "cross_entropy_rows: all targets ignored");
        let loss = (total / counted as f64) as f32;
        self.push(
            Tensor::from_vec(vec![loss], &[1, 1]),
            Op::CrossEntropyRows { logits, targets: targets.to_vec(), probs, counted },
        )
    }

    /// Backpropagates from `loss` (which must be `[1,1]`) through the tape.
    ///
    /// Gradients for parameter nodes are retained on the tape until
    /// [`Graph::accumulate_grads`] folds them into a [`ParamStore`].
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(self.value(loss).len(), 1, "backward seed must be scalar");
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::full(self.value(loss).shape(), 1.0));

        for idx in (0..self.nodes.len()).rev() {
            let Some(g) = grads[idx].take() else { continue };
            let grads = &mut grads;
            match &self.nodes[idx].op {
                Op::Input => {}
                // Re-stashed for `accumulate_grads`; no later node feeds it.
                Op::Param(_) => grads[idx] = Some(g),
                Op::Add(a, b) => {
                    accumulate(grads, *a, g.clone());
                    accumulate(grads, *b, g);
                }
                Op::AddRow(a, bias) => {
                    let bg = sum_rows(&g);
                    accumulate(grads, *a, g);
                    accumulate(grads, *bias, bg);
                }
                Op::Sub(a, b) => {
                    accumulate(grads, *a, g.clone());
                    let mut neg = g;
                    neg.scale(-1.0);
                    accumulate(grads, *b, neg);
                }
                Op::Mul(a, b) => {
                    let ga = g.mul(self.value(*b));
                    let gb = g.mul(self.value(*a));
                    accumulate(grads, *a, ga);
                    accumulate(grads, *b, gb);
                }
                Op::ScalarMul(a, c) => {
                    let mut ga = g;
                    ga.scale(*c);
                    accumulate(grads, *a, ga);
                }
                // A product skips the gradient of a constant input, which
                // backward would drop unread.
                Op::Matmul(a, b) => {
                    // dA = dC x B^T ; dB = A^T x dC
                    if !self.is_input(*a) {
                        accumulate(grads, *a, g.product(Product::ABt, self.value(*b)));
                    }
                    if !self.is_input(*b) {
                        accumulate(grads, *b, self.value(*a).product(Product::AtB, &g));
                    }
                }
                Op::MatmulTransB(a, b) => {
                    // C = A x B^T : dA = dC x B ; dB = dC^T x A
                    if !self.is_input(*a) {
                        accumulate(grads, *a, g.product(Product::AB, self.value(*b)));
                    }
                    if !self.is_input(*b) {
                        accumulate(grads, *b, g.product(Product::AtB, self.value(*a)));
                    }
                }
                Op::Transpose(a) => accumulate(grads, *a, Tensor::transpose(&g)),
                Op::Relu(a) => {
                    let mut ga = g;
                    for (gv, xv) in ga.data_mut().iter_mut().zip(self.value(*a).data()) {
                        if *xv <= 0.0 {
                            *gv = 0.0;
                        }
                    }
                    accumulate(grads, *a, ga);
                }
                Op::Gelu { x, tanh } => {
                    let mut ga = g;
                    let xt = self.value(*x).data().iter().zip(tanh);
                    for (gv, (&xv, &t)) in ga.data_mut().iter_mut().zip(xt) {
                        *gv *= gelu_bwd(xv, t);
                    }
                    accumulate(grads, *x, ga);
                }
                Op::Tanh(a) => {
                    let mut ga = g;
                    for (gv, y) in ga.data_mut().iter_mut().zip(self.nodes[idx].value.data()) {
                        *gv *= 1.0 - y * y;
                    }
                    accumulate(grads, *a, ga);
                }
                Op::Sigmoid(a) => {
                    let mut ga = g;
                    for (gv, y) in ga.data_mut().iter_mut().zip(self.nodes[idx].value.data()) {
                        *gv *= y * (1.0 - y);
                    }
                    accumulate(grads, *a, ga);
                }
                Op::SoftmaxRows(a) => {
                    let y = &self.nodes[idx].value;
                    let mut ga = Tensor::zeros(y.shape());
                    for i in 0..y.rows() {
                        let (yr, gr) = (y.row(i), g.row(i));
                        let dot: f32 = yr.iter().zip(gr).map(|(y, g)| y * g).sum();
                        for (o, (&yj, &gj)) in ga.row_mut(i).iter_mut().zip(yr.iter().zip(gr)) {
                            *o = yj * (gj - dot);
                        }
                    }
                    accumulate(grads, *a, ga);
                }
                Op::LayerNorm { x, gamma, beta, cache } => {
                    let (n, d) = (g.rows(), g.cols());
                    let gv = &self.value(*gamma).data()[..d];
                    let mut dgamma = Tensor::zeros(&[1, d]);
                    let mut dbeta = Tensor::zeros(&[1, d]);
                    let mut dx = Tensor::zeros(&[n, d]);
                    for i in 0..n {
                        let (gr, xh) = (g.row(i), cache.xhat.row(i));
                        let istd = cache.inv_std[i];
                        let mut mean_dxhat = 0.0f32;
                        let mut mean_dxhat_xhat = 0.0f32;
                        for ((&gj, &gamj), &xj) in gr.iter().zip(gv).zip(xh) {
                            let dxh = gj * gamj;
                            mean_dxhat += dxh;
                            mean_dxhat_xhat += dxh * xj;
                        }
                        mean_dxhat /= d as f32;
                        mean_dxhat_xhat /= d as f32;
                        let dxr = dx.row_mut(i).iter_mut();
                        let sums = dgamma.data_mut().iter_mut().zip(dbeta.data_mut());
                        for ((o, (dg, db)), ((&gj, &gamj), &xj)) in
                            dxr.zip(sums).zip(gr.iter().zip(gv).zip(xh))
                        {
                            let dxh = gj * gamj;
                            *o = istd * (dxh - mean_dxhat - xj * mean_dxhat_xhat);
                            *dg += gj * xj;
                            *db += gj;
                        }
                    }
                    accumulate(grads, *x, dx);
                    accumulate(grads, *gamma, dgamma);
                    accumulate(grads, *beta, dbeta);
                }
                Op::RowSelect { x, rows } => {
                    let xv = self.value(*x);
                    let mut gx = Tensor::zeros(&[xv.rows(), xv.cols()]);
                    for (i, &r) in rows.iter().enumerate() {
                        for (d, s) in gx.row_mut(r).iter_mut().zip(g.row(i)) {
                            *d += *s;
                        }
                    }
                    accumulate(grads, *x, gx);
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let w = self.value(p).cols();
                        let mut data = Vec::with_capacity(g.rows() * w);
                        for i in 0..g.rows() {
                            data.extend_from_slice(&g.row(i)[off..off + w]);
                        }
                        accumulate(grads, p, Tensor::from_vec(data, &[g.rows(), w]));
                        off += w;
                    }
                }
                Op::ConcatRows(parts) => {
                    let d = g.cols();
                    let mut off = 0;
                    for &p in parts {
                        let r = self.value(p).rows();
                        let data = g.data()[off * d..(off + r) * d].to_vec();
                        accumulate(grads, p, Tensor::from_vec(data, &[r, d]));
                        off += r;
                    }
                }
                Op::ColSlice { x, start } => {
                    let xv = self.value(*x);
                    let mut gx = Tensor::zeros(&[xv.rows(), xv.cols()]);
                    let w = g.cols();
                    for i in 0..g.rows() {
                        gx.row_mut(i)[*start..*start + w].copy_from_slice(g.row(i));
                    }
                    accumulate(grads, *x, gx);
                }
                Op::MeanRows(x) => {
                    let n = self.value(*x).rows();
                    let inv = 1.0 / n as f32;
                    let row: Vec<f32> = g.row(0).iter().map(|v| v * inv).collect();
                    let data = row.repeat(n);
                    accumulate(grads, *x, Tensor::from_vec(data, &[n, row.len()]));
                }
                Op::MeanAll(x) => {
                    let xv = self.value(*x);
                    let inv = g.data()[0] / xv.len() as f32;
                    accumulate(grads, *x, Tensor::full(xv.shape(), inv));
                }
                Op::AddConst(x) => accumulate(grads, *x, g),
                Op::MulConst { x, mask } => accumulate(grads, *x, g.mul(mask)),
                Op::RepeatRows { x } => accumulate(grads, *x, sum_rows(&g)),
                Op::CrossEntropyRows { logits, targets, probs, counted } => {
                    let scale = g.data()[0] / *counted as f32;
                    let (n, c) = (probs.rows(), probs.cols());
                    let mut gl = Tensor::zeros(&[n, c]);
                    for (i, &t) in targets.iter().enumerate().take(n) {
                        if t < 0 {
                            continue;
                        }
                        let out = gl.row_mut(i);
                        for (o, &p) in out.iter_mut().zip(probs.row(i)) {
                            *o = p * scale;
                        }
                        out[t as usize] -= scale;
                    }
                    accumulate(grads, *logits, gl);
                }
            }
        }
        self.param_grads = grads;
    }

    /// Folds parameter gradients computed by [`Graph::backward`] into `store`.
    pub fn accumulate_grads(&mut self, store: &mut ParamStore) {
        for (idx, g) in self.param_grads.iter().enumerate() {
            if let (Some(g), Op::Param(pid)) = (g, &self.nodes[idx].op) {
                store.accumulate(*pid, g);
            }
        }
    }
}

impl Graph {
    /// Gradient of `loss` with respect to the given node, if it was reached by
    /// the last [`Graph::backward`] call (only parameter gradients are kept).
    pub fn param_grad(&self, id: NodeId) -> Option<&Tensor> {
        self.param_grads.get(id.0).and_then(|g| g.as_ref())
    }
}

/// Adds `g` into `node`'s gradient; the first gradient a node receives is
/// moved in, not copied.
fn accumulate(grads: &mut [Option<Tensor>], node: NodeId, g: Tensor) {
    match &mut grads[node.0] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

/// Layer-norm statistics of rows `i .. i + G` of `x` into `xhat` and
/// `inv_std`; returns `G`. Each row's sums run in order from `-0.0`, as
/// `Iterator::sum` folds; the `G` rows' add chains run side by side, which
/// is what makes short rows fast.
#[inline(always)]
fn normalize<const G: usize>(
    x: &Tensor,
    i: usize,
    eps: f32,
    xhat: &mut Tensor,
    inv_std: &mut [f32],
) -> usize {
    let d = x.cols();
    // Sliced to exactly `d`, so the indexing below needs no bounds checks.
    let rows: [&[f32]; G] = std::array::from_fn(|r| &x.row(i + r)[..d]);
    let mut mu = [-0.0f32; G];
    for j in 0..d {
        for (m, row) in mu.iter_mut().zip(&rows) {
            *m += row[j];
        }
    }
    let mu = mu.map(|s| s / d as f32);
    let mut var = [-0.0f32; G];
    for j in 0..d {
        for ((v, row), &m) in var.iter_mut().zip(&rows).zip(&mu) {
            *v += (row[j] - m) * (row[j] - m);
        }
    }
    for (r, (row, (&m, &v))) in rows.iter().zip(mu.iter().zip(&var)).enumerate() {
        let istd = 1.0 / (v / d as f32 + eps).sqrt();
        inv_std[i + r] = istd;
        for (xh, &rv) in xhat.row_mut(i + r).iter_mut().zip(*row) {
            *xh = (rv - m) * istd;
        }
    }
    G
}

/// `[1, d]` column sums of `[n, d]`, accumulated row by row from zero.
fn sum_rows(g: &Tensor) -> Tensor {
    let mut sum = Tensor::zeros(&[1, g.cols()]);
    for i in 0..g.rows() {
        for (acc, &v) in sum.data_mut().iter_mut().zip(g.row(i)) {
            *acc += v;
        }
    }
    sum
}

/// Numerically-stable softmax of one row (shared by the tape ops and the
/// no-tape inference kernels, so both paths use the same formula).
pub fn softmax_row(input: &[f32], out: &mut [f32]) {
    let max = input.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for (o, &x) in out.iter_mut().zip(input) {
        let e = (x - max).exp();
        *o = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

/// GELU forward (tanh approximation, as in BERT); shared like
/// [`softmax_row`].
pub fn gelu_fwd(x: f32) -> f32 {
    0.5 * x * (1.0 + gelu_tanh(x))
}

/// The `tanh` term of GELU, which the tape keeps for the backward pass.
fn gelu_tanh(x: f32) -> f32 {
    (GELU_C * (x + 0.044715 * x * x * x)).tanh()
}

/// GELU's derivative at `x`, given `t = gelu_tanh(x)`.
fn gelu_bwd(x: f32, t: f32) -> f32 {
    let dinner = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}
