//! Reusable neural-network layers built on the autograd [`Graph`].
//!
//! Layers own [`ParamId`] handles into a shared [`ParamStore`]; a forward pass
//! borrows the store to place parameter copies onto the tape
//! (`forward(g, store, x)`). The tape trains; inference reads the same
//! parameters in place through `tabbin-core`'s fused kernels.
//!
//! Every product a layer records — a linear's `x·W`, attention's `Q·Kᵀ` (via
//! [`Graph::matmul_trans_b`]) and `scores·V` — runs forward and backward on
//! the tape's kernels ([`crate::kernels`]), which read the weights in place:
//! no layer, and no gradient, materializes a transpose.

use crate::{init, Graph, NodeId, ParamId, ParamStore, Tensor};

/// Affine layer `y = x W + b`.
#[derive(Clone, Debug)]
pub struct Linear {
    /// Weight matrix `[in, out]`.
    pub w: ParamId,
    /// Bias row `[1, out]`.
    pub b: ParamId,
    /// Input width.
    pub d_in: usize,
    /// Output width.
    pub d_out: usize,
}

impl Linear {
    /// Registers a new linear layer in `store`.
    pub fn new(store: &mut ParamStore, name: &str, d_in: usize, d_out: usize, seed: u64) -> Self {
        let w = store.register(&format!("{name}.w"), init::xavier(d_in, d_out, seed));
        let b = store.register(&format!("{name}.b"), init::zeros_row(d_out));
        Self { w, b, d_in, d_out }
    }

    /// Applies the layer to `[n, d_in]` input.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let (w, b) = (g.param(store, self.w), g.param(store, self.b));
        let xw = g.matmul(x, w);
        g.add_row(xw, b)
    }
}

/// Layer normalization over the last dimension with learnable gain/shift.
#[derive(Clone, Debug)]
pub struct LayerNorm {
    /// Gain `[1, d]`.
    pub gamma: ParamId,
    /// Shift `[1, d]`.
    pub beta: ParamId,
    /// Normalized width.
    pub d: usize,
    /// Variance epsilon.
    pub eps: f32,
}

impl LayerNorm {
    /// Registers a new layer-norm in `store`.
    pub fn new(store: &mut ParamStore, name: &str, d: usize) -> Self {
        let gamma = store.register(&format!("{name}.gamma"), init::ones_row(d));
        let beta = store.register(&format!("{name}.beta"), init::zeros_row(d));
        Self { gamma, beta, d, eps: 1e-5 }
    }

    /// Applies normalization to `[n, d]` input.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let (gamma, beta) = (g.param(store, self.gamma), g.param(store, self.beta));
        g.layer_norm(x, gamma, beta, self.eps)
    }
}

/// Token/feature embedding table.
#[derive(Clone, Debug)]
pub struct Embedding {
    /// Table `[vocab, d]`.
    pub table: ParamId,
    /// Number of rows.
    pub vocab: usize,
    /// Embedding width.
    pub d: usize,
}

impl Embedding {
    /// Registers a new embedding table in `store`.
    pub fn new(store: &mut ParamStore, name: &str, vocab: usize, d: usize, seed: u64) -> Self {
        let table = store.register(&format!("{name}.emb"), init::embedding(vocab, d, seed));
        Self { table, vocab, d }
    }

    /// Looks up a sequence of ids, producing `[ids.len(), d]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, ids: &[usize]) -> NodeId {
        debug_assert!(ids.iter().all(|&i| i < self.vocab), "embedding id out of range");
        let table = g.param(store, self.table);
        g.row_select(table, ids)
    }
}

/// Configuration for [`MultiHeadAttention`].
#[derive(Clone, Copy, Debug)]
pub struct AttentionConfig {
    /// Model width (must be divisible by `heads`).
    pub d_model: usize,
    /// Number of attention heads.
    pub heads: usize,
}

/// Multi-head self-attention with an optional additive mask — the TabBiN
/// visibility matrix enters here as a `0 / -1e9` additive tensor.
#[derive(Clone, Debug)]
pub struct MultiHeadAttention {
    /// Joint Q projection.
    pub wq: Linear,
    /// Joint K projection.
    pub wk: Linear,
    /// Joint V projection.
    pub wv: Linear,
    /// Output projection.
    pub wo: Linear,
    cfg: AttentionConfig,
}

impl MultiHeadAttention {
    /// Registers all four projections in `store`.
    pub fn new(store: &mut ParamStore, name: &str, cfg: AttentionConfig, seed: u64) -> Self {
        assert_eq!(cfg.d_model % cfg.heads, 0, "d_model must divide into heads");
        Self {
            wq: Linear::new(store, &format!("{name}.q"), cfg.d_model, cfg.d_model, seed ^ 0x51),
            wk: Linear::new(store, &format!("{name}.k"), cfg.d_model, cfg.d_model, seed ^ 0x52),
            wv: Linear::new(store, &format!("{name}.v"), cfg.d_model, cfg.d_model, seed ^ 0x53),
            wo: Linear::new(store, &format!("{name}.o"), cfg.d_model, cfg.d_model, seed ^ 0x54),
            cfg,
        }
    }

    /// Applies self-attention over `[n, d_model]`. `mask` (if given) must be
    /// `[n, n]` with `0.0` for visible pairs and large negative values for
    /// invisible pairs; it is added to the attention logits of every head.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        mask: Option<&Tensor>,
    ) -> NodeId {
        let n = g.value(x).rows();
        if let Some(m) = mask {
            assert_eq!(m.shape(), &[n, n], "attention mask must be [n, n]");
        }
        let dh = self.cfg.d_model / self.cfg.heads;
        let q = self.wq.forward(g, store, x);
        let k = self.wk.forward(g, store, x);
        let v = self.wv.forward(g, store, x);
        let scale = 1.0 / (dh as f32).sqrt();
        let mut heads = Vec::with_capacity(self.cfg.heads);
        for h in 0..self.cfg.heads {
            let qh = g.col_slice(q, h * dh, dh);
            let kh = g.col_slice(k, h * dh, dh);
            let vh = g.col_slice(v, h * dh, dh);
            let scores = g.matmul_trans_b(qh, kh);
            let scaled = g.scalar_mul(scores, scale);
            let masked = match mask {
                Some(m) => g.add_const(scaled, m),
                None => scaled,
            };
            let attn = g.softmax_rows(masked);
            heads.push(g.matmul(attn, vh));
        }
        let cat = g.concat_cols(&heads);
        self.wo.forward(g, store, cat)
    }
}

/// Position-wise feed-forward block (`Linear -> GELU -> Linear`).
#[derive(Clone, Debug)]
pub struct FeedForward {
    /// Expansion layer.
    pub lin1: Linear,
    /// Contraction layer.
    pub lin2: Linear,
}

impl FeedForward {
    /// Registers the two projections in `store`.
    pub fn new(store: &mut ParamStore, name: &str, d_model: usize, d_ff: usize, seed: u64) -> Self {
        Self {
            lin1: Linear::new(store, &format!("{name}.ff1"), d_model, d_ff, seed ^ 0xf1),
            lin2: Linear::new(store, &format!("{name}.ff2"), d_ff, d_model, seed ^ 0xf2),
        }
    }

    /// Applies the block to `[n, d_model]`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let h = self.lin1.forward(g, store, x);
        let a = g.gelu(h);
        self.lin2.forward(g, store, a)
    }
}

/// One pre-norm transformer encoder block: attention + FFN with residuals.
#[derive(Clone, Debug)]
pub struct EncoderBlock {
    /// Self-attention sublayer.
    pub attn: MultiHeadAttention,
    /// Feed-forward sublayer.
    pub ff: FeedForward,
    /// Norm before attention.
    pub ln1: LayerNorm,
    /// Norm before FFN.
    pub ln2: LayerNorm,
}

impl EncoderBlock {
    /// Registers all sublayer parameters in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        cfg: AttentionConfig,
        d_ff: usize,
        seed: u64,
    ) -> Self {
        Self {
            attn: MultiHeadAttention::new(store, &format!("{name}.attn"), cfg, seed),
            ff: FeedForward::new(store, &format!("{name}.ff"), cfg.d_model, d_ff, seed ^ 0xb0),
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), cfg.d_model),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), cfg.d_model),
        }
    }

    /// Applies the block over `[n, d_model]` with an optional attention mask.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        mask: Option<&Tensor>,
    ) -> NodeId {
        let n1 = self.ln1.forward(g, store, x);
        let a = self.attn.forward(g, store, n1, mask);
        let x1 = g.add(x, a);
        let n2 = self.ln2.forward(g, store, x1);
        let f = self.ff.forward(g, store, n2);
        g.add(x1, f)
    }
}

/// Builds the additive attention mask from a binary visibility matrix:
/// `1 -> 0.0` (visible), `0 -> -1e9` (hidden).
pub fn additive_mask(visibility: &[Vec<bool>]) -> Tensor {
    let n = visibility.len();
    let mut data = Vec::with_capacity(n * n);
    for row in visibility {
        assert_eq!(row.len(), n, "visibility matrix must be square");
        data.extend(row.iter().map(|&vis| if vis { 0.0 } else { -1e9 }));
    }
    Tensor::from_vec(data, &[n, n])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ParamStore {
        ParamStore::new()
    }

    #[test]
    fn linear_output_shape() {
        let mut s = store();
        let lin = Linear::new(&mut s, "l", 4, 3, 1);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&[5, 4], 1.0, 2));
        let y = lin.forward(&mut g, &s, x);
        assert_eq!(g.value(y).shape(), &[5, 3]);
    }

    #[test]
    fn layernorm_rows_are_standardized() {
        let mut s = store();
        let ln = LayerNorm::new(&mut s, "ln", 8);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&[3, 8], 4.0, 3));
        let y = ln.forward(&mut g, &s, x);
        let yv = g.value(y);
        for i in 0..3 {
            let row = yv.row(i);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "row {i} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {i} var {var}");
        }
    }

    #[test]
    fn embedding_lookup_selects_rows() {
        let mut s = store();
        let emb = Embedding::new(&mut s, "e", 10, 4, 5);
        let mut g = Graph::new();
        let y = emb.forward(&mut g, &s, &[3, 3, 7]);
        let yv = g.value(y);
        assert_eq!(yv.shape(), &[3, 4]);
        assert_eq!(yv.row(0), yv.row(1));
        assert_ne!(yv.row(0), yv.row(2));
    }

    #[test]
    fn attention_preserves_shape() {
        let mut s = store();
        let mha =
            MultiHeadAttention::new(&mut s, "a", AttentionConfig { d_model: 16, heads: 4 }, 7);
        let mut g = Graph::new();
        let x = g.input(Tensor::randn(&[6, 16], 1.0, 8));
        let y = mha.forward(&mut g, &s, x, None);
        assert_eq!(g.value(y).shape(), &[6, 16]);
    }

    #[test]
    fn attention_mask_blocks_information_flow() {
        // With a diagonal-only mask every token can only attend to itself, so
        // permuting *other* tokens must not change a token's output.
        let mut s = store();
        let mha = MultiHeadAttention::new(&mut s, "a", AttentionConfig { d_model: 8, heads: 2 }, 9);
        let vis: Vec<Vec<bool>> = (0..4).map(|i| (0..4).map(|j| i == j).collect()).collect();
        let mask = additive_mask(&vis);

        let base = Tensor::randn(&[4, 8], 1.0, 10);
        let mut permuted = base.clone();
        // Swap rows 2 and 3, keep row 0 fixed.
        let r2 = permuted.row(2).to_vec();
        let r3 = permuted.row(3).to_vec();
        permuted.row_mut(2).copy_from_slice(&r3);
        permuted.row_mut(3).copy_from_slice(&r2);

        let mut g1 = Graph::new();
        let x1 = g1.input(base);
        let y1 = mha.forward(&mut g1, &s, x1, Some(&mask));
        let mut g2 = Graph::new();
        let x2 = g2.input(permuted);
        let y2 = mha.forward(&mut g2, &s, x2, Some(&mask));

        let a = g1.value(y1).row(0).to_vec();
        let b = g2.value(y2).row(0).to_vec();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5, "masked token leaked context");
        }
    }

    #[test]
    fn encoder_block_trains_toward_target() {
        // Tiny end-to-end smoke test: an encoder block + linear head can fit a
        // fixed random target, proving gradients flow through every sublayer.
        use crate::optim::Adam;
        let mut s = store();
        let blk = EncoderBlock::new(&mut s, "b", AttentionConfig { d_model: 8, heads: 2 }, 16, 11);
        let head = Linear::new(&mut s, "h", 8, 2, 12);
        let x_in = Tensor::randn(&[5, 8], 1.0, 13);
        let targets = vec![0i64, 1, 0, 1, 1];
        let mut opt = Adam::new(1e-2);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let mut g = Graph::new();
            let x = g.input(x_in.clone());
            let h = blk.forward(&mut g, &s, x, None);
            let logits = head.forward(&mut g, &s, h);
            let loss = g.cross_entropy_rows(logits, &targets);
            last = g.value(loss).data()[0];
            first.get_or_insert(last);
            g.backward(loss);
            g.accumulate_grads(&mut s);
            opt.step(&mut s);
            s.zero_grads();
        }
        assert!(last < first.unwrap() * 0.5, "loss failed to halve: {first:?} -> {last}");
    }

    #[test]
    fn additive_mask_encodes_visibility() {
        let vis = vec![vec![true, false], vec![false, true]];
        let m = additive_mask(&vis);
        assert_eq!(m.at(0, 0), 0.0);
        assert!(m.at(0, 1) < -1e8);
    }
}
