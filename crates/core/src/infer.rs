//! Tape-free inference.
//!
//! [`crate::model::TabBiNModel::embed`] runs the forward pass on the autograd
//! tape, which exists to support backpropagation: every op allocates an
//! output tensor onto the tape, parameters are copied into the arena, layer
//! norm caches its normalized activations, and so on. Inference needs none
//! of that. This module reimplements the forward pass as fused loops over
//! raw `f32` slices:
//!
//! * parameters are **read in place** from the [`ParamStore`] — zero copies;
//! * the six embedding components are summed in a single pass per token;
//! * the linears, the attention scores and the attention context all run
//!   through one register-tiled kernel ([`kernels::gemm`]);
//! * softmax, GELU and layer norm are 8-lane kernels on one polynomial
//!   `exp` — no libm call anywhere in the pass;
//! * the visibility mask is built from compact `row`/`col`/`special` arrays
//!   and seeds the score accumulators branch-free;
//! * every intermediate lives in an [`InferScratch`] buffer that is grown
//!   — never reallocated — between sequences.
//!
//! The result agrees with the tape path elementwise to ~1e-6 (float
//! summation order differs slightly, and the tape's GELU calls libm `tanh`;
//! a property test pins the 1e-5 bound) and is a pure function of the one
//! sequence: batch composition, chunking and thread count cannot move a bit.

pub mod kernels;

use crate::encoding::EncodedSequence;
use crate::model::TabBiNModel;
use kernels::{HeadArgs, Native, Rows, LANES, MASK_NEG};
use std::array::from_fn;
use tabbin_table::NumericFeatures;
use tabbin_tensor::nn::{LayerNorm, Linear};
use tabbin_tensor::ParamStore;

/// Reusable buffers for the no-tape forward pass. Steady-state embedding
/// performs no heap allocation.
#[derive(Default)]
pub struct InferScratch {
    x: Vec<f32>,
    a: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    kt: Vec<f32>,
    vh: Vec<f32>,
    scores: Vec<f32>,
    inv: Vec<f32>,
    ctxh: Vec<f32>,
    ff: Vec<f32>,
    mask: Vec<f32>,
    /// `[row | col | special]` of every token, gathered once per sequence.
    addr: Vec<u32>,
}

impl InferScratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Grows `buf` to at least `len` and returns the `len`-prefix. Contents are
/// unspecified — every kernel fully overwrites its output — so steady-state
/// reuse skips the memset a `clear`+`resize` would pay.
fn grab<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

/// The stages of the forward pass that the stage bench attributes time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// The six-component embedding sum and its layer norm.
    EmbedTokens,
    /// Building the additive visibility mask.
    VisibilityMask,
    /// The six linears, the two block layer norms and the residual adds.
    Linears,
    /// Q·Kᵀ + mask, softmax.
    AttnScores,
    /// scores · V.
    AttnContext,
    /// The feed-forward activation.
    Gelu,
    /// Mean pool over non-special tokens.
    Pool,
}

impl Stage {
    /// Every stage, in first-use order.
    pub const ALL: [Stage; 7] = [
        Stage::EmbedTokens,
        Stage::VisibilityMask,
        Stage::Linears,
        Stage::AttnScores,
        Stage::AttnContext,
        Stage::Gelu,
        Stage::Pool,
    ];
}

/// Told at every stage boundary of [`embed_profiled`] which stage just
/// finished. The unit probe does nothing and compiles away.
pub trait StageProbe {
    /// `stage` ran from the previous call (or the start of the pass) to now.
    fn done(&mut self, stage: Stage);
}

impl StageProbe for () {
    #[inline(always)]
    fn done(&mut self, _: Stage) {}
}

fn add_assign(x: &mut [f32], y: &[f32]) {
    for (a, b) in x.iter_mut().zip(y) {
        *a += *b;
    }
}

/// `out[n, m] = x[n, k] · W + b`, reading `W`/`b` in place.
fn linear(store: &ParamStore, lin: &Linear, x: &[f32], out: &mut [f32]) {
    let (k, m) = (lin.d_in, lin.d_out);
    kernels::gemm::<Native>(
        Rows { data: x, stride: k },
        Rows { data: store.value(lin.w).data(), stride: m },
        Some(Rows { data: store.value(lin.b).data(), stride: 0 }),
        out,
        m,
        [x.len() / k, k, m],
    );
}

/// Row-wise layer normalization of `x[n, d]` into `out`, reading gain and
/// shift in place.
fn layer_norm(store: &ParamStore, ln: &LayerNorm, x: &[f32], out: &mut [f32]) {
    let (gamma, beta) = (store.value(ln.gamma).data(), store.value(ln.beta).data());
    kernels::layer_norm::<Native>(x, ln.d, gamma, beta, ln.eps, out);
}

/// Builds the additive visibility mask `[n, np]` directly as `f32` (0
/// visible, `MASK_NEG` hidden), fusing `EncodedSequence::visibility` +
/// `nn::additive_mask`. Rows are padded to `np` columns with `MASK_NEG`, so
/// the attention kernels never see a ragged row. With `masked` off (the
/// `TabBiN₁` ablation) only the padding is hidden.
fn visibility_mask(seq: &EncodedSequence, masked: bool, addr: &mut [u32], mask: &mut [f32]) {
    let n = seq.len();
    let np = n.next_multiple_of(LANES);
    let (rows, rest) = addr.split_at_mut(n);
    let (cols, special) = rest.split_at_mut(n);
    for (i, t) in seq.tokens.iter().enumerate() {
        rows[i] = t.row;
        cols[i] = t.col;
        special[i] = u32::from(t.special || !masked);
    }
    for (i, mrow) in mask.chunks_exact_mut(np).enumerate() {
        let (live, pad) = mrow.split_at_mut(n);
        pad.fill(MASK_NEG);
        if special[i] != 0 {
            live.fill(0.0);
            continue;
        }
        // A token shares its own row, so `i == j` needs no term.
        let (ri, ci) = (rows[i], cols[i]);
        for (j, m) in live.iter_mut().enumerate() {
            let visible = (rows[j] == ri) | (cols[j] == ci) | (special[j] != 0);
            *m = if visible { 0.0 } else { MASK_NEG };
        }
    }
}

/// The fused six-component embedding layer: one pass per token, summing
/// directly into `tmp[n, h]`, followed by the embedding layer norm into `x`.
fn embed_tokens(model: &TabBiNModel, seq: &EncodedSequence, x: &mut [f32], tmp: &mut [f32]) {
    let store: &ParamStore = &model.store;
    let cfg = &model.cfg;
    let h = cfg.hidden;
    let quarter = h / 4;
    let sixth = h / 6;
    let tok_table = store.value(model.emb.tok.table);
    let num_tables: [_; 4] = from_fn(|i| store.value(model.emb.num[i].table));
    let cpos_table = store.value(model.emb.cpos.table);
    let tpos_tables: [_; 6] = from_fn(|i| store.value(model.emb.tpos[i].table));
    let ty_table = store.value(model.emb.ty.table);
    let fmt_w = store.value(model.emb.fmt.w);
    let fmt_b = store.value(model.emb.fmt.b);

    for (t, row) in seq.tokens.iter().zip(tmp.chunks_exact_mut(h)) {
        // E_tok.
        row.copy_from_slice(tok_table.row(t.vocab_id as usize));
        // E_num (zero for non-numeric tokens, as the tape path's mask does).
        if let Some(value) = t.value {
            let nf = NumericFeatures::of(value);
            let picks = [nf.magnitude, nf.precision, nf.first_digit, nf.last_digit];
            for (which, &idx) in picks.iter().enumerate() {
                let seg = &mut row[which * quarter..(which + 1) * quarter];
                add_assign(seg, num_tables[which].row(idx as usize));
            }
        }
        // E_cpos.
        add_assign(row, cpos_table.row(t.cell_pos.min(cfg.max_cell_tokens - 1)));
        // E_tpos (ablatable).
        if cfg.ablation.coordinates {
            for (axis, table) in tpos_tables.iter().enumerate() {
                let idx = (t.tpos[axis] as usize).min(cfg.max_coord - 1);
                let seg = &mut row[axis * sixth..(axis + 1) * sixth];
                add_assign(seg, table.row(idx));
            }
        }
        // E_type (ablatable).
        if cfg.ablation.type_inference {
            add_assign(row, ty_table.row(t.sem_type));
        }
        // E_fmt (ablatable): bits · W + b with the 8-bit feature vector.
        if cfg.ablation.units_nesting {
            add_assign(row, fmt_b.data());
            for (bit, &set) in t.feat_bits.iter().enumerate() {
                if set {
                    add_assign(row, fmt_w.row(bit));
                }
            }
        }
    }
    layer_norm(store, &model.emb.ln, tmp, x);
}

/// The forward pass proper: fused forward + mean pool over non-special
/// tokens of a non-empty sequence, into `out[h]`.
fn forward<P: StageProbe>(
    model: &TabBiNModel,
    seq: &EncodedSequence,
    s: &mut InferScratch,
    out: &mut [f32],
    probe: &mut P,
) {
    let cfg = &model.cfg;
    let store = &model.store;
    let (n, h, heads) = (seq.len(), cfg.hidden, cfg.heads);
    let dh = h / heads;
    let np = n.next_multiple_of(LANES);
    let dhp = dh.next_multiple_of(LANES);
    let scale = 1.0 / (dh as f32).sqrt();

    let x = grab(&mut s.x, n * h);
    let a = grab(&mut s.a, n * h);
    let q = grab(&mut s.q, n * h);
    let k = grab(&mut s.k, n * h);
    let v = grab(&mut s.v, n * h);
    let kt = grab(&mut s.kt, dh * np);
    let vh = grab(&mut s.vh, n * dhp);
    let scores = grab(&mut s.scores, n * np);
    let inv = grab(&mut s.inv, n);
    let ctxh = grab(&mut s.ctxh, n * dhp);
    let ff = grab(&mut s.ff, n * cfg.ff);
    let mask = grab(&mut s.mask, n * np);
    let addr = grab(&mut s.addr, 3 * n);

    embed_tokens(model, seq, x, a);
    probe.done(Stage::EmbedTokens);
    visibility_mask(seq, cfg.ablation.visibility, addr, mask);
    probe.done(Stage::VisibilityMask);

    for block in &model.blocks {
        // --- attention sublayer (pre-norm) ---
        layer_norm(store, &block.ln1, x, a);
        let attn = &block.attn;
        linear(store, &attn.wq, a, q);
        linear(store, &attn.wk, a, k);
        linear(store, &attn.wv, a, v);
        // Fold the 1/sqrt(dh) score scaling into Q once (n·h multiplies)
        // instead of once per score entry (n² per head).
        for qv in q.iter_mut() {
            *qv *= scale;
        }
        probe.done(Stage::Linears);
        for head in 0..heads {
            // q/k/v are consumed head by head, so the context can go
            // straight into `a`'s head columns.
            let mut args = HeadArgs {
                q,
                k,
                v,
                mask,
                kt,
                vh,
                scores,
                inv,
                ctxh,
                ctx: a,
                n,
                h,
                off: head * dh,
                dh,
            };
            kernels::attn_scores::<Native>(&mut args);
            probe.done(Stage::AttnScores);
            kernels::attn_context::<Native>(&mut args);
            probe.done(Stage::AttnContext);
        }
        // Output projection reads the concatenated heads from `a`; reuse `q`
        // as its destination, then residual into x.
        linear(store, &attn.wo, a, q);
        add_assign(x, q);

        // --- feed-forward sublayer (pre-norm) ---
        layer_norm(store, &block.ln2, x, a);
        linear(store, &block.ff.lin1, a, ff);
        probe.done(Stage::Linears);
        kernels::gelu_row::<Native>(ff);
        probe.done(Stage::Gelu);
        linear(store, &block.ff.lin2, ff, q);
        add_assign(x, q);
        probe.done(Stage::Linears);
    }

    // Mean pool over non-special tokens (all tokens if every one is special).
    out.fill(0.0);
    let mut counted = 0usize;
    for (t, row) in seq.tokens.iter().zip(x.chunks_exact(h)) {
        if !t.special {
            add_assign(out, row);
            counted += 1;
        }
    }
    if counted == 0 {
        for row in x.chunks_exact(h) {
            add_assign(out, row);
        }
        counted = n;
    }
    let inv = 1.0 / counted as f32;
    for v in out.iter_mut() {
        *v *= inv;
    }
    probe.done(Stage::Pool);
}

/// Embeds one sequence without touching the autograd tape, into
/// `out[hidden]`. Agrees with [`TabBiNModel::embed`] elementwise to within
/// float-reassociation noise; an empty sequence embeds to zero.
pub fn embed_with_into(
    model: &TabBiNModel,
    seq: &EncodedSequence,
    scratch: &mut InferScratch,
    out: &mut [f32],
) {
    embed_profiled(model, seq, scratch, out, &mut ());
}

/// [`embed_with_into`], returning a fresh vector.
pub fn embed_with(
    model: &TabBiNModel,
    seq: &EncodedSequence,
    scratch: &mut InferScratch,
) -> Vec<f32> {
    let mut out = vec![0.0; model.cfg.hidden];
    embed_with_into(model, seq, scratch, &mut out);
    out
}

/// [`embed_with_into`] that reports each stage boundary to `probe` — how
/// the stage bench attributes the pass without a patched build.
pub fn embed_profiled<P: StageProbe>(
    model: &TabBiNModel,
    seq: &EncodedSequence,
    scratch: &mut InferScratch,
    out: &mut [f32],
    probe: &mut P,
) {
    assert_eq!(out.len(), model.cfg.hidden, "output must be one hidden-width vector");
    if seq.is_empty() {
        out.fill(0.0);
    } else {
        forward(model, seq, scratch, out, probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AblationFlags, ModelConfig, SegmentKind};
    use crate::encoding::encode_segment;
    use crate::variants::train_tokenizer;
    use tabbin_table::samples::{figure1_table, table1_sample, table2_relational};
    use tabbin_typeinfer::TypeTagger;

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
    }

    #[test]
    fn no_tape_matches_tape_within_tolerance() {
        let tables = vec![figure1_table(), table1_sample(), table2_relational()];
        let tok = train_tokenizer(&tables);
        let tagger = TypeTagger::new();
        // Every combination of the four ablation switches, at both stock
        // geometries (one and two blocks, two and four heads).
        let all_flags = (0..16).map(|b| AblationFlags {
            visibility: b & 1 != 0,
            type_inference: b & 2 != 0,
            units_nesting: b & 4 != 0,
            coordinates: b & 8 != 0,
        });
        for flags in all_flags {
            for base in [ModelConfig::tiny(), ModelConfig::default()] {
                let cfg = base.with_ablation(flags);
                let model = TabBiNModel::new(cfg, tok.vocab_size(), 7);
                let mut scratch = InferScratch::new();
                for t in &tables {
                    for kind in SegmentKind::ALL {
                        let seq = encode_segment(t, kind, &tok, &tagger, &cfg);
                        let tape = model.embed(&seq);
                        let fused = embed_with(&model, &seq, &mut scratch);
                        assert!(
                            max_abs_diff(&tape, &fused) < 1e-5,
                            "paths diverged ({:?}, hidden {}, {:?}): {}",
                            flags,
                            cfg.hidden,
                            kind,
                            max_abs_diff(&tape, &fused)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_and_cls_only_sequences() {
        let tables = vec![table2_relational()];
        let tok = train_tokenizer(&tables);
        let tagger = TypeTagger::new();
        let cfg = ModelConfig::tiny();
        let model = TabBiNModel::new(cfg, tok.vocab_size(), 3);
        let mut scratch = InferScratch::new();
        let empty = EncodedSequence::default();
        assert_eq!(embed_with(&model, &empty, &mut scratch), vec![0.0; cfg.hidden]);
        assert_eq!(model.embed(&empty), vec![0.0; cfg.hidden]);
        // A relational table has no VMD: the segment is a lone [CLS], which
        // pools over itself.
        let seq = encode_segment(&tables[0], SegmentKind::Vmd, &tok, &tagger, &cfg);
        assert_eq!(seq.len(), 1);
        let out = embed_with(&model, &seq, &mut scratch);
        assert!(max_abs_diff(&out, &model.embed(&seq)) < 1e-5);
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let tables = vec![figure1_table(), table2_relational()];
        let tok = train_tokenizer(&tables);
        let tagger = TypeTagger::new();
        let cfg = ModelConfig::tiny();
        let model = TabBiNModel::new(cfg, tok.vocab_size(), 9);
        let mut scratch = InferScratch::new();
        // Interleave sequences of different lengths through one scratch.
        let seqs: Vec<_> = tables
            .iter()
            .flat_map(|t| SegmentKind::ALL.map(|k| encode_segment(t, k, &tok, &tagger, &cfg)))
            .collect();
        let first: Vec<_> = seqs.iter().map(|s| embed_with(&model, s, &mut scratch)).collect();
        for _ in 0..3 {
            for (s, expect) in seqs.iter().zip(&first) {
                assert_eq!(&embed_with(&model, s, &mut scratch), expect);
            }
        }
    }
}
