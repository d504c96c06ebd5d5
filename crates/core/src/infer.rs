//! The inference forward pass: the one path every embedding takes.
//!
//! [`crate::model::TabBiNModel::embed`], the segment models of
//! [`crate::variants::TabBiNFamily`], the batch pipeline in
//! [`crate::batch`] and the TUTA and BioBERT baselines all run this pass.
//! The autograd tape (`TabBiNModel::forward_ids`) exists to support
//! backpropagation, so pre-training alone uses it: every op allocates an
//! output tensor onto the tape, parameters are copied into the arena, layer
//! norm caches its normalized activations, and so on. Inference needs none
//! of that. This module runs the forward pass as fused loops over raw `f32`
//! slices:
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
//! The result agrees with the tape's forward pass elementwise to ~1e-6
//! (float summation order differs slightly, and the tape's GELU calls libm
//! `tanh`; a unit test against the tape pins the 1e-5 bound) and is a pure
//! function of the one sequence: batch composition, chunking and thread
//! count cannot move a bit.

pub mod kernels;

use crate::encoding::EncodedSequence;
use crate::model::TabBiNModel;
use kernels::{HeadArgs, Native, Rows, LANES, MASK_NEG};
use std::array::from_fn;
use tabbin_table::NumericFeatures;
use tabbin_tensor::nn::{LayerNorm, Linear};
use tabbin_tensor::ParamStore;

/// Reusable buffers for the fused forward pass. Steady-state embedding
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
    /// Token indices of the rows the mean pool reads.
    pooled: Vec<u32>,
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

/// Builds the additive visibility mask directly as `f32` (0 visible,
/// `MASK_NEG` hidden), fusing `EncodedSequence::visibility` +
/// `nn::additive_mask`: one row of `mask` per token index in `queries`, in
/// that order, each over all `n` keys and padded to `np` columns with
/// `MASK_NEG`, so the attention kernels never see a ragged row. With
/// `masked` off (the `TabBiN₁` ablation) only the padding is hidden.
fn visibility_mask(
    seq: &EncodedSequence,
    masked: bool,
    queries: impl Iterator<Item = usize>,
    addr: &mut [u32],
    mask: &mut [f32],
) {
    let n = seq.len();
    let np = n.next_multiple_of(LANES);
    let (rows, rest) = addr.split_at_mut(n);
    let (cols, special) = rest.split_at_mut(n);
    for (i, t) in seq.tokens.iter().enumerate() {
        rows[i] = t.row;
        cols[i] = t.col;
        special[i] = u32::from(t.special || !masked);
    }
    for (i, mrow) in queries.zip(mask.chunks_exact_mut(np)) {
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

/// Writes the token indices the mean pool reads into `pooled`, in order —
/// the non-special tokens, or every token when all of them are special —
/// and returns their count. Branch-free: each index is written, and kept
/// by advancing the count past it.
fn pooled_rows(seq: &EncodedSequence, pooled: &mut Vec<u32>) -> usize {
    let buf = grab(pooled, seq.len());
    let mut m = 0;
    for (t, i) in seq.tokens.iter().zip(0..) {
        buf[m] = i;
        m += usize::from(!t.special);
    }
    if m == 0 {
        for (slot, i) in buf.iter_mut().zip(0..) {
            *slot = i;
        }
        m = buf.len();
    }
    m
}

/// Moves row `rows[r]` of `buf` (rows `width` wide) to row `r`, for every
/// `r`. `rows` ascends, so no row is overwritten before it is moved.
fn compact_rows(buf: &mut [f32], width: usize, rows: &[u32]) {
    for (r, &i) in rows.iter().enumerate() {
        let i = i as usize;
        if i != r {
            buf.copy_within(i * width..(i + 1) * width, r * width);
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
///
/// The pool reads only the last block's rows of the non-special tokens, so
/// that block computes everything after its keys and values — queries,
/// score and softmax rows, context, output projection, `ln2` and the
/// feed-forward — for those `m` rows alone; `[CLS]`/`[SEP]` stay in as keys
/// and values. Every kernel computes a row from that row's inputs alone, in
/// a fixed order, so each kept row — and the pool, which adds the same rows
/// in the same order — is bit for bit what the all-rows pass computes.
/// Earlier blocks run every row: the next block's keys need them.
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
    let layers = model.blocks.len();

    let m = pooled_rows(seq, &mut s.pooled);
    let pooled = &s.pooled[..m];
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
    // Only a block before the last needs every token's mask row.
    let masked = cfg.ablation.visibility;
    if layers > 1 {
        visibility_mask(seq, masked, 0..n, addr, mask);
    } else {
        visibility_mask(seq, masked, pooled.iter().map(|&i| i as usize), addr, mask);
    }
    probe.done(Stage::VisibilityMask);

    // Rows of `x` still carried: all of them until the last block.
    let mut rows = n;
    for (b, block) in model.blocks.iter().enumerate() {
        // --- attention sublayer (pre-norm) ---
        layer_norm(store, &block.ln1, x, a);
        let attn = &block.attn;
        linear(store, &attn.wk, a, k);
        linear(store, &attn.wv, a, v);
        if b + 1 == layers {
            // Keys and values are in; from here on the pooled rows alone.
            compact_rows(x, h, pooled);
            compact_rows(a, h, pooled);
            if layers > 1 {
                compact_rows(mask, np, pooled);
            }
            rows = m;
        }
        let (x, a, q, ff) =
            (&mut x[..rows * h], &mut a[..rows * h], &mut q[..rows * h], &mut ff[..rows * cfg.ff]);
        linear(store, &attn.wq, a, q);
        // Fold the 1/sqrt(dh) score scaling into Q once (rows·h multiplies)
        // instead of once per score entry (rows·n per head).
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
                m: rows,
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
    if layers == 0 {
        compact_rows(x, h, pooled);
    }

    // Mean pool: the first `m` rows of `x` are the pooled tokens, in order.
    out.fill(0.0);
    for row in x[..m * h].chunks_exact(h) {
        add_assign(out, row);
    }
    let inv = 1.0 / m as f32;
    for v in out.iter_mut() {
        *v *= inv;
    }
    probe.done(Stage::Pool);
}

/// Embeds one sequence into `out[hidden]` (what [`TabBiNModel::embed`]
/// returns); an empty sequence embeds to zero.
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
    use crate::encoding::{encode_column, encode_row, encode_segment, encode_text};
    use crate::variants::train_tokenizer;
    use proptest::prelude::*;
    use tabbin_table::samples::{figure1_table, table1_sample, table2_relational};
    use tabbin_table::{CellValue, Table, Unit};
    use tabbin_tokenizer::Tokenizer;
    use tabbin_typeinfer::TypeTagger;

    fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every combination of the four ablation switches.
    fn all_flags() -> impl Iterator<Item = AblationFlags> {
        (0..16).map(|b| AblationFlags {
            visibility: b & 1 != 0,
            type_inference: b & 2 != 0,
            units_nesting: b & 4 != 0,
            coordinates: b & 8 != 0,
        })
    }

    /// The all-rows pass the pool-aware [`forward`] replaced, kept as its
    /// oracle: every block computes every token's row, all under one full
    /// visibility mask, and the pool then picks the non-special rows (all
    /// rows when every token is special). An empty sequence embeds to zero.
    fn forward_all_rows(model: &TabBiNModel, seq: &EncodedSequence) -> Vec<f32> {
        let cfg = &model.cfg;
        let store = &model.store;
        let (n, h, heads) = (seq.len(), cfg.hidden, cfg.heads);
        let mut out = vec![0.0; h];
        if n == 0 {
            return out;
        }
        let dh = h / heads;
        let np = n.next_multiple_of(LANES);
        let dhp = dh.next_multiple_of(LANES);
        let scale = 1.0 / (dh as f32).sqrt();
        let buf = |len| vec![f32::NAN; len];
        let (mut x, mut a, mut q) = (buf(n * h), buf(n * h), buf(n * h));
        let (mut k, mut v, mut ff) = (buf(n * h), buf(n * h), buf(n * cfg.ff));
        let (mut kt, mut vh, mut ctxh) = (buf(dh * np), buf(n * dhp), buf(n * dhp));
        let (mut scores, mut inv, mut mask) = (buf(n * np), buf(n), buf(n * np));
        let mut addr = vec![0u32; 3 * n];

        embed_tokens(model, seq, &mut x, &mut a);
        visibility_mask(seq, cfg.ablation.visibility, 0..n, &mut addr, &mut mask);
        for block in &model.blocks {
            layer_norm(store, &block.ln1, &x, &mut a);
            let attn = &block.attn;
            linear(store, &attn.wq, &a, &mut q);
            linear(store, &attn.wk, &a, &mut k);
            linear(store, &attn.wv, &a, &mut v);
            for qv in q.iter_mut() {
                *qv *= scale;
            }
            for head in 0..heads {
                let mut args = HeadArgs {
                    q: &q,
                    k: &k,
                    v: &v,
                    mask: &mask,
                    kt: &mut kt,
                    vh: &mut vh,
                    scores: &mut scores,
                    inv: &mut inv,
                    ctxh: &mut ctxh,
                    ctx: &mut a,
                    m: n,
                    n,
                    h,
                    off: head * dh,
                    dh,
                };
                kernels::attn_scores::<Native>(&mut args);
                kernels::attn_context::<Native>(&mut args);
            }
            linear(store, &attn.wo, &a, &mut q);
            add_assign(&mut x, &q);
            layer_norm(store, &block.ln2, &x, &mut a);
            linear(store, &block.ff.lin1, &a, &mut ff);
            kernels::gelu_row::<Native>(&mut ff);
            linear(store, &block.ff.lin2, &ff, &mut q);
            add_assign(&mut x, &q);
        }
        let mut counted = 0usize;
        for (t, row) in seq.tokens.iter().zip(x.chunks_exact(h)) {
            if !t.special {
                add_assign(&mut out, row);
                counted += 1;
            }
        }
        if counted == 0 {
            for row in x.chunks_exact(h) {
                add_assign(&mut out, row);
            }
            counted = n;
        }
        let inv = 1.0 / counted as f32;
        for v in out.iter_mut() {
            *v *= inv;
        }
        out
    }

    /// Every sequence a table embedding or a column/entity embedding feeds
    /// the model: the four segments, the caption, each column and each row.
    fn sequences(t: &Table, tok: &Tokenizer, cfg: &ModelConfig) -> Vec<EncodedSequence> {
        let tagger = TypeTagger::new();
        let mut seqs: Vec<_> =
            SegmentKind::ALL.iter().map(|&k| encode_segment(t, k, tok, &tagger, cfg)).collect();
        seqs.push(encode_text(&t.caption, tok, &tagger, cfg));
        seqs.extend((0..t.n_cols()).map(|j| encode_column(t, j, tok, &tagger, cfg)));
        seqs.extend((0..t.n_rows()).map(|i| encode_row(t, i, tok, &tagger, cfg)));
        seqs
    }

    /// Asserts the pool-aware pass equals [`forward_all_rows`] bit for bit
    /// on every sequence of `tables`, under each of `flags` at one block
    /// (`tiny`) and two (`default`), through one reused scratch.
    fn assert_pool_aware_is_all_rows(tables: &[Table], flags: impl Iterator<Item = AblationFlags>) {
        let tok = train_tokenizer(tables);
        let mut scratch = InferScratch::new();
        for flags in flags {
            for base in [ModelConfig::tiny(), ModelConfig::default()] {
                let cfg = base.with_ablation(flags);
                let model = TabBiNModel::new(cfg, tok.vocab_size(), 11);
                for t in tables {
                    for seq in sequences(t, &tok, &cfg) {
                        assert_eq!(
                            bits(&embed_with(&model, &seq, &mut scratch)),
                            bits(&forward_all_rows(&model, &seq)),
                            "{flags:?}, {} layers, {} tokens",
                            cfg.layers,
                            seq.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pool_aware_pass_equals_all_rows_pass_bit_for_bit() {
        let tables = vec![figure1_table(), table1_sample(), table2_relational()];
        assert_pool_aware_is_all_rows(&tables, all_flags());
        // The relational table's VMD is a lone [CLS], which pools over itself.
        let tok = train_tokenizer(&tables);
        let cfg = ModelConfig::tiny();
        let lone = encode_segment(&tables[2], SegmentKind::Vmd, &tok, &TypeTagger::new(), &cfg);
        assert_eq!(lone.len(), 1);
        assert!(lone.tokens[0].special);
        let empty = EncodedSequence::default();
        let mut scratch = InferScratch::new();
        for base in [ModelConfig::tiny(), ModelConfig::default()] {
            let model = TabBiNModel::new(base, tok.vocab_size(), 5);
            for seq in [&lone, &empty] {
                let fused = embed_with(&model, seq, &mut scratch);
                assert_eq!(bits(&fused), bits(&forward_all_rows(&model, seq)));
            }
        }
    }

    fn cell_value() -> impl Strategy<Value = CellValue> {
        prop_oneof![
            "[a-z ]{0,16}".prop_map(CellValue::text),
            (-1e6f64..1e6).prop_map(|v| CellValue::number(v, Some(Unit::Time))),
            (0f64..50.0).prop_map(|v| CellValue::range(v, v + 1.5, None)),
            (0f64..10.0, 0f64..2.0).prop_map(|(m, s)| CellValue::gaussian(m, s, Some(Unit::Stats))),
            Just(CellValue::Empty),
        ]
    }

    /// The arbitrary tables of `tests/prop_batch.rs`: up to 3×3 cells of
    /// every value kind, flat HMD, with or without a VMD.
    fn arb_table() -> impl Strategy<Value = Table> {
        (1..4usize, 1..4usize).prop_flat_map(|(rows, cols)| {
            (
                proptest::collection::vec(proptest::collection::vec(cell_value(), cols), rows),
                prop_oneof![Just(true), Just(false)],
            )
                .prop_map(move |(grid, with_vmd)| {
                    let labels: Vec<String> = (0..cols).map(|i| format!("attr{i}")).collect();
                    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                    let mut b = Table::builder("prop batch").hmd_flat(&refs);
                    if with_vmd {
                        let vlabels: Vec<String> = (0..rows).map(|i| format!("row{i}")).collect();
                        let vrefs: Vec<&str> = vlabels.iter().map(String::as_str).collect();
                        b = b.vmd_flat(&vrefs);
                    }
                    for row in grid {
                        b = b.row(row);
                    }
                    b.build()
                })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn pool_aware_pass_equals_all_rows_pass_on_arbitrary_tables(
            tables in proptest::collection::vec(arb_table(), 1..4),
            flags in 0..16usize,
        ) {
            assert_pool_aware_is_all_rows(&tables, all_flags().skip(flags).take(1));
        }
    }

    #[test]
    fn no_tape_matches_tape_within_tolerance() {
        let tables = vec![figure1_table(), table1_sample(), table2_relational()];
        let tok = train_tokenizer(&tables);
        let tagger = TypeTagger::new();
        // Every combination of the four ablation switches, at both stock
        // geometries (one and two blocks, two and four heads).
        for flags in all_flags() {
            for base in [ModelConfig::tiny(), ModelConfig::default()] {
                let cfg = base.with_ablation(flags);
                let model = TabBiNModel::new(cfg, tok.vocab_size(), 7);
                let mut scratch = InferScratch::new();
                for t in &tables {
                    for kind in SegmentKind::ALL {
                        let seq = encode_segment(t, kind, &tok, &tagger, &cfg);
                        let tape = model.embed_on_tape(&seq);
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
        assert_eq!(model.embed_on_tape(&empty), vec![0.0; cfg.hidden]);
        // A relational table has no VMD: the segment is a lone [CLS], which
        // pools over itself.
        let seq = encode_segment(&tables[0], SegmentKind::Vmd, &tok, &tagger, &cfg);
        assert_eq!(seq.len(), 1);
        let out = embed_with(&model, &seq, &mut scratch);
        assert!(max_abs_diff(&out, &model.embed_on_tape(&seq)) < 1e-5);
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
