//! Self-supervised pre-training (§3.3): Masked Language Modeling plus
//! Cell-level Cloze.
//!
//! * **MLM** — 15% of non-special tokens are selected; of those, 80% are
//!   replaced with `[MASK]`, 10% with a random vocabulary token, 10% kept.
//!   The model predicts the original id at each selected position.
//! * **CLC** — one whole cell is masked (every token becomes `[MASK]`); the
//!   pooled hidden state of the masked span must select the original cell
//!   among all cells of the sequence by dot-product against their mean token
//!   embeddings.

use crate::encoding::EncodedSequence;
use crate::model::TabBiNModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabbin_tensor::optim::Adam;
use tabbin_tensor::{Graph, Tensor};
use tabbin_tokenizer::SpecialToken;

/// Pre-training hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct PretrainOptions {
    /// Optimization steps.
    pub steps: usize,
    /// Sequences per step.
    pub batch: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Fraction of tokens selected for MLM.
    pub mask_prob: f64,
    /// Weight of the CLC loss relative to MLM.
    pub clc_weight: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PretrainOptions {
    fn default() -> Self {
        Self { steps: 200, batch: 4, lr: 1e-3, mask_prob: 0.15, clc_weight: 0.5, seed: 17 }
    }
}

/// Per-step training telemetry.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepStats {
    /// Combined loss.
    pub loss: f32,
    /// MLM component.
    pub mlm_loss: f32,
    /// CLC component (0 when the step had no eligible cell).
    pub clc_loss: f32,
}

/// The phases of pre-training that the `pretrain` bench attributes time to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainPhase {
    /// Picking and corrupting one sequence, the encoder forward pass, the
    /// MLM and CLC heads and their losses.
    Forward,
    /// Backpropagation through the tape and folding the parameter gradients
    /// into the store.
    Backward,
    /// Gradient clipping, the Adam update and zeroing the gradients, once
    /// per batch.
    Optimizer,
}

/// Told at every phase boundary of [`pretrain_profiled`] which phase just
/// finished. The unit probe does nothing and compiles away.
pub trait TrainProbe {
    /// `phase` ran from the previous call (or the start of the run) to now.
    fn done(&mut self, phase: TrainPhase);
}

impl TrainProbe for () {
    #[inline(always)]
    fn done(&mut self, _: TrainPhase) {}
}

/// Runs pre-training of `model` over `sequences`, returning per-step stats.
///
/// Sequences too short to mask are skipped; if every sequence is degenerate
/// the function returns an empty curve without touching the parameters.
pub fn pretrain(
    model: &mut TabBiNModel,
    sequences: &[EncodedSequence],
    opts: &PretrainOptions,
) -> Vec<StepStats> {
    pretrain_profiled(model, sequences, opts, &mut ())
}

/// [`pretrain`] that reports each phase boundary to `probe` — how the
/// pre-training bench splits a step without a patched build. The same
/// parameters come out whatever the probe.
pub fn pretrain_profiled<P: TrainProbe>(
    model: &mut TabBiNModel,
    sequences: &[EncodedSequence],
    opts: &PretrainOptions,
    probe: &mut P,
) -> Vec<StepStats> {
    let usable: Vec<&EncodedSequence> =
        sequences.iter().filter(|s| s.tokens.iter().any(|t| !t.special)).collect();
    if usable.is_empty() || opts.steps == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut opt = Adam::new(opts.lr);
    let mut curve = Vec::with_capacity(opts.steps);
    // One arena for the whole run: each step clears and reuses the tape
    // instead of reallocating it (see `Graph::reset`).
    let mut g = Graph::new();
    for _ in 0..opts.steps {
        let mut stats = StepStats::default();
        let mut contributed = 0usize;
        for _ in 0..opts.batch {
            let seq = usable[rng.random_range(0..usable.len())];
            if let Some(s) = train_step(model, seq, opts, &mut rng, &mut g, probe) {
                stats.loss += s.loss;
                stats.mlm_loss += s.mlm_loss;
                stats.clc_loss += s.clc_loss;
                contributed += 1;
            }
        }
        if contributed > 0 {
            let inv = 1.0 / contributed as f32;
            stats.loss *= inv;
            stats.mlm_loss *= inv;
            stats.clc_loss *= inv;
            model.store.clip_grad_norm(5.0);
            opt.step(&mut model.store);
            model.store.zero_grads();
            probe.done(TrainPhase::Optimizer);
        }
        curve.push(stats);
    }
    curve
}

/// One forward/backward on one sequence; gradients accumulate into the
/// model's store. The caller-provided tape is reset and reused. Returns
/// `None` when nothing could be masked.
fn train_step<P: TrainProbe>(
    model: &mut TabBiNModel,
    seq: &EncodedSequence,
    opts: &PretrainOptions,
    rng: &mut StdRng,
    g: &mut Graph,
    probe: &mut P,
) -> Option<StepStats> {
    let n = seq.len();
    let vocab = model.vocab_size() as u32;
    let mut ids: Vec<u32> = seq.tokens.iter().map(|t| t.vocab_id).collect();
    let mut targets = vec![-1i64; n];

    // --- MLM corruption ---
    let candidates: Vec<usize> =
        seq.tokens.iter().enumerate().filter(|(_, t)| !t.special).map(|(i, _)| i).collect();
    let mut masked_any = false;
    for &i in &candidates {
        if rng.random::<f64>() >= opts.mask_prob {
            continue;
        }
        targets[i] = seq.tokens[i].vocab_id as i64;
        masked_any = true;
        let r: f64 = rng.random();
        if r < 0.8 {
            ids[i] = SpecialToken::Mask.id();
        } else if r < 0.9 {
            ids[i] = rng.random_range(SpecialToken::ALL.len() as u32..vocab);
        } // else keep original id
    }
    if !masked_any {
        // Guarantee progress: mask one random candidate.
        let i = candidates[rng.random_range(0..candidates.len())];
        targets[i] = seq.tokens[i].vocab_id as i64;
        ids[i] = SpecialToken::Mask.id();
        masked_any = true;
    }
    debug_assert!(masked_any);

    // --- CLC: mask one whole cell when the sequence has at least 2 cells ---
    let cells = seq.cell_token_indices();
    let eligible: Vec<usize> = (0..cells.len()).filter(|&c| !cells[c].is_empty()).collect();
    let clc_cell = if eligible.len() >= 2 {
        let c = eligible[rng.random_range(0..eligible.len())];
        for &i in &cells[c] {
            ids[i] = SpecialToken::Mask.id();
            targets[i] = seq.tokens[i].vocab_id as i64; // cell tokens also join MLM
        }
        Some(c)
    } else {
        None
    };

    g.reset();
    let hidden = model.forward_ids(g, seq, &ids);

    // MLM loss on the selected rows only.
    let masked_rows: Vec<usize> = (0..n).filter(|&i| targets[i] >= 0).collect();
    let sel = g.row_select(hidden, &masked_rows);
    let logits = model.mlm_head.forward(g, &model.store, sel);
    let sel_targets: Vec<i64> = masked_rows.iter().map(|&i| targets[i]).collect();
    let mlm_loss = g.cross_entropy_rows(logits, &sel_targets);

    // CLC loss: pooled masked-cell state vs candidate cell token-embedding
    // means.
    let (loss, clc_value) = match clc_cell {
        Some(c) => {
            let span = g.row_select(hidden, &cells[c]);
            let pooled = g.mean_rows(span);
            let proj = model.clc_proj.forward(g, &model.store, pooled);
            let mut cand = Tensor::zeros(&[eligible.len(), model.cfg.hidden]);
            let mut target_idx = 0i64;
            for (k, &cell) in eligible.iter().enumerate() {
                let tok_ids: Vec<u32> =
                    cells[cell].iter().map(|&i| seq.tokens[i].vocab_id).collect();
                let mean = model.token_embedding_mean(&tok_ids);
                cand.row_mut(k).copy_from_slice(&mean);
                if cell == c {
                    target_idx = k as i64;
                }
            }
            let cand_in = g.input(cand);
            let scores = g.matmul_trans_b(proj, cand_in); // [1, n_candidates]
            let clc_loss = g.cross_entropy_rows(scores, &[target_idx]);
            let weighted = g.scalar_mul(clc_loss, opts.clc_weight);
            let total = g.add(mlm_loss, weighted);
            (total, g.value(clc_loss).data()[0])
        }
        None => (mlm_loss, 0.0),
    };

    let stats = StepStats {
        loss: g.value(loss).data()[0],
        mlm_loss: g.value(mlm_loss).data()[0],
        clc_loss: clc_value,
    };
    probe.done(TrainPhase::Forward);
    g.backward(loss);
    g.accumulate_grads(&mut model.store);
    probe.done(TrainPhase::Backward);
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, SegmentKind};
    use crate::encoding::encode_segment;
    use tabbin_table::samples::{figure1_table, table1_sample, table2_relational};
    use tabbin_tokenizer::Tokenizer;
    use tabbin_typeinfer::TypeTagger;

    fn sequences(cfg: &ModelConfig) -> (Tokenizer, Vec<EncodedSequence>) {
        let tables = vec![figure1_table(), table1_sample(), table2_relational()];
        let mut texts = Vec::new();
        for t in &tables {
            texts.push(t.caption.clone());
            for (_, _, c) in t.data.iter_indexed() {
                texts.push(c.render());
            }
            for (l, _) in t.hmd.all_labels() {
                texts.push(l.to_string());
            }
        }
        let tok = Tokenizer::train(texts.iter().map(String::as_str), 2000, 1);
        let tagger = TypeTagger::new();
        let seqs: Vec<EncodedSequence> = tables
            .iter()
            .map(|t| encode_segment(t, SegmentKind::DataRow, &tok, &tagger, cfg))
            .collect();
        (tok, seqs)
    }

    #[test]
    fn loss_decreases_over_training() {
        let cfg = ModelConfig::tiny();
        let (tok, seqs) = sequences(&cfg);
        let mut model = TabBiNModel::new(cfg, tok.vocab_size(), 5);
        let opts = PretrainOptions { steps: 40, batch: 2, lr: 2e-3, ..PretrainOptions::default() };
        let curve = pretrain(&mut model, &seqs, &opts);
        assert_eq!(curve.len(), 40);
        let first: f32 = curve[..5].iter().map(|s| s.loss).sum::<f32>() / 5.0;
        let last: f32 = curve[35..].iter().map(|s| s.loss).sum::<f32>() / 5.0;
        assert!(last < first, "pre-training loss did not decrease: first {first}, last {last}");
    }

    #[test]
    fn pretraining_changes_embeddings() {
        let cfg = ModelConfig::tiny();
        let (tok, seqs) = sequences(&cfg);
        let mut model = TabBiNModel::new(cfg, tok.vocab_size(), 5);
        let before = model.embed(&seqs[0]);
        let opts = PretrainOptions { steps: 5, ..PretrainOptions::default() };
        pretrain(&mut model, &seqs, &opts);
        let after = model.embed(&seqs[0]);
        assert_ne!(before, after);
    }

    #[test]
    fn empty_corpus_is_a_noop() {
        let cfg = ModelConfig::tiny();
        let mut model = TabBiNModel::new(cfg, 100, 5);
        let curve = pretrain(&mut model, &[], &PretrainOptions::default());
        assert!(curve.is_empty());
    }

    #[test]
    fn stats_components_are_finite() {
        let cfg = ModelConfig::tiny();
        let (tok, seqs) = sequences(&cfg);
        let mut model = TabBiNModel::new(cfg, tok.vocab_size(), 5);
        let opts = PretrainOptions { steps: 3, ..PretrainOptions::default() };
        for s in pretrain(&mut model, &seqs, &opts) {
            assert!(s.loss.is_finite());
            assert!(s.mlm_loss.is_finite());
            assert!(s.clc_loss.is_finite());
        }
    }
}
