//! The TabBiN encoder: embedding layer + visibility-masked transformer stack
//! (Eq. 1) + MLM and Cell-level-Cloze heads.

use crate::config::ModelConfig;
use crate::embedding::EmbeddingLayer;
use crate::encoding::EncodedSequence;
use crate::infer::{embed_with, InferScratch};
use tabbin_tensor::nn::{additive_mask, AttentionConfig, EncoderBlock, Linear};
use tabbin_tensor::{Graph, NodeId, ParamStore, Tensor};

/// One TabBiN model instance (the paper trains four — one per segment kind —
/// see [`crate::variants::TabBiNFamily`]).
#[derive(Debug)]
pub struct TabBiNModel {
    /// Model geometry and ablation flags.
    pub cfg: ModelConfig,
    /// All trainable parameters.
    pub store: ParamStore,
    /// The six-component embedding layer.
    pub emb: EmbeddingLayer,
    /// Transformer encoder blocks.
    pub blocks: Vec<EncoderBlock>,
    /// Masked-language-model head `[H, vocab]`.
    pub mlm_head: Linear,
    /// Cell-level-Cloze projection `[H, H]`.
    pub clc_proj: Linear,
    vocab: usize,
}

impl TabBiNModel {
    /// Builds a model with freshly initialized parameters.
    pub fn new(cfg: ModelConfig, vocab: usize, seed: u64) -> Self {
        cfg.validate();
        let mut store = ParamStore::new();
        let emb = EmbeddingLayer::new(&mut store, &cfg, vocab, seed);
        let attn_cfg = AttentionConfig { d_model: cfg.hidden, heads: cfg.heads };
        let blocks = (0..cfg.layers)
            .map(|l| {
                EncoderBlock::new(
                    &mut store,
                    &format!("enc{l}"),
                    attn_cfg,
                    cfg.ff,
                    seed ^ (l as u64 + 1),
                )
            })
            .collect();
        let mlm_head = Linear::new(&mut store, "mlm", cfg.hidden, vocab, seed ^ 0xee);
        let clc_proj = Linear::new(&mut store, "clc", cfg.hidden, cfg.hidden, seed ^ 0xef);
        Self { cfg, store, emb, blocks, mlm_head, clc_proj, vocab }
    }

    /// Vocabulary size this model was built for.
    pub fn vocab_size(&self) -> usize {
        self.vocab
    }

    /// Total trainable scalars.
    pub fn parameter_count(&self) -> usize {
        self.store.scalar_count()
    }

    /// Full forward pass over a sequence with (possibly corrupted) `ids` on
    /// the autograd tape, returning the `[n, H]` hidden states — what
    /// pre-training differentiates. The visibility matrix enters as the
    /// additive attention mask unless ablated (`TabBiN₁`).
    pub fn forward_ids(&self, g: &mut Graph, seq: &EncodedSequence, ids: &[u32]) -> NodeId {
        let mut x = self.emb.forward(g, &self.store, seq, ids);
        let mask: Option<Tensor> = if self.cfg.ablation.visibility {
            Some(additive_mask(&seq.visibility()))
        } else {
            None
        };
        for block in &self.blocks {
            x = block.forward(g, &self.store, x, mask.as_ref());
        }
        x
    }

    /// Inference-only embedding of a sequence: the fused forward pass
    /// ([`crate::infer`]) mean-pooled over the non-special tokens, as a plain
    /// `H`-vector. An empty sequence (e.g. the VMD segment of a relational
    /// table) embeds to zero.
    pub fn embed(&self, seq: &EncodedSequence) -> Vec<f32> {
        embed_with(self, seq, &mut InferScratch::new())
    }

    /// Mean of the raw token embeddings (`E_tok` rows) for a list of vocab
    /// ids — the candidate representation used by the Cell-level Cloze
    /// objective.
    pub fn token_embedding_mean(&self, ids: &[u32]) -> Vec<f32> {
        let table = self.store.value(self.emb.tok.table);
        let mut acc = vec![0.0f32; self.cfg.hidden];
        if ids.is_empty() {
            return acc;
        }
        for &id in ids {
            let row = table.row(id as usize);
            for (a, &v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        let inv = 1.0 / ids.len() as f32;
        for a in &mut acc {
            *a *= inv;
        }
        acc
    }
}

#[cfg(test)]
impl TabBiNModel {
    /// The tape-side reference the fused kernel is tested against: the
    /// forward pass on the autograd tape, mean-pooled over the non-special
    /// tokens (all tokens when every one is special). An empty sequence
    /// embeds to zero.
    pub(crate) fn embed_on_tape(&self, seq: &EncodedSequence) -> Vec<f32> {
        if seq.is_empty() {
            return vec![0.0; self.cfg.hidden];
        }
        let mut g = Graph::new();
        let ids: Vec<u32> = seq.tokens.iter().map(|t| t.vocab_id).collect();
        let h = self.forward_ids(&mut g, seq, &ids);
        let rows: Vec<usize> =
            seq.tokens.iter().enumerate().filter(|(_, t)| !t.special).map(|(i, _)| i).collect();
        let pooled = if rows.is_empty() {
            g.mean_rows(h)
        } else {
            let sel = g.row_select(h, &rows);
            g.mean_rows(sel)
        };
        g.value(pooled).data().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SegmentKind;
    use crate::encoding::encode_segment;
    use tabbin_table::samples::{figure1_table, table2_relational};
    use tabbin_tokenizer::Tokenizer;
    use tabbin_typeinfer::TypeTagger;

    fn fixtures() -> (Tokenizer, TypeTagger, ModelConfig) {
        let tok = Tokenizer::train(
            ["name age job sam ava kim engineer lawyer scientist overall survival months"],
            500,
            1,
        );
        (tok, TypeTagger::new(), ModelConfig::tiny())
    }

    #[test]
    fn forward_and_pool_shapes() {
        let (tok, tagger, cfg) = fixtures();
        let model = TabBiNModel::new(cfg, tok.vocab_size(), 3);
        let seq = encode_segment(&table2_relational(), SegmentKind::DataRow, &tok, &tagger, &cfg);
        let ids: Vec<u32> = seq.tokens.iter().map(|t| t.vocab_id).collect();
        let mut g = Graph::new();
        let h = model.forward_ids(&mut g, &seq, &ids);
        assert_eq!(g.value(h).shape(), &[seq.len(), cfg.hidden]);
        assert_eq!(model.embed_on_tape(&seq).len(), cfg.hidden);
        assert_eq!(model.embed(&seq).len(), cfg.hidden);
    }

    #[test]
    fn embed_is_deterministic() {
        let (tok, tagger, cfg) = fixtures();
        let model = TabBiNModel::new(cfg, tok.vocab_size(), 3);
        let seq = encode_segment(&figure1_table(), SegmentKind::DataRow, &tok, &tagger, &cfg);
        assert_eq!(model.embed(&seq), model.embed(&seq));
    }

    #[test]
    fn embed_of_empty_sequence_is_zero() {
        let (tok, tagger, cfg) = fixtures();
        let model = TabBiNModel::new(cfg, tok.vocab_size(), 3);
        // Relational tables have no VMD; the VMD segment encodes empty.
        let seq = encode_segment(&table2_relational(), SegmentKind::Vmd, &tok, &tagger, &cfg);
        // Only a [CLS] token, so pooling falls back; or fully empty.
        let emb = model.embed(&seq);
        assert_eq!(emb.len(), cfg.hidden);
    }

    #[test]
    fn visibility_ablation_changes_hidden_states() {
        let (tok, tagger, cfg) = fixtures();
        let model = TabBiNModel::new(cfg, tok.vocab_size(), 3);
        let seq = encode_segment(&table2_relational(), SegmentKind::DataRow, &tok, &tagger, &cfg);
        let full = model.embed(&seq);
        let mut ablated = TabBiNModel::new(
            cfg.with_ablation(crate::config::AblationFlags::no_visibility()),
            tok.vocab_size(),
            3,
        );
        // Same weights: copy the store so only the mask differs.
        ablated.store = model.store.clone();
        let without = ablated.embed(&seq);
        assert_ne!(full, without);
    }

    #[test]
    fn different_seeds_give_different_models() {
        let (tok, tagger, cfg) = fixtures();
        let seq = encode_segment(&table2_relational(), SegmentKind::DataRow, &tok, &tagger, &cfg);
        let a = TabBiNModel::new(cfg, tok.vocab_size(), 1).embed(&seq);
        let b = TabBiNModel::new(cfg, tok.vocab_size(), 2).embed(&seq);
        assert_ne!(a, b);
    }

    #[test]
    fn token_embedding_mean_averages_rows() {
        let (tok, _, cfg) = fixtures();
        let model = TabBiNModel::new(cfg, tok.vocab_size(), 3);
        let a = model.token_embedding_mean(&[6]);
        let b = model.token_embedding_mean(&[7]);
        let ab = model.token_embedding_mean(&[6, 7]);
        for i in 0..a.len() {
            assert!((ab[i] - 0.5 * (a[i] + b[i])).abs() < 1e-6);
        }
    }

    #[test]
    fn parameter_count_is_positive_and_scales() {
        let (tok, _, cfg) = fixtures();
        let small = TabBiNModel::new(cfg, tok.vocab_size(), 3).parameter_count();
        let big_cfg = ModelConfig { layers: 2, ..cfg };
        let big = TabBiNModel::new(big_cfg, tok.vocab_size(), 3).parameter_count();
        assert!(small > 0);
        assert!(big > small);
    }
}
