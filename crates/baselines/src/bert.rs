//! The BioBERT baseline stand-in: the shared transformer over flat sequences.
//!
//! A [`TabBiNModel`] built, pre-trained and embedded (through the fused
//! forward pass of `tabbin_core::infer`) exactly as TUTA's is;
//! only its input differs, mirroring what the paper's BioBERT rows measure.
//! The table is linearized to one token sequence (caption, metadata labels,
//! then cells row-major) whose only structure is each token's sequence
//! position: **no** visibility matrix, **no** table coordinates, **no**
//! numeric values, **no** type or unit/nesting features, and **no** cells —
//! the whole sequence is one, so Cell-level Cloze never fires and
//! pre-training is MLM alone. Numbers surface as `[VAL]` through the shared
//! tokenizer, so numeric content is opaque to this model — exactly the
//! weakness the paper exploits on numeric CC.

use crate::seq::SeqBuilder;
use tabbin_core::config::{AblationFlags, ModelConfig};
use tabbin_core::encoding::EncodedSequence;
use tabbin_core::model::TabBiNModel;
use tabbin_core::pretrain::{pretrain, PretrainOptions, StepStats};
use tabbin_table::{CellValue, Table};
use tabbin_tokenizer::{SpecialToken, Tokenizer};

/// The flat BERT-style baseline.
#[derive(Debug)]
pub struct BertSim {
    /// The underlying encoder (visibility, type and unit embeddings
    /// disabled; the coordinate embedding carries the sequence position).
    pub model: TabBiNModel,
}

impl BertSim {
    /// Builds the baseline with BERT's feature set.
    pub fn new(base: ModelConfig, vocab: usize, seed: u64) -> Self {
        let cfg = base.with_ablation(AblationFlags {
            visibility: false,
            type_inference: false,
            units_nesting: false,
            coordinates: true,
        });
        Self { model: TabBiNModel::new(cfg, vocab, seed) }
    }

    /// Linearizes a table: caption, HMD labels, VMD labels, then cells
    /// row-major, each followed by `[SEP]` (nested tables flattened as text).
    pub fn encode_table(&self, table: &Table, tok: &Tokenizer) -> EncodedSequence {
        let mut b = SeqBuilder::flat(tok, &self.model.cfg);
        b.special(SpecialToken::Cls);
        b.text(&table.caption);
        for (l, _) in table.hmd.all_labels().into_iter().chain(table.vmd.all_labels()) {
            b.text(l);
        }
        for (_, _, c) in table.data.iter_indexed() {
            match c {
                CellValue::Nested(inner) => {
                    for (l, _) in inner.hmd.all_labels() {
                        b.text(l);
                    }
                    for (_, _, v) in inner.data.iter_indexed() {
                        b.text(&v.render());
                    }
                }
                other => b.text(&other.render()),
            }
            b.special(SpecialToken::Sep);
        }
        b.finish()
    }

    /// `[CLS]` and free text as a flat sequence.
    pub fn encode_text(&self, text: &str, tok: &Tokenizer) -> EncodedSequence {
        let mut b = SeqBuilder::flat(tok, &self.model.cfg);
        b.special(SpecialToken::Cls);
        b.text(text);
        b.finish()
    }

    /// Pre-trains with the shared objectives (MLM alone: see the module
    /// docs).
    pub fn pretrain(
        &mut self,
        tables: &[Table],
        tok: &Tokenizer,
        opts: &PretrainOptions,
    ) -> Vec<StepStats> {
        let seqs: Vec<EncodedSequence> = tables.iter().map(|t| self.encode_table(t, tok)).collect();
        pretrain(&mut self.model, &seqs, opts)
    }

    /// Embedding of free text.
    pub fn embed_text(&self, text: &str, tok: &Tokenizer) -> Vec<f32> {
        self.model.embed(&self.encode_text(text, tok))
    }

    /// Embedding of a whole table (linearized).
    pub fn embed_table(&self, table: &Table, tok: &Tokenizer) -> Vec<f32> {
        self.model.embed(&self.encode_table(table, tok))
    }

    /// Embedding of one column: header label plus rendered cells.
    pub fn embed_column(&self, table: &Table, j: usize, tok: &Tokenizer) -> Vec<f32> {
        let mut text = table.hmd.leaf_labels().get(j).map(|s| s.to_string()).unwrap_or_default();
        for cell in table.column_text(j) {
            text.push(' ');
            text.push_str(&cell);
        }
        self.embed_text(&text, tok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabbin_table::samples::{figure1_table, table2_relational};
    use tabbin_typeinfer::SemType;

    fn tok() -> Tokenizer {
        Tokenizer::train(
            ["name age job sam ava kim engineer lawyer scientist overall survival months cohort"],
            500,
            1,
        )
    }

    fn bert(t: &Tokenizer, max_seq: usize) -> BertSim {
        BertSim::new(ModelConfig { max_seq, ..ModelConfig::tiny() }, t.vocab_size(), 7)
    }

    #[test]
    fn linearize_starts_with_cls_and_bounds_length() {
        let t = tok();
        let seq = bert(&t, 32).encode_table(&figure1_table(), &t);
        assert_eq!(seq.tokens[0].vocab_id, SpecialToken::Cls.id());
        assert!(seq.len() <= 32);
    }

    #[test]
    fn pretrain_reduces_loss() {
        let t = tok();
        let tables = [table2_relational(), figure1_table()];
        let mut model = bert(&t, 48);
        let curve = model.pretrain(
            &tables,
            &t,
            &PretrainOptions { steps: 30, batch: 2, lr: 2e-3, ..Default::default() },
        );
        let first: f32 = curve[..5].iter().map(|s| s.mlm_loss).sum::<f32>() / 5.0;
        let last: f32 = curve[25..].iter().map(|s| s.mlm_loss).sum::<f32>() / 5.0;
        assert!(last < first, "BERT baseline failed to train: {first} -> {last}");
        assert!(curve.iter().all(|s| s.clc_loss == 0.0), "one cell: CLC must never fire");
    }

    #[test]
    fn embeddings_have_hidden_width() {
        let t = tok();
        let model = bert(&t, 48);
        assert_eq!(model.embed_table(&table2_relational(), &t).len(), 24);
        assert_eq!(model.embed_column(&table2_relational(), 1, &t).len(), 24);
        assert_eq!(model.embed_text("sam", &t).len(), 24);
    }

    #[test]
    fn numbers_collapse_to_val_making_numeric_columns_opaque() {
        // Two numeric columns with different values but no text content
        // encode to the same sequence — the baseline's numeric blindness.
        let t = tok();
        let a =
            Table::builder("x").hmd_flat(&["q"]).row(vec![CellValue::number(5.0, None)]).build();
        let b =
            Table::builder("x").hmd_flat(&["q"]).row(vec![CellValue::number(900.0, None)]).build();
        let model = bert(&t, 32);
        assert_eq!(model.encode_table(&a, &t).tokens, model.encode_table(&b, &t).tokens);
    }

    #[test]
    fn bert_sequences_carry_no_structure() {
        let t = tok();
        let model = bert(&t, 48);
        let seq = model.encode_table(&figure1_table(), &t);
        assert_eq!(seq.len(), 48, "figure 1 should fill the sequence");
        assert_eq!(seq.n_cells, 1);
        for (pos, tk) in seq.tokens.iter().enumerate() {
            assert_eq!(tk.value, None);
            assert_eq!(tk.sem_type, SemType::Text.index());
            assert_eq!(tk.feat_bits, [false; 8]);
            assert_eq!((tk.cell_pos, tk.row, tk.col), (0, 0, 0));
            assert_eq!(tk.tpos, [(pos / 8) as u16, (pos % 8) as u16, 0, 0, 0, 0]);
            assert!(tk.special || tk.cell_id == 0);
        }
        let flags = model.model.cfg.ablation;
        assert!(!flags.visibility && !flags.type_inference && !flags.units_nesting);
        assert!(flags.coordinates);
    }
}
