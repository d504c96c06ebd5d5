//! TUTA-style baseline: tree-positional transformer over whole-table
//! sequences.
//!
//! TUTA (Wang et al., KDD'21) is the paper's strongest structured baseline.
//! Shared with TabBiN: tree coordinates, numeric features, structure-aware
//! attention, MLM + CLC pre-training. Deliberately missing (the deltas the
//! paper probes, §5): **no** unit/nesting cell features, **no** semantic
//! type inference, **no** segment separation — metadata and data are encoded
//! in one joint sequence ("treats vertical metadata as data"), and nested
//! tables are flattened as plain text without nested coordinates.
//!
//! Implementation: a [`TabBiNModel`] with the type/unit embeddings ablated,
//! fed whole-table sequences built by [`TutaSim::encode_table`] through the
//! tree layout of the builder it shares with [`crate::bert`].

use crate::seq::SeqBuilder;
use tabbin_core::config::{AblationFlags, ModelConfig};
use tabbin_core::encoding::EncodedSequence;
use tabbin_core::model::TabBiNModel;
use tabbin_core::pretrain::{pretrain, PretrainOptions, StepStats};
use tabbin_table::coords::assign_coordinates;
use tabbin_table::{CellValue, Table};
use tabbin_tokenizer::{SpecialToken, Tokenizer};

/// The TUTA-style baseline model.
#[derive(Debug)]
pub struct TutaSim {
    /// The underlying encoder (type and unit embeddings disabled).
    pub model: TabBiNModel,
}

impl TutaSim {
    /// Builds the baseline with TUTA's feature set.
    pub fn new(base: ModelConfig, vocab: usize, seed: u64) -> Self {
        let cfg = base.with_ablation(AblationFlags {
            visibility: true,
            type_inference: false,
            units_nesting: false,
            coordinates: true,
        });
        Self { model: TabBiNModel::new(cfg, vocab, seed) }
    }

    /// Encodes a whole table as one joint sequence: HMD labels, VMD labels,
    /// then data cells row-major — no segment separation.
    pub fn encode_table(&self, table: &Table, tok: &Tokenizer) -> EncodedSequence {
        let coords = assign_coordinates(table);
        let hmd_depth = table.hmd.depth() as u32;
        let vmd_depth = table.vmd.depth() as u32;
        let mut b = SeqBuilder::tree(tok, &self.model.cfg);
        b.special(SpecialToken::Cls);

        // HMD labels live in the top header rows of the raw grid.
        for (i, a) in coords.hmd.iter().enumerate() {
            let (hr, hc) = a.coord.horizontal.pair();
            let label = table.hmd.leaf_labels().get(i).map(|s| s.to_string()).unwrap_or_default();
            b.cell(&label, [0, 0, hr, hc, 0, 0], a.row as u32, vmd_depth + a.col as u32);
        }
        // VMD labels live in the left columns.
        for a in &coords.vmd {
            let (vr, vc) = a.coord.vertical.pair();
            let label =
                table.vmd.leaf_labels().get(a.row).map(|s| s.to_string()).unwrap_or_default();
            b.cell(&label, [vr, vc, 0, 0, 0, 0], hmd_depth + a.row as u32, a.col as u32);
        }
        // Data cells, nested content flattened as text (no nested coords).
        for (r, c, v) in table.data.iter_indexed() {
            let coord = coords.data_coord(r, c).cloned().unwrap_or_default();
            let mut tp = coord.tpos_indices();
            tp[4] = 0;
            tp[5] = 0;
            let text = match v {
                CellValue::Nested(inner) => {
                    let mut s = inner.hmd.leaf_labels().join(" ");
                    for (_, _, iv) in inner.data.iter_indexed() {
                        s.push(' ');
                        s.push_str(&iv.render());
                    }
                    s
                }
                other => other.render(),
            };
            b.cell(&text, tp, hmd_depth + r as u32, vmd_depth + c as u32);
            b.special(SpecialToken::Sep);
        }
        b.finish()
    }

    /// Pre-trains with the shared MLM + CLC objectives.
    pub fn pretrain(
        &mut self,
        tables: &[Table],
        tok: &Tokenizer,
        opts: &PretrainOptions,
    ) -> Vec<StepStats> {
        let seqs: Vec<EncodedSequence> = tables.iter().map(|t| self.encode_table(t, tok)).collect();
        pretrain(&mut self.model, &seqs, opts)
    }

    /// Whole-table embedding.
    pub fn embed_table(&self, table: &Table, tok: &Tokenizer) -> Vec<f32> {
        self.model.embed(&self.encode_table(table, tok))
    }

    /// Column embedding: header label + column cells as a joint sequence.
    pub fn embed_column(&self, table: &Table, j: usize, tok: &Tokenizer) -> Vec<f32> {
        let coords = assign_coordinates(table);
        let mut b = SeqBuilder::tree(tok, &self.model.cfg);
        b.special(SpecialToken::Cls);
        if let Some(label) = table.hmd.leaf_labels().get(j) {
            b.cell(label, [0, 0, 0, j as u16 + 1, 0, 0], 0, j as u32);
        }
        for i in 0..table.n_rows() {
            let coord = coords.data_coord(i, j).cloned().unwrap_or_default();
            let mut tp = coord.tpos_indices();
            tp[4] = 0;
            tp[5] = 0;
            b.cell(&table.data.get(i, j).render(), tp, i as u32 + 1, j as u32);
        }
        self.model.embed(&b.finish())
    }

    /// Entity embedding from plain text.
    pub fn embed_entity(&self, text: &str, tok: &Tokenizer) -> Vec<f32> {
        let mut b = SeqBuilder::tree(tok, &self.model.cfg);
        b.special(SpecialToken::Cls);
        b.text(text);
        self.model.embed(&b.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabbin_table::samples::{figure1_table, table2_relational};

    fn tok() -> Tokenizer {
        Tokenizer::train(["name age job overall survival months patient cohort efficacy"], 500, 1)
    }

    #[test]
    fn whole_table_sequence_mixes_metadata_and_data() {
        let t = tok();
        let tuta = TutaSim::new(ModelConfig::tiny(), t.vocab_size(), 3);
        let seq = tuta.encode_table(&figure1_table(), &t);
        // 3 HMD leaves + 2 VMD leaves + 6 data cells = 11 cells minimum.
        assert!(seq.n_cells >= 11, "got {} cells", seq.n_cells);
    }

    #[test]
    fn nested_tables_flatten_without_nested_coordinates() {
        let t = tok();
        let tuta = TutaSim::new(ModelConfig::tiny(), t.vocab_size(), 3);
        let seq = tuta.encode_table(&figure1_table(), &t);
        assert!(seq.tokens.iter().all(|tk| tk.tpos[4] == 0 && tk.tpos[5] == 0));
        assert!(seq.tokens.iter().all(|tk| !tk.feat_bits[7]));
    }

    #[test]
    fn pretrain_and_embed() {
        let t = tok();
        let tables = vec![table2_relational(), figure1_table()];
        let mut tuta = TutaSim::new(ModelConfig::tiny(), t.vocab_size(), 3);
        let curve = tuta.pretrain(
            &tables,
            &t,
            &PretrainOptions { steps: 3, batch: 2, ..Default::default() },
        );
        assert_eq!(curve.len(), 3);
        let e = tuta.embed_table(&tables[0], &t);
        assert_eq!(e.len(), ModelConfig::tiny().hidden);
        assert_eq!(tuta.embed_column(&tables[0], 0, &t).len(), ModelConfig::tiny().hidden);
        assert_eq!(tuta.embed_entity("sam", &t).len(), ModelConfig::tiny().hidden);
    }

    #[test]
    fn type_and_unit_embeddings_are_ablated() {
        let t = tok();
        let tuta = TutaSim::new(ModelConfig::tiny(), t.vocab_size(), 3);
        assert!(!tuta.model.cfg.ablation.type_inference);
        assert!(!tuta.model.cfg.ablation.units_nesting);
        assert!(tuta.model.cfg.ablation.visibility);
        assert!(tuta.model.cfg.ablation.coordinates);
    }
}
