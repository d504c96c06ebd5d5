//! The four segment models and the embedding API built on them (§3.3, §4).
//!
//! The paper trains **four** models — data rows ("tuples"), data columns,
//! HMD, and VMD — so that the semantically different contexts are learned
//! independently. [`TabBiNFamily`] owns all four plus the shared tokenizer
//! and type tagger, and exposes the embedding operations the downstream
//! tasks need: column embeddings (CC), table embeddings (TC), entity
//! embeddings (EC), and the composite variants of §4.5. Each embeds one
//! item; [`crate::batch::BatchEncoder`] embeds many at a time, bit for bit
//! the same, and both run the fused forward pass of [`crate::infer`].

use crate::composite;
use crate::config::{ModelConfig, SegmentKind};
use crate::encoding::{encode_column, encode_segment, encode_text, EncodedSequence};
use crate::infer::InferScratch;
use crate::model::TabBiNModel;
use crate::pretrain::{pretrain_profiled, PretrainOptions, StepStats, TrainProbe};
use tabbin_table::Table;
use tabbin_tokenizer::Tokenizer;
use tabbin_typeinfer::TypeTagger;

/// The four pre-trained TabBiN models plus shared preprocessing.
#[derive(Debug)]
pub struct TabBiNFamily {
    /// Data-row ("tuple") model.
    pub row: TabBiNModel,
    /// Data-column model.
    pub col: TabBiNModel,
    /// Horizontal-metadata model.
    pub hmd: TabBiNModel,
    /// Vertical-metadata model.
    pub vmd: TabBiNModel,
    /// Shared WordPiece tokenizer (trained on the corpus, standing in for the
    /// BioBERT vocabulary).
    pub tokenizer: Tokenizer,
    /// Shared semantic type tagger.
    pub tagger: TypeTagger,
    /// Shared geometry.
    pub cfg: ModelConfig,
}

impl TabBiNFamily {
    /// Builds the family, training the tokenizer vocabulary on `tables`.
    pub fn new(tables: &[Table], cfg: ModelConfig, seed: u64) -> Self {
        cfg.validate();
        let tokenizer = train_tokenizer(tables);
        let vocab = tokenizer.vocab_size();
        Self {
            row: TabBiNModel::new(cfg, vocab, seed ^ 0x01),
            col: TabBiNModel::new(cfg, vocab, seed ^ 0x02),
            hmd: TabBiNModel::new(cfg, vocab, seed ^ 0x03),
            vmd: TabBiNModel::new(cfg, vocab, seed ^ 0x04),
            tokenizer,
            tagger: TypeTagger::new(),
            cfg,
        }
    }

    /// Pre-trains all four models on their respective segment sequences.
    /// Returns the loss curves keyed by segment kind order
    /// (row, column, hmd, vmd).
    pub fn pretrain(&mut self, tables: &[Table], opts: &PretrainOptions) -> [Vec<StepStats>; 4] {
        self.pretrain_profiled(tables, opts, &mut ())
    }

    /// [`TabBiNFamily::pretrain`], reporting every phase boundary of all
    /// four runs to `probe` (see [`pretrain_profiled`]).
    pub fn pretrain_profiled<P: TrainProbe>(
        &mut self,
        tables: &[Table],
        opts: &PretrainOptions,
        probe: &mut P,
    ) -> [Vec<StepStats>; 4] {
        let mut curves: [Vec<StepStats>; 4] = Default::default();
        for (slot, kind) in SegmentKind::ALL.iter().enumerate() {
            let seqs: Vec<EncodedSequence> = tables
                .iter()
                .map(|t| encode_segment(t, *kind, &self.tokenizer, &self.tagger, &self.cfg))
                .filter(|s| !s.is_empty())
                .collect();
            let model = self.model_mut(*kind);
            curves[slot] = pretrain_profiled(model, &seqs, opts, probe);
        }
        curves
    }

    /// The model for a segment kind.
    pub fn model(&self, kind: SegmentKind) -> &TabBiNModel {
        match kind {
            SegmentKind::DataRow => &self.row,
            SegmentKind::DataColumn => &self.col,
            SegmentKind::Hmd => &self.hmd,
            SegmentKind::Vmd => &self.vmd,
        }
    }

    fn model_mut(&mut self, kind: SegmentKind) -> &mut TabBiNModel {
        match kind {
            SegmentKind::DataRow => &mut self.row,
            SegmentKind::DataColumn => &mut self.col,
            SegmentKind::Hmd => &mut self.hmd,
            SegmentKind::Vmd => &mut self.vmd,
        }
    }

    /// Embedding of column `j`'s *data* via the column model (`Ē_d`).
    pub fn embed_column_data(&self, table: &Table, j: usize) -> Vec<f32> {
        let seq = encode_column(table, j, &self.tokenizer, &self.tagger, &self.cfg);
        self.col.embed(&seq)
    }

    /// Embedding of column `j`'s *attribute* via the HMD model (`E_cj`): the
    /// root-to-leaf label path of the column header.
    pub fn embed_attribute(&self, table: &Table, j: usize) -> Vec<f32> {
        let text = composite::attribute_text(&table.hmd.leaf_label_paths(), j);
        let seq = encode_text(&text, &self.tokenizer, &self.tagger, &self.cfg);
        self.hmd.embed(&seq)
    }

    /// The CC composite (`TabBiN-colcomp`, Figure 5b): attribute embedding
    /// from the HMD model ⊕ mean data embedding from the column model.
    pub fn embed_colcomp(&self, table: &Table, j: usize) -> Vec<f32> {
        let mut out = vec![0.0; 2 * self.cfg.hidden];
        let paths = table.hmd.leaf_label_paths();
        composite::colcomp_into(self, table, &paths, j, &mut InferScratch::new(), &mut out);
        out
    }

    /// Mean data embedding of the whole table via the row model (`Ē_d`):
    /// the first block of the TC composite.
    pub fn embed_table_data(&self, table: &Table) -> Vec<f32> {
        self.tblcomp(table, 1)
    }

    /// The TC composite without captions (`TabBiN-tblcomp1`): data ⊕ HMD ⊕
    /// VMD, the first three blocks of [`TabBiNFamily::embed_table`].
    pub fn embed_tblcomp1(&self, table: &Table) -> Vec<f32> {
        self.tblcomp(table, 3)
    }

    /// Default full table embedding, `TabBiN-tblcomp2`: data ⊕ HMD ⊕ VMD ⊕
    /// caption, the caption embedded by the row model (the paper uses
    /// BioBERT fine-tuned on captions).
    pub fn embed_table(&self, table: &Table) -> Vec<f32> {
        self.tblcomp(table, 4)
    }

    /// The first `blocks` blocks of the TC composite.
    fn tblcomp(&self, table: &Table, blocks: usize) -> Vec<f32> {
        let mut out = vec![0.0; blocks * self.cfg.hidden];
        composite::tblcomp_into(self, table, &mut InferScratch::new(), &mut out);
        out
    }

    /// Entity embedding via the column model (§4.3 uses the TabBiN-column
    /// model for entity clustering).
    pub fn embed_entity(&self, text: &str) -> Vec<f32> {
        let seq = encode_text(text, &self.tokenizer, &self.tagger, &self.cfg);
        self.col.embed(&seq)
    }
}

/// Trains the shared WordPiece vocabulary over every text surface of the
/// corpus: captions, metadata labels (all levels), and rendered cells,
/// including nested tables.
pub fn train_tokenizer(tables: &[Table]) -> Tokenizer {
    let mut texts: Vec<String> = Vec::new();
    for t in tables {
        collect_texts(t, &mut texts);
    }
    Tokenizer::train(texts.iter().map(String::as_str), 8000, 1)
}

fn collect_texts(t: &Table, out: &mut Vec<String>) {
    out.push(t.caption.clone());
    for (l, _) in t.hmd.all_labels() {
        out.push(l.to_string());
    }
    for (l, _) in t.vmd.all_labels() {
        out.push(l.to_string());
    }
    for (_, _, c) in t.data.iter_indexed() {
        match c {
            tabbin_table::CellValue::Nested(inner) => collect_texts(inner, out),
            other => out.push(other.render()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabbin_table::samples::{figure1_table, table1_sample, table2_relational};

    fn tables() -> Vec<Table> {
        vec![figure1_table(), table1_sample(), table2_relational()]
    }

    #[test]
    fn family_builds_and_embeds() {
        let ts = tables();
        let fam = TabBiNFamily::new(&ts, ModelConfig::tiny(), 11);
        let col = fam.embed_colcomp(&ts[2], 0);
        assert_eq!(col.len(), 2 * fam.cfg.hidden);
        let tbl = fam.embed_tblcomp1(&ts[0]);
        assert_eq!(tbl.len(), 3 * fam.cfg.hidden);
        let tbl2 = fam.embed_table(&ts[0]);
        assert_eq!(tbl2.len(), 4 * fam.cfg.hidden);
    }

    #[test]
    fn vmd_of_relational_table_is_zero() {
        let ts = tables();
        let fam = TabBiNFamily::new(&ts, ModelConfig::tiny(), 11);
        let h = fam.cfg.hidden;
        let v = &fam.embed_table(&ts[2])[2 * h..3 * h];
        // Relational tables have no VMD; encoding yields only the [CLS]
        // token, so the pooled output is finite and content-free, or all
        // zeros for the fully empty case. Either way the vector is valid.
        assert_eq!(v.len(), fam.cfg.hidden);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn pretrain_runs_for_all_variants() {
        let ts = tables();
        let mut fam = TabBiNFamily::new(&ts, ModelConfig::tiny(), 11);
        let opts = PretrainOptions { steps: 3, batch: 2, ..PretrainOptions::default() };
        let curves = fam.pretrain(&ts, &opts);
        // Row/column/HMD always have sequences; VMD exists for the BiN table.
        assert_eq!(curves[0].len(), 3);
        assert_eq!(curves[1].len(), 3);
        assert_eq!(curves[2].len(), 3);
        assert_eq!(curves[3].len(), 3);
    }

    #[test]
    fn entity_embeddings_distinguish_entities() {
        let ts = tables();
        let fam = TabBiNFamily::new(&ts, ModelConfig::tiny(), 11);
        let a = fam.embed_entity("ramucirumab");
        let b = fam.embed_entity("colon cancer");
        assert_ne!(a, b);
        assert_eq!(a, fam.embed_entity("ramucirumab"));
    }

    #[test]
    fn attribute_embedding_uses_label_path() {
        let ts = tables();
        let fam = TabBiNFamily::new(&ts, ModelConfig::tiny(), 11);
        // Column 0 of Figure 1 is "Efficacy End Point -> Overall Survival";
        // column 2 is "Other Efficacy -> Details". Their attribute embeddings
        // must differ.
        let a = fam.embed_attribute(&ts[0], 0);
        let b = fam.embed_attribute(&ts[0], 2);
        assert_ne!(a, b);
    }
}
