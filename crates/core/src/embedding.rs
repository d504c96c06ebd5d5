//! The six-component embedding layer (§3.1, Figure 2, Eq. 8):
//!
//! `E = E_tok + E_num + E_cpos + E_tpos + E_type + E_fmt`
//!
//! * `E_tok` — token-semantics table over the WordPiece vocabulary.
//! * `E_num` — concatenation of four sub-embeddings (magnitude, precision,
//!   first digit, last digit), each `[10, H/4]` (Eq. 3); zero for
//!   non-numeric tokens.
//! * `E_cpos` — in-cell position table `[I, H]` (Eq. 4).
//! * `E_tpos` — concatenation of six coordinate sub-embeddings
//!   (vertical row/col, horizontal row/col, nested row/col), each
//!   `[G, H/6]` (Eq. 5).
//! * `E_fmt` — linear map of the 8-bit unit/nesting feature vector (Eq. 6).
//! * `E_type` — the 14-type semantic table (Eq. 7).
//!
//! Ablation flags (§4.6) zero out `E_type`, `E_fmt`, or `E_tpos`.

use crate::config::ModelConfig;
use crate::encoding::EncodedSequence;
use tabbin_table::NumericFeatures;
use tabbin_tensor::nn::{Embedding, LayerNorm, Linear};
use tabbin_tensor::{Graph, NodeId, ParamStore, Tensor};
use tabbin_typeinfer::SemType;

/// All trainable tables of the embedding layer.
#[derive(Clone, Debug)]
pub struct EmbeddingLayer {
    /// Token semantics `W_tok`.
    pub tok: Embedding,
    /// Numeric sub-embeddings `[W_mag, W_pre, W_fst, W_lst]`.
    pub num: [Embedding; 4],
    /// In-cell position `W_cpos`.
    pub cpos: Embedding,
    /// Coordinate sub-embeddings `[W_vr, W_vc, W_hr, W_hc, W_nr, W_nc]`.
    pub tpos: [Embedding; 6],
    /// Semantic type `W_type`.
    pub ty: Embedding,
    /// Cell features `W_fmt` (+ bias), Eq. 6.
    pub fmt: Linear,
    /// Post-sum layer normalization (standard BERT practice).
    pub ln: LayerNorm,
    cfg: ModelConfig,
}

impl EmbeddingLayer {
    /// Registers all tables in `store`.
    pub fn new(store: &mut ParamStore, cfg: &ModelConfig, vocab: usize, seed: u64) -> Self {
        cfg.validate();
        let h = cfg.hidden;
        let q = h / 4;
        let s = h / 6;
        let num = [
            Embedding::new(store, "emb.num.mag", NumericFeatures::BUCKETS, q, seed ^ 0xa1),
            Embedding::new(store, "emb.num.pre", NumericFeatures::BUCKETS, q, seed ^ 0xa2),
            Embedding::new(store, "emb.num.fst", NumericFeatures::BUCKETS, q, seed ^ 0xa3),
            Embedding::new(store, "emb.num.lst", NumericFeatures::BUCKETS, q, seed ^ 0xa4),
        ];
        let tpos = [
            Embedding::new(store, "emb.tpos.vr", cfg.max_coord, s, seed ^ 0xb1),
            Embedding::new(store, "emb.tpos.vc", cfg.max_coord, s, seed ^ 0xb2),
            Embedding::new(store, "emb.tpos.hr", cfg.max_coord, s, seed ^ 0xb3),
            Embedding::new(store, "emb.tpos.hc", cfg.max_coord, s, seed ^ 0xb4),
            Embedding::new(store, "emb.tpos.nr", cfg.max_coord, s, seed ^ 0xb5),
            Embedding::new(store, "emb.tpos.nc", cfg.max_coord, s, seed ^ 0xb6),
        ];
        Self {
            tok: Embedding::new(store, "emb.tok", vocab, h, seed ^ 0xc1),
            num,
            cpos: Embedding::new(store, "emb.cpos", cfg.max_cell_tokens, h, seed ^ 0xc2),
            tpos,
            ty: Embedding::new(store, "emb.type", SemType::COUNT, h, seed ^ 0xc3),
            fmt: Linear::new(store, "emb.fmt", 8, h, seed ^ 0xc4),
            ln: LayerNorm::new(store, "emb.ln", h),
            cfg: *cfg,
        }
    }

    /// Embeds a sequence on the tape, producing `[n, H]`. `ids` carries the
    /// (possibly MLM-corrupted) vocabulary ids; pass the sequence's own ids
    /// for clean encoding. Ablated components are not placed.
    pub fn forward(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        seq: &EncodedSequence,
        ids: &[u32],
    ) -> NodeId {
        let n = seq.len();
        assert_eq!(ids.len(), n, "id count must match sequence length");
        assert!(n > 0, "cannot embed an empty sequence");
        let h = self.cfg.hidden;

        // E_tok.
        let tok_ids: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
        let e_tok = self.tok.forward(g, store, &tok_ids);

        // E_num: four sub-embeddings concatenated, masked to numeric tokens.
        let feats: Vec<Option<NumericFeatures>> =
            seq.tokens.iter().map(|t| t.value.map(NumericFeatures::of)).collect();
        let pick = |f: &Option<NumericFeatures>, which: usize| -> usize {
            match f {
                None => 0,
                Some(nf) => match which {
                    0 => nf.magnitude as usize,
                    1 => nf.precision as usize,
                    2 => nf.first_digit as usize,
                    _ => nf.last_digit as usize,
                },
            }
        };
        let mut num_parts = Vec::with_capacity(4);
        for (which, table) in self.num.iter().enumerate() {
            let idx: Vec<usize> = feats.iter().map(|f| pick(f, which)).collect();
            num_parts.push(table.forward(g, store, &idx));
        }
        let num_cat = g.concat_cols(&num_parts);
        let mut num_mask = Tensor::zeros(&[n, h]);
        for (i, f) in feats.iter().enumerate() {
            if f.is_some() {
                num_mask.row_mut(i).fill(1.0);
            }
        }
        let e_num = g.mul_const(num_cat, num_mask);

        // E_cpos.
        let cpos_ids: Vec<usize> =
            seq.tokens.iter().map(|t| t.cell_pos.min(self.cfg.max_cell_tokens - 1)).collect();
        let e_cpos = self.cpos.forward(g, store, &cpos_ids);

        let mut sum = g.add(e_tok, e_num);
        sum = g.add(sum, e_cpos);

        // E_tpos (ablatable).
        if self.cfg.ablation.coordinates {
            let mut parts = Vec::with_capacity(6);
            for (axis, table) in self.tpos.iter().enumerate() {
                let idx: Vec<usize> = seq
                    .tokens
                    .iter()
                    .map(|t| (t.tpos[axis] as usize).min(self.cfg.max_coord - 1))
                    .collect();
                parts.push(table.forward(g, store, &idx));
            }
            let e_tpos = g.concat_cols(&parts);
            sum = g.add(sum, e_tpos);
        }

        // E_type (ablatable).
        if self.cfg.ablation.type_inference {
            let ty_ids: Vec<usize> = seq.tokens.iter().map(|t| t.sem_type).collect();
            let e_ty = self.ty.forward(g, store, &ty_ids);
            sum = g.add(sum, e_ty);
        }

        // E_fmt (ablatable).
        if self.cfg.ablation.units_nesting {
            let mut bits = Tensor::zeros(&[n, 8]);
            for (i, t) in seq.tokens.iter().enumerate() {
                for (j, &b) in t.feat_bits.iter().enumerate() {
                    if b {
                        *bits.at_mut(i, j) = 1.0;
                    }
                }
            }
            let bits_in = g.input(bits);
            let e_fmt = self.fmt.forward(g, store, bits_in);
            sum = g.add(sum, e_fmt);
        }

        self.ln.forward(g, store, sum)
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

    fn setup(cfg: &ModelConfig) -> (ParamStore, EmbeddingLayer, Tokenizer, TypeTagger) {
        let tok = Tokenizer::train(["name age job overall survival months sam engineer"], 500, 1);
        let mut store = ParamStore::new();
        let emb = EmbeddingLayer::new(&mut store, cfg, tok.vocab_size(), 1);
        (store, emb, tok, TypeTagger::new())
    }

    fn ids_of(seq: &EncodedSequence) -> Vec<u32> {
        seq.tokens.iter().map(|t| t.vocab_id).collect()
    }

    #[test]
    fn forward_shape_is_n_by_h() {
        let cfg = ModelConfig::tiny();
        let (store, emb, tok, tagger) = setup(&cfg);
        let seq = encode_segment(&table2_relational(), SegmentKind::DataRow, &tok, &tagger, &cfg);
        let mut g = Graph::new();
        let out = emb.forward(&mut g, &store, &seq, &ids_of(&seq));
        assert_eq!(g.value(out).shape(), &[seq.len(), cfg.hidden]);
    }

    #[test]
    fn numeric_tokens_differ_from_text_tokens_via_enum() {
        // Two tokens with the same [VAL] id but different numeric payloads
        // must embed differently (through E_num).
        let cfg = ModelConfig::tiny();
        let (store, emb, tok, tagger) = setup(&cfg);
        let t = tabbin_table::Table::builder("t")
            .hmd_flat(&["a", "b"])
            .row(vec![
                tabbin_table::CellValue::number(5.0, None),
                tabbin_table::CellValue::number(7777.2, None),
            ])
            .build();
        let seq = encode_segment(&t, SegmentKind::DataRow, &tok, &tagger, &cfg);
        let val_rows: Vec<usize> = seq
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.value.is_some())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(val_rows.len(), 2);
        let mut g = Graph::new();
        let out = emb.forward(&mut g, &store, &seq, &ids_of(&seq));
        let v = g.value(out);
        assert_ne!(v.row(val_rows[0]), v.row(val_rows[1]));
    }

    #[test]
    fn coordinate_ablation_changes_output() {
        let cfg = ModelConfig::tiny();
        let (store, emb, tok, tagger) = setup(&cfg);
        let seq = encode_segment(&figure1_table(), SegmentKind::DataRow, &tok, &tagger, &cfg);
        let mut g1 = Graph::new();
        let full = emb.forward(&mut g1, &store, &seq, &ids_of(&seq));
        // Same weights, coordinates ablated.
        let mut emb2 = emb.clone();
        emb2.cfg.ablation.coordinates = false;
        let mut g2 = Graph::new();
        let ablated = emb2.forward(&mut g2, &store, &seq, &ids_of(&seq));
        assert_ne!(g1.value(full).data(), g2.value(ablated).data());
    }

    #[test]
    fn type_and_fmt_ablations_change_output() {
        let cfg = ModelConfig::tiny();
        let (store, emb, tok, tagger) = setup(&cfg);
        let seq = encode_segment(&figure1_table(), SegmentKind::DataRow, &tok, &tagger, &cfg);
        let mut g1 = Graph::new();
        let full_node = emb.forward(&mut g1, &store, &seq, &ids_of(&seq));
        let full = g1.value(full_node).clone();
        for f in [
            crate::config::AblationFlags::no_type_inference(),
            crate::config::AblationFlags::no_units_nesting(),
        ] {
            let mut e2 = emb.clone();
            e2.cfg.ablation = f;
            let mut g2 = Graph::new();
            let out = e2.forward(&mut g2, &store, &seq, &ids_of(&seq));
            assert_ne!(g2.value(out).data(), full.data());
        }
    }

    #[test]
    #[should_panic(expected = "id count")]
    fn mismatched_ids_panic() {
        let cfg = ModelConfig::tiny();
        let (store, emb, tok, tagger) = setup(&cfg);
        let seq = encode_segment(&table2_relational(), SegmentKind::DataRow, &tok, &tagger, &cfg);
        let mut g = Graph::new();
        let _ = emb.forward(&mut g, &store, &seq, &[0, 1, 2]);
    }
}
