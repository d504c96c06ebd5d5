//! Composite embeddings (§3.4, Figure 4, Figure 5).
//!
//! The paper composes downstream vectors by concatenating (⊕) segment-model
//! embeddings: `colcomp` for column clustering, `tblcomp1`/`tblcomp2` for
//! table clustering, and attribute⊕value⊕unit structures for numeric values
//! and ranges. `tblcomp_into` and `colcomp_into` (crate-private) are the one
//! definition of the table and column composites: the single-item embeddings
//! of [`TabBiNFamily`] and the batches of [`crate::batch::BatchEncoder`] both
//! write through them. [`concat()`] and [`mean`] operate on plain `f32`
//! vectors so they also serve the baselines.

use crate::config::SegmentKind;
use crate::encoding::{encode_column, encode_segment, encode_text};
use crate::infer::{embed_with_into, InferScratch};
use crate::variants::TabBiNFamily;
use std::array::from_fn;
use tabbin_table::{Table, Unit};

/// Writes the TC composite of `table` into `out`, one `hidden`-wide block
/// per part: data rows (`Ē_d`, row model) ⊕ HMD (`Ē_c`, HMD model) ⊕ VMD
/// (`Ē_r`, VMD model) ⊕ caption (row model). Four blocks are `tblcomp2`,
/// the first three `tblcomp1`, the first alone the table's data embedding;
/// `out` holds as many blocks as are wanted.
pub(crate) fn tblcomp_into(
    family: &TabBiNFamily,
    table: &Table,
    scratch: &mut InferScratch,
    out: &mut [f32],
) {
    let (tok, tagger, cfg) = (&family.tokenizer, &family.tagger, &family.cfg);
    assert!(
        out.len().is_multiple_of(cfg.hidden) && out.len() <= 4 * cfg.hidden,
        "a table composite is 1 to 4 blocks of hidden width"
    );
    // Encode every wanted part first, then run the model passes back to back
    // over one warm scratch arena.
    let blocks = out.len() / cfg.hidden;
    let parts: [_; 4] = from_fn(|block| {
        (block < blocks).then(|| match block {
            0 => (&family.row, encode_segment(table, SegmentKind::DataRow, tok, tagger, cfg)),
            1 => (&family.hmd, encode_segment(table, SegmentKind::Hmd, tok, tagger, cfg)),
            2 => (&family.vmd, encode_segment(table, SegmentKind::Vmd, tok, tagger, cfg)),
            _ => (&family.row, encode_text(&table.caption, tok, tagger, cfg)),
        })
    });
    for ((model, seq), out) in parts.iter().flatten().zip(out.chunks_exact_mut(cfg.hidden)) {
        embed_with_into(model, seq, scratch, out);
    }
}

/// Writes `colcomp` of column `j` into `out[2 * hidden]` (Figure 5b): the
/// column's attribute through the HMD model (`E_cj`) ⊕ its data through the
/// column model (`Ē_d`). `paths` is `table.hmd.leaf_label_paths()`, which a
/// batch computes once per table.
pub(crate) fn colcomp_into(
    family: &TabBiNFamily,
    table: &Table,
    paths: &[Vec<&str>],
    j: usize,
    scratch: &mut InferScratch,
    out: &mut [f32],
) {
    let (tok, tagger, cfg) = (&family.tokenizer, &family.tagger, &family.cfg);
    let (attr, data) = out.split_at_mut(cfg.hidden);
    let seq = encode_text(&attribute_text(paths, j), tok, tagger, cfg);
    embed_with_into(&family.hmd, &seq, scratch, attr);
    embed_with_into(&family.col, &encode_column(table, j, tok, tagger, cfg), scratch, data);
}

/// Column `j`'s attribute: its root-to-leaf header label path, or
/// `column j` past the header's leaves.
pub(crate) fn attribute_text(paths: &[Vec<&str>], j: usize) -> String {
    match paths.get(j) {
        Some(p) => p.join(" "),
        None => format!("column {j}"),
    }
}

/// Concatenates embedding parts (the paper's ⊕ operator).
pub fn concat(parts: &[Vec<f32>]) -> Vec<f32> {
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for p in parts {
        out.extend_from_slice(p);
    }
    out
}

/// Elementwise mean of equally-sized vectors; panics on ragged input, returns
/// an empty vector for no input.
pub fn mean(vectors: &[Vec<f32>]) -> Vec<f32> {
    let Some(first) = vectors.first() else {
        return Vec::new();
    };
    let d = first.len();
    let mut out = vec![0.0f32; d];
    for v in vectors {
        assert_eq!(v.len(), d, "mean over ragged vectors");
        for (o, x) in out.iter_mut().zip(v) {
            *o += x;
        }
    }
    let inv = 1.0 / vectors.len() as f32;
    for o in &mut out {
        *o *= inv;
    }
    out
}

/// The Figure 4(a) composite for a numeric attribute value: embeddings of the
/// attribute name, the value, and the unit, concatenated — "OS" ⊕ "20.3" ⊕
/// "months" in the paper's example.
pub fn ce_numeric(
    family: &TabBiNFamily,
    attribute: &str,
    value: f64,
    unit: Option<Unit>,
) -> Vec<f32> {
    let attr = family.embed_entity(attribute);
    let val = family.embed_entity(&format_value(value));
    let unit_emb = embed_unit(family, unit);
    concat(&[attr, val, unit_emb])
}

/// The Figure 4(b) composite for a range: attribute ⊕ unit ⊕ range-start ⊕
/// range-end — "Age" ⊕ "year" ⊕ "20" ⊕ "30".
pub fn ce_range(
    family: &TabBiNFamily,
    attribute: &str,
    lo: f64,
    hi: f64,
    unit: Option<Unit>,
) -> Vec<f32> {
    let attr = family.embed_entity(attribute);
    let unit_emb = embed_unit(family, unit);
    let start = family.embed_entity(&format_value(lo));
    let end = family.embed_entity(&format_value(hi));
    concat(&[attr, unit_emb, start, end])
}

fn embed_unit(family: &TabBiNFamily, unit: Option<Unit>) -> Vec<f32> {
    match unit {
        Some(u) => family.embed_entity(u.name()),
        None => vec![0.0; family.cfg.hidden],
    }
}

fn format_value(v: f64) -> String {
    if v.fract().abs() < 1e-9 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use tabbin_table::samples::table1_sample;

    #[test]
    fn concat_lengths_add() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0];
        assert_eq!(concat(&[a, b]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn mean_averages() {
        let m = mean(&[vec![1.0, 3.0], vec![3.0, 5.0]]);
        assert_eq!(m, vec![2.0, 4.0]);
        assert!(mean(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn mean_rejects_ragged() {
        let _ = mean(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn ce_numeric_structure() {
        let tables = vec![table1_sample()];
        let fam = TabBiNFamily::new(&tables, ModelConfig::tiny(), 3);
        let ce = ce_numeric(&fam, "OS", 20.3, Some(Unit::Time));
        assert_eq!(ce.len(), 3 * fam.cfg.hidden);
        // Same attribute, different value => different CE.
        let ce2 = ce_numeric(&fam, "OS", 13.3, Some(Unit::Time));
        assert_ne!(ce, ce2);
    }

    #[test]
    fn ce_range_structure() {
        let tables = vec![table1_sample()];
        let fam = TabBiNFamily::new(&tables, ModelConfig::tiny(), 3);
        let ce = ce_range(&fam, "Age", 20.0, 30.0, Some(Unit::Time));
        assert_eq!(ce.len(), 4 * fam.cfg.hidden);
        // Missing unit zeroes that block but keeps the shape.
        let ce2 = ce_range(&fam, "Age", 20.0, 30.0, None);
        assert_eq!(ce2.len(), 4 * fam.cfg.hidden);
        assert_ne!(ce, ce2);
    }
}
