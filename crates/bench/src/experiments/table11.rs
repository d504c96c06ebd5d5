//! Table 11: TC performance without and with composite embeddings —
//! row model only, tblcomp1, tblcomp2 (§4.5), across structural subsets.

use crate::bundle::{Bundle, ExpConfig};
use crate::experiments::{rows_over, LineupTable, Subset};
use crate::harness::{eval_tc, eval_tc_batch};
use tabbin_core::batch::BatchEncoder;
use tabbin_corpus::Dataset;
use tabbin_table::TableKind;

/// The composite-embedding TC analysis.
pub const TABLE: LineupTable = LineupTable {
    datasets: &[Dataset::CancerKg, Dataset::CovidKg],
    rows,
    title: "Table 11 — TC without vs with composite embeddings",
    headers: &["dataset", "subset", "TabBiN-row", "tblcomp1", "tblcomp2"],
    note: "",
};

const SUBSETS: [Subset; 4] = [
    ("all", |_| true),
    ("HMD+VMD", |t| t.table.kind() == TableKind::BiN),
    ("relational", |t| t.table.kind() == TableKind::Relational),
    ("nested", |t| t.table.has_nesting()),
];

fn rows(bundle: &Bundle, cfg: &ExpConfig) -> Vec<Vec<String>> {
    let (corpus, family) = (&bundle.corpus, &bundle.family);
    rows_over(bundle, &SUBSETS, |subset| {
        vec![
            eval_tc(corpus, cfg.k, subset, |t| family.embed_table_data(t)),
            eval_tc(corpus, cfg.k, subset, |t| family.embed_tblcomp1(t)),
            eval_tc_batch(corpus, cfg.k, subset, |ts| BatchEncoder::new(family).embed_tables(ts)),
        ]
    })
}
