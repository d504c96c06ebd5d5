//! Table 6: MAP/MRR for Table Clustering — relational versus non-relational
//! tables with heterogeneous data types (Webtables and CancerKG).

use crate::bundle::{Bundle, ExpConfig};
use crate::experiments::{rows_over, tc_lineup, LineupTable, Subset};
use tabbin_corpus::Dataset;
use tabbin_table::TableKind;

/// The relational/non-relational TC comparison.
pub const TABLE: LineupTable = LineupTable {
    datasets: &[Dataset::Webtables, Dataset::CancerKg],
    rows,
    title: "Table 6 — MAP/MRR for Table Clustering: relational vs non-relational",
    headers: &["dataset", "subset", "TabBiN", "TUTA", "BioBERT", "Word2Vec"],
    note: "",
};

const SUBSETS: [Subset; 3] = [
    ("relational", |t| t.table.kind() == TableKind::Relational),
    ("non-relational", |t| t.table.kind() != TableKind::Relational),
    ("all (mixed)", |_| true),
];

fn rows(bundle: &Bundle, cfg: &ExpConfig) -> Vec<Vec<String>> {
    rows_over(bundle, &SUBSETS, |subset| tc_lineup(bundle, cfg.k, subset))
}
