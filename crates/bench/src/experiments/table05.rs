//! Table 5: MAP/MRR for Table Clustering — tables with HMD versus HMD+VMD,
//! mostly numerical content, and nesting (CovidKG and CancerKG).

use crate::bundle::{Bundle, ExpConfig};
use crate::experiments::{rows_over, tc_lineup, LineupTable, Subset};
use tabbin_corpus::Dataset;
use tabbin_table::TableKind;

/// The structural TC comparison.
pub const TABLE: LineupTable = LineupTable {
    datasets: &[Dataset::CovidKg, Dataset::CancerKg],
    rows,
    title: "Table 5 — MAP/MRR for Table Clustering by structure (HMD vs HMD+VMD, numeric, nested)",
    headers: &["dataset", "subset", "TabBiN", "TUTA", "BioBERT", "Word2Vec"],
    note: "",
};

const SUBSETS: [Subset; 4] = [
    ("HMD only", |t| t.table.kind() != TableKind::BiN),
    ("HMD+VMD", |t| t.table.kind() == TableKind::BiN),
    (">80% Num", |t| t.table.numeric_fraction() > 0.8),
    ("Nested", |t| t.table.has_nesting()),
];

fn rows(bundle: &Bundle, cfg: &ExpConfig) -> Vec<Vec<String>> {
    rows_over(bundle, &SUBSETS, |subset| tc_lineup(bundle, cfg.k, subset))
}
