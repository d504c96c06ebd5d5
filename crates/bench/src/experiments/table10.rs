//! Table 10: CC performance without and with composite embeddings —
//! TabBiN-column only, TabBiN-HMD only, and the colcomp composite (§4.5).

use crate::bundle::{Bundle, ExpConfig};
use crate::experiments::{rows_over, LineupTable};
use crate::harness::{eval_cc, eval_cc_batch};
use tabbin_core::batch::BatchEncoder;
use tabbin_corpus::Dataset;

/// The composite-embedding CC analysis.
pub const TABLE: LineupTable = LineupTable {
    datasets: &Dataset::ALL,
    rows,
    title: "Table 10 — CC without vs with composite embeddings",
    headers: &["dataset", "content", "TabBiN-col", "TabBiN-HMD", "TabBiN-colcomp"],
    note: "",
};

fn rows(bundle: &Bundle, cfg: &ExpConfig) -> Vec<Vec<String>> {
    let (corpus, family, k, max_q) = (&bundle.corpus, &bundle.family, cfg.k, cfg.max_queries);
    rows_over(bundle, &[("textual", false), ("numerical", true)], |numeric| {
        vec![
            eval_cc(corpus, numeric, k, max_q, |t, j| family.embed_column_data(t, j)),
            eval_cc(corpus, numeric, k, max_q, |t, j| family.embed_attribute(t, j)),
            eval_cc_batch(corpus, numeric, k, max_q, |t, cols| {
                BatchEncoder::new(family).embed_columns(t, cols)
            }),
        ]
    })
}
