//! Table 4: MAP/MRR for Column Clustering — textual and numerical columns,
//! all five datasets, TabBiN vs TUTA vs BioBERT vs Word2Vec.

use crate::bundle::{Bundle, ExpConfig};
use crate::experiments::{column_words, rows_over, LineupTable};
use crate::harness::{eval_cc, eval_cc_batch};
use tabbin_core::batch::BatchEncoder;
use tabbin_corpus::Dataset;

/// The CC comparison.
pub const TABLE: LineupTable = LineupTable {
    datasets: &Dataset::ALL,
    rows,
    title: "Table 4 — MAP/MRR for Column Clustering (textual and numerical)",
    headers: &["dataset", "content", "TabBiN", "TUTA", "BioBERT", "Word2Vec"],
    note: "",
};

fn rows(bundle: &Bundle, cfg: &ExpConfig) -> Vec<Vec<String>> {
    let (corpus, tok, k, max_q) =
        (&bundle.corpus, &bundle.family.tokenizer, cfg.k, cfg.max_queries);
    rows_over(bundle, &[("textual", false), ("numerical", true)], |numeric| {
        vec![
            // Batched path: all of a table's columns in one pass.
            eval_cc_batch(corpus, numeric, k, max_q, |t, cols| {
                BatchEncoder::new(&bundle.family).embed_columns(t, cols)
            }),
            eval_cc(corpus, numeric, k, max_q, |t, j| bundle.tuta.embed_column(t, j, tok)),
            eval_cc(corpus, numeric, k, max_q, |t, j| bundle.bert.embed_column(t, j, tok)),
            eval_cc(corpus, numeric, k, max_q, |t, j| bundle.w2v.embed_text(&column_words(t, j))),
        ]
    })
}
