//! Table 8: MAP/MRR for Entity Clustering across all five datasets.

use crate::bundle::{Bundle, ExpConfig};
use crate::experiments::LineupTable;
use crate::harness::eval_ec;
use tabbin_corpus::Dataset;

/// The EC comparison.
pub const TABLE: LineupTable = LineupTable {
    datasets: &Dataset::ALL,
    rows,
    title: "Table 8 — MAP/MRR for Entity Clustering",
    headers: &["dataset", "TabBiN", "TUTA", "BioBERT", "Word2Vec"],
};

fn rows(bundle: &Bundle, cfg: &ExpConfig) -> Vec<Vec<String>> {
    let tok = &bundle.family.tokenizer;
    let per_type = 12;
    let tabbin = eval_ec(&bundle.corpus, cfg.k, per_type, cfg.max_queries, |e| {
        bundle.family.embed_entity(e)
    });
    if tabbin.queries == 0 {
        return Vec::new();
    }
    let tuta = eval_ec(&bundle.corpus, cfg.k, per_type, cfg.max_queries, |e| {
        bundle.tuta.embed_entity(e, tok)
    });
    let bert = eval_ec(&bundle.corpus, cfg.k, per_type, cfg.max_queries, |e| {
        bundle.bert.embed_text(tok, e)
    });
    let w2v =
        eval_ec(&bundle.corpus, cfg.k, per_type, cfg.max_queries, |e| bundle.w2v.embed_text(e));
    vec![vec![
        bundle.corpus.dataset.name().to_string(),
        tabbin.render(),
        tuta.render(),
        bert.render(),
        w2v.render(),
    ]]
}
