//! Table 14: MAP/MRR for CC and TC with LLMs ± RAG (CancerKG and CovidKG)
//! against TabBiN.
//!
//! Only the TabBiN rows are measured. The paper's LLM rows (GPT-2, Llama2,
//! GPT-3.5 and GPT-4, with and without RAG) need proprietary models that
//! cannot run offline, so they are not reproduced: the table quotes the
//! deltas the paper's abstract reports under a "not reproduced offline" note
//! (see DESIGN.md).

use crate::bundle::{Bundle, ExpConfig};
use crate::experiments::LineupTable;
use crate::harness::{eval_cc_batch, eval_tc_batch};
use tabbin_corpus::Dataset;

/// The LLM comparison.
pub const TABLE: LineupTable = LineupTable {
    datasets: &[Dataset::CancerKg, Dataset::CovidKg],
    rows,
    title: "Table 14 — MAP/MRR for CC and TC with LLMs ± RAG vs TabBiN",
    headers: &["dataset", "model", "CC MAP/MRR", "TC MAP/MRR"],
    note: "LLM ± RAG rows (GPT-2, Llama2, GPT-3.5 + RAG, GPT-4 + RAG): not reproduced offline.\n\
           The paper's abstract reports GPT-4 + RAG MRR up to +0.1 over TabBiN, \
           and TabBiN MAP up to +0.42 over GPT-4 + RAG.\n",
};

fn rows(bundle: &Bundle, cfg: &ExpConfig) -> Vec<Vec<String>> {
    let cc = eval_cc_batch(&bundle.corpus, false, cfg.k, cfg.max_queries, |t, cols| {
        bundle.family.embed_columns_subset(t, cols)
    });
    let tc =
        eval_tc_batch(&bundle.corpus, cfg.k, |_| true, |ts| bundle.family.embed_table_refs(ts));
    vec![vec![bundle.corpus.dataset.name().to_string(), "TabBiN".into(), cc.render(), tc.render()]]
}
