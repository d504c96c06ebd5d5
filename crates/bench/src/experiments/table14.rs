//! Table 14: MAP/MRR for CC and TC with LLMs ± RAG (CancerKG and CovidKG)
//! against TabBiN.
//!
//! The LLM rows come from the calibrated behavioral simulator (see
//! `tabbin_baselines::llm_rag` and DESIGN.md): offline reproduction cannot
//! call GPT-4/Llama2, so the simulator reproduces the paper's reported
//! signature — RAG lifts quality; RAG+GPT-4 reaches MRR ≈ 1.0 while TabBiN
//! keeps the MAP lead.

use crate::bundle::{Bundle, ExpConfig};
use crate::experiments::LineupTable;
use crate::harness::{
    collect_columns, eval_cc_batch, eval_tc_batch, retrievable_queries, sample_queries,
};
use tabbin_baselines::llm_rag::{LlmRagSim, LlmTier};
use tabbin_corpus::Dataset;

/// The LLM comparison.
pub const TABLE: LineupTable = LineupTable {
    datasets: &[Dataset::CancerKg, Dataset::CovidKg],
    rows,
    title: "Table 14 — MAP/MRR for CC and TC with LLMs ± RAG vs TabBiN",
    headers: &["dataset", "model", "CC MAP/MRR", "TC MAP/MRR"],
};

fn rows(bundle: &Bundle, cfg: &ExpConfig) -> Vec<Vec<String>> {
    let sims = [
        LlmRagSim::new(LlmTier::Gpt2, false),
        LlmRagSim::new(LlmTier::Llama2, false),
        LlmRagSim::new(LlmTier::Llama2, true),
        LlmRagSim::new(LlmTier::Gpt35, true),
        LlmRagSim::new(LlmTier::Gpt4, true),
    ];
    let ds = bundle.corpus.dataset;
    let mut rows = Vec::new();

    // CC labels: textual columns; TC labels: topics.
    let cols = collect_columns(&bundle.corpus, false);
    let cc_labels: Vec<u32> = cols.iter().map(|c| c.sem).collect();
    let cc_queries = retrievable_queries(&cc_labels, cfg.max_queries);
    let tc_labels: Vec<String> = bundle.corpus.tables.iter().map(|t| t.topic.clone()).collect();
    let tc_queries: Vec<usize> = sample_queries(tc_labels.len(), cfg.max_queries).to_vec();

    for sim in &sims {
        let (cm, cr) = sim.evaluate(&cc_labels, &cc_queries, cfg.k, cfg.seed ^ 0x14);
        let (tm, tr) = sim.evaluate(&tc_labels, &tc_queries, cfg.k, cfg.seed ^ 0x15);
        rows.push(vec![
            ds.name().to_string(),
            sim.label(),
            format!("{cm:.2}/{cr:.2}"),
            format!("{tm:.2}/{tr:.2}"),
        ]);
    }
    // TabBiN reference rows (measured, not simulated).
    let cc = eval_cc_batch(&bundle.corpus, false, cfg.k, cfg.max_queries, |t, cols| {
        bundle.family.embed_columns_subset(t, cols)
    });
    let tc =
        eval_tc_batch(&bundle.corpus, cfg.k, |_| true, |ts| bundle.family.embed_table_refs(ts));
    rows.push(vec![ds.name().to_string(), "TabBiN".to_string(), cc.render(), tc.render()]);
    rows
}
