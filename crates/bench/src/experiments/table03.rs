//! Table 3: Word2Vec dimensionality sweep — average training time vs
//! MAP/MRR for CC and TC on CancerKG string content.

use crate::bundle::{row_sentences, ExpConfig};
use crate::experiments::column_words;
use crate::harness::{eval_cc, eval_tc, format_table};
use tabbin_baselines::word2vec::{Word2Vec, Word2VecConfig};
use tabbin_corpus::{generate, Dataset, GenOptions};

/// Scaled dimensionalities standing in for the paper's 100–1000 sweep.
pub const DIMS: [usize; 5] = [16, 32, 64, 128, 256];

/// Runs the sweep.
pub fn run(cfg: &ExpConfig) -> String {
    let corpus =
        generate(Dataset::CancerKg, &GenOptions { n_tables: Some(cfg.n_tables), seed: cfg.seed });
    let sentences = row_sentences(corpus.tables.iter().map(|t| &t.table));

    let mut rows = Vec::new();
    for dim in DIMS {
        let (model, elapsed) = Word2Vec::train(
            &sentences,
            &Word2VecConfig { dim, epochs: 6, seed: cfg.seed, ..Default::default() },
        );
        let cc = eval_cc(&corpus, false, cfg.k, cfg.max_queries, |t, j| {
            model.embed_text(&column_words(t, j))
        });
        let tc = eval_tc(
            &corpus,
            cfg.k,
            |_| true,
            |t| {
                let mut text = t.caption.clone();
                for i in 0..t.n_rows() {
                    for c in t.row_text(i) {
                        text.push(' ');
                        text.push_str(&c);
                    }
                }
                model.embed_text(&text)
            },
        );
        rows.push(vec![
            dim.to_string(),
            format!("{:.2}s", elapsed.as_secs_f64()),
            cc.render(),
            tc.render(),
        ]);
    }
    format_table(
        "Table 3 — Word2Vec training time vs MAP/MRR (CC and TC, CancerKG strings)",
        &["dim", "train time", "CC MAP/MRR", "TC MAP/MRR"],
        &rows,
    )
}
