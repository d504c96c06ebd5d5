//! Baseline behavior relative to TabBiN on the evaluation protocols.

use tabbin_baselines::bert::BertSim;
use tabbin_baselines::tuta::TutaSim;
use tabbin_baselines::word2vec::{tokenize, Word2Vec, Word2VecConfig};
use tabbin_core::config::ModelConfig;
use tabbin_core::pretrain::PretrainOptions;
use tabbin_core::variants::TabBiNFamily;
use tabbin_corpus::{generate, Dataset, GenOptions, FILLER_SEM_ID};
use tabbin_eval::clustering::evaluate_retrieval;

#[test]
fn tabbin_beats_word2vec_on_numeric_column_clustering() {
    // The paper's headline: numeric columns carry no lexical signal, so a
    // bag-of-words model collapses while TabBiN reads units, numeric
    // features and coordinates.
    let corpus = generate(Dataset::Cius, &GenOptions { n_tables: Some(24), seed: 11 });
    let tables = corpus.plain_tables();

    let mut family = TabBiNFamily::new(&tables, ModelConfig::tiny(), 11);
    family.pretrain(
        &tables,
        &PretrainOptions { steps: 25, batch: 4, seed: 11, ..Default::default() },
    );

    let sentences: Vec<Vec<String>> = tables
        .iter()
        .flat_map(|t| {
            (0..t.n_rows()).map(move |i| t.row_text(i).iter().flat_map(|c| tokenize(c)).collect())
        })
        .collect();
    let (w2v, _) = Word2Vec::train(&sentences, &Word2VecConfig::default());

    let mut tab_items = Vec::new();
    let mut w2v_items = Vec::new();
    let mut labels = Vec::new();
    for lt in &corpus.tables {
        for (ci, &sem) in lt.column_sem.iter().enumerate() {
            if sem == FILLER_SEM_ID || !lt.column_numeric[ci] {
                continue;
            }
            tab_items.push(family.embed_colcomp(&lt.table, ci));
            let mut text = String::new();
            for c in lt.table.column_text(ci) {
                text.push(' ');
                text.push_str(&c);
            }
            w2v_items.push(w2v.embed_text(&text));
            labels.push(sem);
        }
    }
    let queries: Vec<usize> = (0..labels.len().min(20)).collect();
    let tab = evaluate_retrieval(&tab_items, &labels, &queries, 20);
    let w2 = evaluate_retrieval(&w2v_items, &labels, &queries, 20);
    assert!(tab.map > w2.map, "TabBiN must beat Word2Vec on numeric CC: {} vs {}", tab.map, w2.map);
}

#[test]
fn tuta_and_bert_produce_usable_embeddings() {
    let corpus = generate(Dataset::Webtables, &GenOptions { n_tables: Some(12), seed: 13 });
    let tables = corpus.plain_tables();
    let family = TabBiNFamily::new(&tables, ModelConfig::tiny(), 13);
    let tok = &family.tokenizer;

    let mut tuta = TutaSim::new(ModelConfig::tiny(), tok.vocab_size(), 13);
    tuta.pretrain(
        &tables,
        tok,
        &PretrainOptions { steps: 5, batch: 2, seed: 13, ..Default::default() },
    );
    let mut bert = BertSim::new(ModelConfig::tiny(), tok.vocab_size(), 13);
    bert.pretrain(&tables, tok, &PretrainOptions { steps: 5, ..Default::default() });

    for t in tables.iter().take(4) {
        let et = tuta.embed_table(t, tok);
        let eb = bert.embed_table(t, tok);
        assert_eq!(et.len(), 24);
        assert_eq!(eb.len(), 24);
        assert!(et.iter().all(|v| v.is_finite()));
        assert!(eb.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn word2vec_dimensionality_tradeoff_exists() {
    // Table 3's premise: smaller dims are cheaper; quality saturates.
    let corpus = generate(Dataset::CancerKg, &GenOptions { n_tables: Some(10), seed: 17 });
    let sentences: Vec<Vec<String>> = corpus
        .tables
        .iter()
        .flat_map(|t| {
            (0..t.table.n_rows())
                .map(move |i| t.table.row_text(i).iter().flat_map(|c| tokenize(c)).collect())
        })
        .collect();
    let (small, t_small) =
        Word2Vec::train(&sentences, &Word2VecConfig { dim: 8, epochs: 3, ..Default::default() });
    let (large, t_large) =
        Word2Vec::train(&sentences, &Word2VecConfig { dim: 96, epochs: 3, ..Default::default() });
    assert_eq!(small.dim(), 8);
    assert_eq!(large.dim(), 96);
    // Training more dimensions must not be dramatically *faster*.
    assert!(t_large.as_secs_f64() >= t_small.as_secs_f64() * 0.5);
}
