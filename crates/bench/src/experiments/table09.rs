//! Table 9: F1 (%) for entity classification — TabBiN (+ linear/softmax
//! head) versus DITTO on ER-Magellan-style and corpus-derived pair sets.

use crate::bundle::ExpConfig;
use crate::harness::format_table;
use tabbin_baselines::ditto::{DittoOptions, DittoSim};
use tabbin_core::config::ModelConfig;
use tabbin_core::matcher::{EmbeddedPair, EntityMatcher, MatcherOptions};
use tabbin_core::variants::TabBiNFamily;
use tabbin_corpus::{
    abt_buy_like, amazon_google_like, em_pairs_from_corpus, generate, Dataset, EmPair, GenOptions,
};
use tabbin_table::Table;

fn tabbin_f1(train: &[EmPair], test: &[EmPair], seed: u64) -> f64 {
    // The TabBiN matcher embeds serialized entities with the entity
    // (column-model) encoder and trains the paper's linear+softmax head.
    let pseudo_tables: Vec<Table> = train
        .iter()
        .take(40)
        .map(|p| {
            Table::builder(p.a.clone())
                .hmd_flat(&["entity"])
                .row(vec![tabbin_table::CellValue::text(p.b.clone())])
                .build()
        })
        .collect();
    let family = TabBiNFamily::new(&pseudo_tables, ModelConfig::tiny(), seed);
    let embed_pairs = |pairs: &[EmPair]| -> Vec<EmbeddedPair> {
        pairs
            .iter()
            .map(|p| EmbeddedPair {
                a: family.embed_entity(&p.a),
                b: family.embed_entity(&p.b),
                matched: p.matched,
            })
            .collect()
    };
    let mut head = EntityMatcher::new(family.cfg.hidden, seed ^ 0x99);
    head.train(&embed_pairs(train), &MatcherOptions { epochs: 25, ..Default::default() });
    head.f1_percent(&embed_pairs(test))
}

fn ditto_f1(train: &[EmPair], test: &[EmPair], seed: u64) -> f64 {
    let model =
        DittoSim::train(train, &DittoOptions { pretrain_steps: 100, head_epochs: 50, seed });
    model.f1_percent(test)
}

/// Runs the EM comparison.
pub fn run(cfg: &ExpConfig) -> String {
    let mut rows = Vec::new();
    let mut datasets: Vec<(String, Vec<EmPair>, Vec<EmPair>)> = vec![
        (
            "Amazon-Google (like)".into(),
            amazon_google_like(60, 60, cfg.seed),
            amazon_google_like(30, 30, cfg.seed ^ 1),
        ),
        (
            "Abt-Buy (like)".into(),
            abt_buy_like(60, 60, cfg.seed ^ 2),
            abt_buy_like(30, 30, cfg.seed ^ 3),
        ),
    ];
    for ds in [Dataset::CancerKg, Dataset::CovidKg, Dataset::Webtables] {
        let corpus =
            generate(ds, &GenOptions { n_tables: Some(cfg.n_tables.min(40)), seed: cfg.seed });
        datasets.push((
            ds.name().to_string(),
            em_pairs_from_corpus(&corpus, 60, 60, cfg.seed ^ 4),
            em_pairs_from_corpus(&corpus, 30, 30, cfg.seed ^ 5),
        ));
    }
    for (name, train, test) in &datasets {
        let t = tabbin_f1(train, test, cfg.seed);
        let d = ditto_f1(train, test, cfg.seed ^ 7);
        rows.push(vec![name.clone(), format!("{t:.2}"), format!("{d:.2}")]);
    }
    format_table(
        "Table 9 — F1 (%) for entity classification vs DITTO",
        &["dataset", "TabBiN", "DITTO"],
        &rows,
    )
}
