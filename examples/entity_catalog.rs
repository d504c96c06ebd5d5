//! Entity catalogs and entity clustering (§4.3): extract typed entities from
//! a CovidKG-profile corpus, embed them with the TabBiN column model, and
//! cluster by cosine similarity.
//!
//! Run with: `cargo run --example entity_catalog`

use tabbin_core::batch::BatchEncoder;
use tabbin_core::config::ModelConfig;
use tabbin_core::pretrain::PretrainOptions;
use tabbin_core::variants::TabBiNFamily;
use tabbin_corpus::{generate, Dataset, EType, GenOptions};
use tabbin_eval::rank_by_cosine;

fn main() {
    let corpus = generate(Dataset::CovidKg, &GenOptions { n_tables: Some(40), seed: 3 });
    println!("entity catalog extracted during generation:");
    for ety in EType::ALL {
        let n = corpus.entities_of(ety).len();
        if n > 0 {
            println!("  {:<16} {n} entities", ety.name());
        }
    }

    let tables = corpus.plain_tables();
    let mut family = TabBiNFamily::new(&tables, ModelConfig::tiny(), 3);
    family.pretrain(&tables, &PretrainOptions { steps: 40, batch: 4, ..Default::default() });

    // Embed a mixed set of entities and cluster around a vaccine query.
    let mut texts = Vec::new();
    let mut types = Vec::new();
    for ety in [EType::Vaccine, EType::Symptom, EType::State, EType::Variant] {
        for e in corpus.entities_of(ety).into_iter().take(8) {
            texts.push(e.text.clone());
            types.push(ety);
        }
    }
    // One batched pass over the whole catalog slice.
    let embs: Vec<Vec<f32>> = BatchEncoder::new(&family).embed_entities(&texts);
    // Prefer a vaccine the type tagger's gazetteer covers (real NER also has
    // coverage gaps; uncovered entities cluster on content alone).
    let query = texts
        .iter()
        .position(|t| t == "moderna")
        .or_else(|| types.iter().position(|&t| t == EType::Vaccine))
        .expect("a vaccine");
    println!("\nquery entity: '{}' ({})", texts[query], types[query].name());
    let ranked = rank_by_cosine(&embs[query], &embs, Some(query));
    println!("nearest 6 entities:");
    for (rank, &i) in ranked.iter().take(6).enumerate() {
        let same = types[i] == types[query];
        println!(
            "  {}. {} ({}){}",
            rank + 1,
            texts[i],
            types[i].name(),
            if same { "  <- same type" } else { "" }
        );
    }
}
