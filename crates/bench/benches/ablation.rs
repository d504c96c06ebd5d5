//! Ablation benches for the design choices DESIGN.md calls out: what each
//! TabBiN mechanism costs at runtime (the accuracy effect is measured by
//! Tables 12 and 13: `all_experiments --only table12,table13`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tabbin_core::config::{AblationFlags, ModelConfig, SegmentKind};
use tabbin_core::encoding::encode_segment;
use tabbin_core::model::TabBiNModel;
use tabbin_core::variants::train_tokenizer;
use tabbin_corpus::{generate, Dataset, GenOptions};
use tabbin_eval::cosine;
use tabbin_index::{LshCandidates, LshParams, ShardedStore, StoreConfig};
use tabbin_typeinfer::TypeTagger;

/// Forward-pass cost with and without each embedding/attention component.
fn bench_forward_ablations(c: &mut Criterion) {
    let corpus = generate(Dataset::CancerKg, &GenOptions { n_tables: Some(8), seed: 1 });
    let tables = corpus.plain_tables();
    let tok = train_tokenizer(&tables);
    let tagger = TypeTagger::new();
    let variants: [(&str, AblationFlags); 5] = [
        ("full", AblationFlags::full()),
        ("no_visibility", AblationFlags::no_visibility()),
        ("no_type", AblationFlags::no_type_inference()),
        ("no_units", AblationFlags::no_units_nesting()),
        ("no_coords", AblationFlags::no_coordinates()),
    ];
    let mut g = c.benchmark_group("forward_ablation");
    for (name, flags) in variants {
        let cfg = ModelConfig::default().with_ablation(flags);
        let model = TabBiNModel::new(cfg, tok.vocab_size(), 1);
        let seq = encode_segment(&tables[0], SegmentKind::DataRow, &tok, &tagger, &cfg);
        g.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| black_box(model.embed(&seq)));
        });
    }
    g.finish();
}

/// LSH blocking versus exhaustive all-pairs cosine search.
fn bench_blocking_vs_exhaustive(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(5);
    let items: Vec<Vec<f32>> =
        (0..256).map(|_| (0..48).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect();
    // The blocked contender: a flat exact-tier store with LSH on, queried
    // through `LshCandidates` — only rows sharing a band bucket with the
    // query are scored.
    let cfg = StoreConfig { seed: 9, ..StoreConfig::with_lsh(LshParams::new(8, 4)) };
    let mut store = ShardedStore::new(48, 1, cfg);
    for v in &items {
        store.insert(v);
    }
    let mut g = c.benchmark_group("column_matching");
    g.bench_function("exhaustive_cosine", |b| {
        b.iter(|| {
            let mut best = (0usize, -1.0f64);
            for (i, v) in items.iter().enumerate().skip(1) {
                let s = cosine(&items[0], v);
                if s > best.1 {
                    best = (i, s);
                }
            }
            black_box(best)
        });
    });
    g.bench_function("lsh_blocked_cosine", |b| {
        // Top 2: the query's own row, then its best blocked match.
        b.iter(|| black_box(store.search(&items[0], 2, &LshCandidates)));
    });
    g.finish();
}

/// Segment separation cost: encoding four segment sequences versus one
/// whole-table sequence of comparable size.
fn bench_segmentation(c: &mut Criterion) {
    let corpus = generate(Dataset::CovidKg, &GenOptions { n_tables: Some(8), seed: 7 });
    let tables = corpus.plain_tables();
    let tok = train_tokenizer(&tables);
    let tagger = TypeTagger::new();
    let cfg = ModelConfig::default();
    c.bench_function("encode_four_segments", |b| {
        b.iter(|| {
            for kind in SegmentKind::ALL {
                black_box(encode_segment(&tables[0], kind, &tok, &tagger, &cfg));
            }
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_forward_ablations, bench_blocking_vs_exhaustive, bench_segmentation
}
criterion_main!(benches);
