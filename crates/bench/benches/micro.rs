//! Criterion micro-benchmarks for the TabBiN substrate: the costs that
//! dominate pre-training and inference.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use tabbin_core::batch::BatchEncoder;
use tabbin_core::config::{ModelConfig, SegmentKind};
use tabbin_core::encoding::{encode_segment, encode_text};
use tabbin_core::infer::{embed_profiled, embed_with_into, InferScratch, Stage, StageProbe};
use tabbin_core::model::TabBiNModel;
use tabbin_core::pretrain::{PretrainOptions, TrainPhase, TrainProbe};
use tabbin_core::variants::train_tokenizer;
use tabbin_core::variants::TabBiNFamily;
use tabbin_corpus::{generate, Dataset, GenOptions};
use tabbin_index::{LshCandidates, LshParams, ShardedStore, StoreConfig};
use tabbin_table::coords::assign_coordinates;
use tabbin_table::visibility::{visibility_matrix, SeqItem};
use tabbin_tensor::Tensor;
use tabbin_typeinfer::TypeTagger;

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("tensor_matmul");
    for n in [32usize, 64, 128] {
        let a = Tensor::randn(&[n, n], 1.0, 1);
        let b = Tensor::randn(&[n, n], 1.0, 2);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| black_box(a.matmul(&b)));
        });
    }
    g.finish();
}

fn bench_visibility(c: &mut Criterion) {
    let mut g = c.benchmark_group("visibility_matrix");
    for n in [32usize, 96, 192] {
        let items: Vec<SeqItem> =
            (0..n).map(|i| SeqItem::cell((i / 8) as u32, (i % 8) as u32)).collect();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| black_box(visibility_matrix(&items)));
        });
    }
    g.finish();
}

fn bench_encoding_and_forward(c: &mut Criterion) {
    let corpus = generate(Dataset::CancerKg, &GenOptions { n_tables: Some(10), seed: 1 });
    let tables = corpus.plain_tables();
    let tok = train_tokenizer(&tables);
    let tagger = TypeTagger::new();
    let cfg = ModelConfig::default();
    let model = TabBiNModel::new(cfg, tok.vocab_size(), 1);
    let seq = encode_segment(&tables[0], SegmentKind::DataRow, &tok, &tagger, &cfg);

    c.bench_function("encode_segment_data_row", |b| {
        b.iter(|| black_box(encode_segment(&tables[0], SegmentKind::DataRow, &tok, &tagger, &cfg)));
    });
    c.bench_function("tabbin_forward_embed", |b| {
        b.iter(|| black_box(model.embed(&seq)));
    });
}

fn bench_coordinates(c: &mut Criterion) {
    let corpus = generate(Dataset::CancerKg, &GenOptions { n_tables: Some(30), seed: 2 });
    let bin_table = corpus
        .tables
        .iter()
        .find(|t| t.table.has_vmd())
        .map(|t| t.table.clone())
        .expect("a BiN table");
    c.bench_function("assign_coordinates_bin_table", |b| {
        b.iter(|| black_box(assign_coordinates(&bin_table)));
    });
}

fn bench_lsh(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(3);
    let items: Vec<Vec<f32>> =
        (0..512).map(|_| (0..64).map(|_| rng.random_range(-1.0f32..1.0)).collect()).collect();
    // The §4.1 blocking index is a flat (one-shard) exact-tier store with
    // LSH on: building it hashes every vector into its band buckets.
    let build = || {
        let cfg = StoreConfig { seed: 7, ..StoreConfig::with_lsh(LshParams::new(8, 4)) };
        let mut store = ShardedStore::new(64, 1, cfg);
        for v in &items {
            store.insert(v);
        }
        store
    };
    c.bench_function("lsh_build_512x64", |b| {
        b.iter(|| black_box(build()));
    });
    let store = build();
    c.bench_function("lsh_candidates", |b| {
        b.iter(|| black_box(store.candidate_count(&items[0], &LshCandidates)));
    });
}

/// Accumulates the wall time between stage boundaries of the forward pass.
struct StageClock {
    last: Instant,
    nanos: [u128; Stage::ALL.len()],
}

impl StageProbe for StageClock {
    fn done(&mut self, stage: Stage) {
        let now = Instant::now();
        self.nanos[stage as usize] += (now - self.last).as_nanos();
        self.last = now;
    }
}

/// Where one table's inference time goes: the fused forward pass over the
/// four sequences of a table embedding (data rows, HMD, VMD, caption), at
/// the sequence-length mix of the five dataset profiles in equal shares,
/// `ModelConfig::tiny()`. Times the pass whole (`embed_with_into`) and stage
/// by stage (`embed_profiled` with a clock as the probe; its ~50 clock
/// reads per table are in the stage figures, not in the total), best of
/// seven sweeps each, and returns the `infer_stages` object of
/// `BENCH_embed.json`, with `pooled_row_share`: the share of tokens the mean
/// pool reads, which is the share of rows the last block carries past its
/// keys and values.
fn bench_infer_stages(c: &mut Criterion) -> String {
    const PER_PROFILE: usize = 400;
    let tables: Vec<_> = Dataset::ALL
        .into_iter()
        .flat_map(|ds| {
            generate(ds, &GenOptions { n_tables: Some(PER_PROFILE), seed: 3 }).plain_tables()
        })
        .collect();
    // A vocabulary from 200 tables, as a deployment would have: the rest of
    // the corpus brings out-of-vocabulary words and their longer sequences.
    let family = TabBiNFamily::new(&tables[..200], ModelConfig::tiny(), 3);
    let (tok, tagger, cfg) = (&family.tokenizer, &family.tagger, &family.cfg);
    let work: Vec<_> = tables
        .iter()
        .flat_map(|t| {
            [
                (&family.row, encode_segment(t, SegmentKind::DataRow, tok, tagger, cfg)),
                (&family.hmd, encode_segment(t, SegmentKind::Hmd, tok, tagger, cfg)),
                (&family.vmd, encode_segment(t, SegmentKind::Vmd, tok, tagger, cfg)),
                (&family.row, encode_text(&t.caption, tok, tagger, cfg)),
            ]
        })
        .collect();
    let n = tables.len() as f64;
    let tokens = work.iter().map(|(_, s)| s.len()).sum::<usize>() as f64 / n;
    // The non-special tokens; all, if every one is special.
    let pooled = work
        .iter()
        .map(|(_, s)| match s.tokens.iter().filter(|t| !t.special).count() {
            0 => s.len(),
            p => p,
        })
        .sum::<usize>() as f64
        / n;
    let pooled_share = pooled / tokens;

    let mut scratch = InferScratch::new();
    let mut out = vec![0.0f32; cfg.hidden];
    let sweep = |scratch: &mut InferScratch, out: &mut [f32]| {
        for (model, seq) in &work {
            embed_with_into(model, seq, scratch, out);
            black_box(&*out);
        }
    };
    let mut whole = f64::INFINITY;
    let mut stages = [u128::MAX; Stage::ALL.len()];
    for _ in 0..7 {
        let start = Instant::now();
        sweep(&mut scratch, &mut out);
        whole = whole.min(start.elapsed().as_secs_f64() * 1e6 / n);

        let mut clock = StageClock { last: Instant::now(), nanos: [0; Stage::ALL.len()] };
        for (model, seq) in &work {
            clock.last = Instant::now();
            embed_profiled(model, seq, &mut scratch, &mut out, &mut clock);
        }
        for (best, took) in stages.iter_mut().zip(clock.nanos) {
            *best = (*best).min(took);
        }
    }
    let fields: Vec<String> = Stage::ALL
        .iter()
        .zip(stages)
        .map(|(stage, nanos)| {
            let name = match stage {
                Stage::EmbedTokens => "embed_tokens",
                Stage::VisibilityMask => "visibility_mask",
                Stage::Linears => "linears_and_block_norms",
                Stage::AttnScores => "attn_scores_softmax",
                Stage::AttnContext => "attn_context",
                Stage::Gelu => "gelu",
                Stage::Pool => "pool",
            };
            format!("\"{name}\": {:.2}", nanos as f64 / 1e3 / n)
        })
        .collect();
    println!(
        "infer_stages: {tokens:.1} tokens/table ({pooled_share:.3} pooled), embed_with \
         {whole:.2} us/table; {}",
        fields.join(", ")
    );

    let mut g = c.benchmark_group("infer_stages");
    g.bench_function("embed_with_2000_tables", |b| b.iter(|| sweep(&mut scratch, &mut out)));
    g.finish();

    format!(
        "{{\n    \"tables\": {},\n    \"tokens_per_table\": {tokens:.1},\n    \
         \"pooled_row_share\": {pooled_share:.3},\n    \
         \"embed_with_us_per_table\": {whole:.2},\n    \"stage_us_per_table\": {{ {} }}\n  }}",
        tables.len(),
        fields.join(", ")
    )
}

/// Accumulates the wall time of each pre-training phase and counts the
/// train steps (one sequence forward and backward each).
struct PhaseClock {
    last: Instant,
    nanos: [u128; 3],
    train_steps: usize,
}

impl TrainProbe for PhaseClock {
    fn done(&mut self, phase: TrainPhase) {
        let now = Instant::now();
        self.nanos[phase as usize] += (now - self.last).as_nanos();
        self.train_steps += usize::from(phase == TrainPhase::Backward);
        self.last = now;
    }
}

/// Pre-training at the end-to-end benchmark's settings: four
/// `ModelConfig::tiny()` models over a vocabulary from 200 tables of the five
/// profiles, 40 steps of batch 4 on 64 of them — 640 train steps. Best of
/// five runs, each on a fresh family: train steps per second of the whole
/// `pretrain` call, and that run's µs per train step in each phase (the
/// optimizer runs once per batch; its time is spread over the batch).
/// Returns the `pretrain` object of `BENCH_embed.json`.
fn bench_pretrain(c: &mut Criterion) -> String {
    const TABLES: usize = 64;
    let profiles: Vec<_> = Dataset::ALL
        .into_iter()
        .map(|ds| generate(ds, &GenOptions { n_tables: Some(40), seed: 3 }).plain_tables())
        .collect();
    // Interleaved, so the pre-training tables cover every profile.
    let tables: Vec<_> = (0..40).flat_map(|i| profiles.iter().map(move |p| p[i].clone())).collect();
    let opts = PretrainOptions { steps: 40, batch: 4, seed: 3, ..PretrainOptions::default() };
    let fresh = || TabBiNFamily::new(&tables, ModelConfig::tiny(), 3);

    let mut best: Option<(f64, PhaseClock)> = None;
    for _ in 0..5 {
        let mut family = fresh();
        let mut clock = PhaseClock { last: Instant::now(), nanos: [0; 3], train_steps: 0 };
        let start = Instant::now();
        family.pretrain_profiled(&tables[..TABLES], &opts, &mut clock);
        let secs = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(s, _)| secs < *s) {
            best = Some((secs, clock));
        }
    }
    let (secs, clock) = best.expect("five runs");
    let steps = clock.train_steps;
    let us = |phase: TrainPhase| clock.nanos[phase as usize] as f64 / 1e3 / steps as f64;
    let json = format!(
        "{{\n    \"config\": \"ModelConfig::tiny\",\n    \"models\": 4,\n    \
         \"tables\": {TABLES},\n    \"steps\": {},\n    \"batch\": {},\n    \
         \"train_steps\": {steps},\n    \"steps_per_s\": {:.1},\n    \
         \"us_per_train_step\": {{ \"forward\": {:.2}, \"backward\": {:.2}, \
         \"optimizer\": {:.2} }}\n  }}",
        opts.steps,
        opts.batch,
        steps as f64 / secs,
        us(TrainPhase::Forward),
        us(TrainPhase::Backward),
        us(TrainPhase::Optimizer)
    );
    println!("pretrain: {json}");

    let mut g = c.benchmark_group("pretrain");
    let mut family = fresh();
    g.bench_function("family_640_train_steps", |b| {
        b.iter(|| family.pretrain(&tables[..TABLES], &opts));
    });
    g.finish();
    json
}

/// Single-table loop vs. the batched pipeline on a 64-table batch at
/// `ModelConfig::tiny()` — the workspace's headline scaling measurement.
///
/// Besides the criterion samples, this writes `BENCH_embed.json` at the
/// workspace root (tables/sec for both paths plus the speedup, the
/// [`bench_infer_stages`] attribution and the [`bench_pretrain`] figures) so
/// successive PRs accumulate a perf trajectory.
fn bench_embed_batch(c: &mut Criterion) {
    const BATCH: usize = 64;
    let corpus = generate(Dataset::CancerKg, &GenOptions { n_tables: Some(BATCH), seed: 5 });
    let tables = corpus.plain_tables();
    assert_eq!(tables.len(), BATCH, "corpus generator must honor n_tables");
    let family = TabBiNFamily::new(&tables, ModelConfig::tiny(), 5);

    // Warm-up + correctness guard: both paths run the same fused kernel
    // through the same composite, so they agree bit for bit.
    let batched = BatchEncoder::new(&family).embed_tables(&tables);
    assert_eq!(batched[0], family.embed_table(&tables[0]), "batched path diverged");

    let time_it = |f: &dyn Fn() -> Vec<Vec<f32>>| -> f64 {
        // Median of 5 timed runs, in tables/sec.
        let mut secs: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                black_box(f());
                start.elapsed().as_secs_f64()
            })
            .collect();
        secs.sort_by(f64::total_cmp);
        BATCH as f64 / secs[secs.len() / 2]
    };
    let single_tps = time_it(&|| tables.iter().map(|t| family.embed_table(t)).collect());
    let batched_tps = time_it(&|| BatchEncoder::new(&family).embed_tables(&tables));
    let speedup = batched_tps / single_tps;

    // Format once and use the same strings for the log line and the JSON,
    // so the printed figures and BENCH_embed.json cannot drift apart.
    let single_s = format!("{single_tps:.2}");
    let batched_s = format!("{batched_tps:.2}");
    let speedup_s = format!("{speedup:.3}");
    println!(
        "embed_batch_{BATCH}: single {single_s} tables/s, batched {batched_s} \
         tables/s ({speedup_s}x)"
    );

    let json = format!(
        "{{\n  \"bench\": \"embed_table\",\n  \"config\": \"ModelConfig::tiny\",\n  \
         \"batch_size\": {BATCH},\n  \"single_tables_per_sec\": {single_s},\n  \
         \"batched_tables_per_sec\": {batched_s},\n  \"speedup\": {speedup_s},\n  \
         \"infer_stages\": {},\n  \"pretrain\": {}\n}}\n",
        bench_infer_stages(c),
        bench_pretrain(c)
    );
    // Prefer the workspace root; fall back to the working directory (and a
    // warning) so a relocated bench binary still reports instead of dying.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_embed.json");
    if let Err(first) = std::fs::write(&out, &json) {
        if let Err(second) = std::fs::write("BENCH_embed.json", &json) {
            eprintln!("warning: could not write BENCH_embed.json ({first}; fallback: {second})");
        }
    }

    let mut g = c.benchmark_group("embed_64_tables");
    g.bench_function("single", |b| {
        b.iter(|| black_box(tables.iter().map(|t| family.embed_table(t)).collect::<Vec<_>>()));
    });
    g.bench_function("batched", |b| {
        b.iter(|| black_box(BatchEncoder::new(&family).embed_tables(&tables)));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_matmul, bench_visibility, bench_encoding_and_forward, bench_coordinates,
        bench_lsh, bench_embed_batch
}
criterion_main!(benches);
