//! Property tests pinning the batched pipeline's contract: for any table the
//! corpus shape allows, a batch embedding equals the per-item embedding bit
//! for bit, for whole-table composites, per-column composites and entity
//! texts alike — both run the fused kernel through one composite definition —
//! and the TUTA and BioBERT baselines embed through that same kernel.

use proptest::prelude::*;
use tabbin_baselines::{BertSim, TutaSim};
use tabbin_core::batch::{BatchEncoder, PARALLEL_BATCH_THRESHOLD};
use tabbin_core::config::ModelConfig;
use tabbin_core::infer::{embed_with, InferScratch};
use tabbin_core::variants::{train_tokenizer, TabBiNFamily};
use tabbin_table::{CellValue, Table, Unit};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn cell_value() -> impl Strategy<Value = CellValue> {
    prop_oneof![
        "[a-z ]{0,16}".prop_map(CellValue::text),
        (-1e6f64..1e6).prop_map(|v| CellValue::number(v, Some(Unit::Time))),
        (0f64..50.0).prop_map(|v| CellValue::range(v, v + 1.5, None)),
        (0f64..10.0, 0f64..2.0).prop_map(|(m, s)| CellValue::gaussian(m, s, Some(Unit::Stats))),
        Just(CellValue::Empty),
    ]
}

fn arb_table() -> impl Strategy<Value = Table> {
    (1..4usize, 1..4usize).prop_flat_map(|(rows, cols)| {
        (
            proptest::collection::vec(proptest::collection::vec(cell_value(), cols), rows),
            prop_oneof![Just(true), Just(false)],
        )
            .prop_map(move |(grid, with_vmd)| {
                let labels: Vec<String> = (0..cols).map(|i| format!("attr{i}")).collect();
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                let mut b = Table::builder("prop batch").hmd_flat(&refs);
                if with_vmd {
                    let vlabels: Vec<String> = (0..rows).map(|i| format!("row{i}")).collect();
                    let vrefs: Vec<&str> = vlabels.iter().map(String::as_str).collect();
                    b = b.vmd_flat(&vrefs);
                }
                for row in grid {
                    b = b.row(row);
                }
                b.build()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn forward_batch_matches_per_table_embedding(
        tables in proptest::collection::vec(arb_table(), 1..5)
    ) {
        let fam = TabBiNFamily::new(&tables, ModelConfig::tiny(), 41);
        let batched = BatchEncoder::new(&fam).embed_tables(&tables);
        prop_assert_eq!(batched.len(), tables.len());
        for (t, b) in tables.iter().zip(&batched) {
            prop_assert_eq!(bits(&fam.embed_table(t)), bits(b));
        }
    }

    #[test]
    fn column_batch_matches_per_column_embedding(t in arb_table()) {
        let tables = vec![t];
        let fam = TabBiNFamily::new(&tables, ModelConfig::tiny(), 43);
        let all: Vec<usize> = (0..tables[0].n_cols()).collect();
        let cols = BatchEncoder::new(&fam).embed_columns(&tables[0], &all);
        prop_assert_eq!(cols.len(), tables[0].n_cols());
        for (j, c) in cols.iter().enumerate() {
            prop_assert!(bits(&fam.embed_colcomp(&tables[0], j)) == bits(c), "column {}", j);
        }
    }

    #[test]
    fn entity_batch_matches_per_entity_embedding(
        texts in proptest::collection::vec("[a-z]{1,12}", 1..6)
    ) {
        let tables = vec![tabbin_table::samples::figure1_table()];
        let fam = TabBiNFamily::new(&tables, ModelConfig::tiny(), 47);
        let batch = BatchEncoder::new(&fam).embed_entities(&texts);
        for (text, b) in texts.iter().zip(&batch) {
            prop_assert!(bits(&fam.embed_entity(text)) == bits(b), "entity {:?}", text);
        }
    }

    #[test]
    fn embedding_does_not_depend_on_the_rest_of_the_batch(
        tables in proptest::collection::vec(arb_table(), 3..4),
        crowd in prop_oneof![Just(0usize), Just(2 * PARALLEL_BATCH_THRESHOLD)],
    ) {
        // Below the fan-out threshold the batch is [a, b, c]; above it, b
        // sits in the middle of a crowd that is chunked across workers.
        let fam = TabBiNFamily::new(&tables, ModelConfig::tiny(), 53);
        let mut batch = vec![tables[0].clone(); 1 + crowd / 2];
        batch.push(tables[1].clone());
        batch.extend(vec![tables[2].clone(); 1 + crowd / 2]);
        let at = 1 + crowd / 2;
        let encoder = BatchEncoder::new(&fam);
        let alone = encoder.embed_tables(&tables[1..2]);
        let among = encoder.embed_tables(&batch);
        prop_assert_eq!(bits(&among[at]), bits(&alone[0]));
    }

    #[test]
    fn tuta_and_bert_embed_through_the_fused_kernel(
        tables in proptest::collection::vec(arb_table(), 1..4)
    ) {
        let tok = train_tokenizer(&tables);
        let tuta = TutaSim::new(ModelConfig::tiny(), tok.vocab_size(), 59);
        let bert = BertSim::new(ModelConfig::tiny(), tok.vocab_size(), 61);
        let mut scratch = InferScratch::new();
        for t in &tables {
            let fused = embed_with(&tuta.model, &tuta.encode_table(t, &tok), &mut scratch);
            prop_assert!(bits(&tuta.embed_table(t, &tok)) == bits(&fused), "TUTA");
            let fused = embed_with(&bert.model, &bert.encode_table(t, &tok), &mut scratch);
            prop_assert!(bits(&bert.embed_table(t, &tok)) == bits(&fused), "BioBERT");
        }
    }
}
