//! Property tests pinning the batched pipeline's contract: for any table the
//! corpus shape allows, the fused batch path must agree elementwise (within
//! 1e-5) with the per-table tape path, for whole-table composites, per-column
//! composites, and entity texts alike.

use proptest::prelude::*;
use tabbin_core::batch::{BatchEncoder, PARALLEL_BATCH_THRESHOLD};
use tabbin_core::config::ModelConfig;
use tabbin_core::variants::TabBiNFamily;
use tabbin_table::{CellValue, Table, Unit};

/// The agreed bound between the fused no-tape kernel and the autograd tape
/// (float sums are reassociated slightly between the two).
const TOL: f32 = 1e-5;

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max)
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
        let batched = fam.embed_tables(&tables);
        prop_assert_eq!(batched.len(), tables.len());
        for (t, b) in tables.iter().zip(&batched) {
            let single = fam.embed_table(t);
            let diff = max_abs_diff(&single, b);
            prop_assert!(diff < TOL, "table diverged by {}", diff);
        }
    }

    #[test]
    fn column_batch_matches_per_column_embedding(t in arb_table()) {
        let tables = vec![t];
        let fam = TabBiNFamily::new(&tables, ModelConfig::tiny(), 43);
        let cols = BatchEncoder::new(&fam).embed_columns(&tables[0]);
        prop_assert_eq!(cols.len(), tables[0].n_cols());
        for (j, c) in cols.iter().enumerate() {
            let single = fam.embed_colcomp(&tables[0], j);
            let diff = max_abs_diff(&single, c);
            prop_assert!(diff < TOL, "column {} diverged by {}", j, diff);
        }
    }

    #[test]
    fn entity_batch_matches_per_entity_embedding(
        texts in proptest::collection::vec("[a-z]{1,12}", 1..6)
    ) {
        let tables = vec![tabbin_table::samples::figure1_table()];
        let fam = TabBiNFamily::new(&tables, ModelConfig::tiny(), 47);
        let batch = fam.embed_entities(&texts);
        for (text, b) in texts.iter().zip(&batch) {
            let single = fam.embed_entity(text);
            let diff = max_abs_diff(&single, b);
            prop_assert!(diff < TOL, "entity {:?} diverged by {}", text, diff);
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
        let alone = fam.embed_tables(&tables[1..2]);
        let among = fam.embed_tables(&batch);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&among[at]), bits(&alone[0]));
    }
}
