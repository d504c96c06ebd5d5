//! Property tests on the encoding layer: any table the corpus can produce
//! must encode within bounds and with consistent labels.

use proptest::prelude::*;
use tabbin_core::config::{ModelConfig, SegmentKind};
use tabbin_core::encoding::{
    encode_column, encode_row, encode_segment, encode_text, EncodedSequence, NO_CELL,
};
use tabbin_core::variants::train_tokenizer;
use tabbin_corpus::{generate, Dataset, GenOptions};
use tabbin_table::coords::{assign_coordinates, for_each_axis_path, path_pair};
use tabbin_table::{CellValue, Table, Unit};
use tabbin_tokenizer::Tokenizer;
use tabbin_typeinfer::TypeTagger;

fn tok() -> Tokenizer {
    Tokenizer::train(
        [
            "alpha beta gamma delta epsilon zeta eta theta months years percent",
            "overall survival hazard ratio cohort treatment outcome value",
        ],
        2000,
        1,
    )
}

fn cell_value() -> impl Strategy<Value = CellValue> {
    prop_oneof![
        "[a-z ]{0,20}".prop_map(CellValue::text),
        (-1e6f64..1e6).prop_map(|v| CellValue::number(v, Some(Unit::Time))),
        (0f64..50.0).prop_map(|v| CellValue::range(v, v + 1.0, None)),
        Just(CellValue::Empty),
    ]
}

fn arb_table() -> impl Strategy<Value = Table> {
    (1..4usize, 1..4usize).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(proptest::collection::vec(cell_value(), cols), rows).prop_map(
            move |grid| {
                let labels: Vec<String> = (0..cols).map(|i| format!("attr{i}")).collect();
                let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                let mut b = Table::builder("prop").hmd_flat(&refs);
                for row in grid {
                    b = b.row(row);
                }
                b.build()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_segments_encode_within_bounds(t in arb_table()) {
        let tok = tok();
        let tagger = TypeTagger::new();
        let cfg = ModelConfig::tiny();
        for kind in SegmentKind::ALL {
            let seq = encode_segment(&t, kind, &tok, &tagger, &cfg);
            prop_assert!(seq.len() <= cfg.max_seq);
            for et in &seq.tokens {
                prop_assert!((et.vocab_id as usize) < tok.vocab_size());
                prop_assert!(et.cell_pos < cfg.max_cell_tokens);
                prop_assert!(et.sem_type < tabbin_typeinfer::SemType::COUNT);
                if et.special {
                    prop_assert_eq!(et.cell_id, NO_CELL);
                } else {
                    prop_assert!(et.cell_id < seq.n_cells);
                }
            }
        }
    }

    #[test]
    fn visibility_matrix_is_square(t in arb_table()) {
        let tok = tok();
        let tagger = TypeTagger::new();
        let cfg = ModelConfig::tiny();
        let seq = encode_segment(&t, SegmentKind::DataRow, &tok, &tagger, &cfg);
        let vis = seq.visibility();
        prop_assert_eq!(vis.len(), seq.len());
        for row in &vis {
            prop_assert_eq!(row.len(), seq.len());
        }
    }

    #[test]
    fn row_and_column_encodings_address_correctly(t in arb_table()) {
        let tok = tok();
        let tagger = TypeTagger::new();
        let cfg = ModelConfig::tiny();
        for j in 0..t.n_cols() {
            let seq = encode_column(&t, j, &tok, &tagger, &cfg);
            for et in seq.tokens.iter().filter(|e| !e.special) {
                prop_assert_eq!(et.col, j as u32);
            }
        }
        for i in 0..t.n_rows() {
            let seq = encode_row(&t, i, &tok, &tagger, &cfg);
            for et in seq.tokens.iter().filter(|e| !e.special) {
                prop_assert_eq!(et.row, i as u32);
            }
        }
    }

    #[test]
    fn text_encoding_never_panics(s in ".{0,60}") {
        let tok = tok();
        let tagger = TypeTagger::new();
        let cfg = ModelConfig::tiny();
        let seq = encode_text(&s, &tok, &tagger, &cfg);
        prop_assert!(!seq.is_empty(), "at least [CLS]");
        prop_assert!(seq.len() <= cfg.max_seq);
    }

    #[test]
    fn cell_token_indices_are_disjoint(t in arb_table()) {
        let tok = tok();
        let tagger = TypeTagger::new();
        let cfg = ModelConfig::tiny();
        let seq = encode_segment(&t, SegmentKind::DataRow, &tok, &tagger, &cfg);
        let cells = seq.cell_token_indices();
        let mut seen = std::collections::HashSet::new();
        for cell in &cells {
            for &i in cell {
                prop_assert!(seen.insert(i), "token {i} owned by two cells");
            }
        }
    }
}

/// FNV-1a over every field of every token, and the cell count.
fn fold_sequence(h: &mut u64, seq: &EncodedSequence) {
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(seq.tokens.len() as u64);
    eat(seq.n_cells as u64);
    for t in &seq.tokens {
        eat(u64::from(t.vocab_id));
        eat(t.value.map_or(u64::MAX, f64::to_bits));
        eat(t.cell_pos as u64);
        t.tpos.iter().for_each(|&x| eat(u64::from(x)));
        eat(t.sem_type as u64);
        t.feat_bits.iter().for_each(|&b| eat(u64::from(b)));
        eat(u64::from(t.row));
        eat(u64::from(t.col));
        eat(u64::from(t.special));
        eat(t.cell_id as u64);
    }
}

/// Digests of [`fold_sequence`] over the corpus below, taken at the commit
/// before the encoder stopped allocating per word and walking past
/// `max_seq`: tokenizer training, splitting, WordPiece, truncation and cell
/// numbering must all still produce the very same sequences.
const ENCODING_DIGESTS: [(Dataset, u64); 5] = [
    (Dataset::Webtables, 0x3cff_cb8e_e289_c1b1),
    (Dataset::CovidKg, 0xe3ac_add9_8a17_df6d),
    (Dataset::CancerKg, 0xf533_2e4a_ada9_eda9),
    (Dataset::Saus, 0xa6b3_7604_514d_01a3),
    (Dataset::Cius, 0x55c1_d749_e9c6_3192),
];

#[test]
fn generated_tables_encode_as_before_the_allocation_light_encoder() {
    let tagger = TypeTagger::new();
    for (ds, want) in ENCODING_DIGESTS {
        let tables = generate(ds, &GenOptions { n_tables: Some(48), seed: 11 }).plain_tables();
        // Half the tables train the vocabulary, so the other half exercise
        // the out-of-vocabulary paths.
        let tok = train_tokenizer(&tables[..24]);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for cfg in [ModelConfig::tiny(), ModelConfig::default()] {
            for t in &tables {
                for kind in SegmentKind::ALL {
                    fold_sequence(&mut h, &encode_segment(t, kind, &tok, &tagger, &cfg));
                }
                for j in 0..t.n_cols() {
                    fold_sequence(&mut h, &encode_column(t, j, &tok, &tagger, &cfg));
                }
                for i in 0..t.n_rows().min(3) {
                    fold_sequence(&mut h, &encode_row(t, i, &tok, &tagger, &cfg));
                }
                fold_sequence(&mut h, &encode_text(&t.caption, &tok, &tagger, &cfg));
            }
        }
        assert_eq!(h, want, "{}: digest {h:#018x}", ds.name());
    }
}

/// The encoder reads a data cell's coordinate per axis — row `i`'s
/// vertical pair and column `j`'s horizontal pair — instead of building
/// every cell's `BiCoord`. Pin that against `assign_coordinates` for every
/// cell of all five profiles, hierarchical and nested tables included:
/// the public per-axis helper directly, and every data token the encoder
/// emits with room for the whole table.
#[test]
fn per_axis_tpos_equals_assign_coordinates_on_every_profile() {
    let tagger = TypeTagger::new();
    let cfg = ModelConfig {
        max_seq: 1 << 16,
        max_cell_tokens: 1 << 10,
        max_coord: u16::MAX as usize,
        ..ModelConfig::tiny()
    };
    let (mut hierarchical, mut nested, mut tokens) = (0, 0, 0usize);
    for ds in Dataset::ALL {
        let tables = generate(ds, &GenOptions { n_tables: Some(48), seed: 11 }).plain_tables();
        let tok = train_tokenizer(&tables[..24]);
        for t in &tables {
            hierarchical += usize::from(t.hmd.is_hierarchical() || t.vmd.is_hierarchical());
            nested += usize::from(t.has_nesting());
            let coords = assign_coordinates(t);
            let want =
                |r: usize, c: usize| coords.data_coord(r, c).expect("every cell").tpos_indices();
            let (mut rows, mut cols) = (Vec::new(), Vec::new());
            for_each_axis_path(&t.vmd, t.n_rows(), |p| rows.push(path_pair(p)));
            for_each_axis_path(&t.hmd, t.n_cols(), |p| cols.push(path_pair(p)));
            for (r, c, _) in t.data.iter_indexed() {
                let ((vr, vc), (hr, hc)) = (rows[r], cols[c]);
                assert_eq!([vr, vc, hr, hc, 0, 0], want(r, c), "{}: cell ({r},{c})", ds.name());
            }
            for kind in [SegmentKind::DataRow, SegmentKind::DataColumn] {
                let seq = encode_segment(t, kind, &tok, &tagger, &cfg);
                for tk in seq.tokens.iter().filter(|tk| !tk.special) {
                    let (r, c) = (tk.row as usize, tk.col as usize);
                    let want = want(r, c);
                    // A nested table's tokens keep the host's four axis
                    // indices and number their own position in the last two.
                    let n = if t.data.get(r, c).is_nested() { 4 } else { 6 };
                    assert_eq!(tk.tpos[..n], want[..n], "{}: token of cell ({r},{c})", ds.name());
                    tokens += 1;
                }
            }
        }
    }
    assert!(hierarchical > 0 && nested > 0, "the profiles cover hierarchy and nesting");
    assert!(tokens > 0);
}
