//! Property-based tests for the BiN table model: coordinate and visibility
//! invariants over randomly generated tables and metadata trees.

use proptest::prelude::*;
use tabbin_table::coords::assign_coordinates;
use tabbin_table::visibility::{density, visibility_matrix, SeqItem};
use tabbin_table::{CellValue, MetaNode, MetaTree, NumericFeatures, Table, Unit};

/// Strategy: a metadata tree with the requested number of leaves, randomly
/// grouped into one or two levels.
fn meta_tree(leaves: usize) -> impl Strategy<Value = MetaTree> {
    (0..=1usize).prop_map(move |hier| {
        if hier == 0 || leaves < 2 {
            MetaTree::from_roots((0..leaves).map(|i| MetaNode::leaf(format!("leaf{i}"))).collect())
        } else {
            let split = leaves / 2;
            let left: Vec<MetaNode> = (0..split).map(|i| MetaNode::leaf(format!("l{i}"))).collect();
            let right: Vec<MetaNode> =
                (split..leaves).map(|i| MetaNode::leaf(format!("r{i}"))).collect();
            let mut roots = vec![MetaNode::branch("groupA", left)];
            if !right.is_empty() {
                roots.push(MetaNode::branch("groupB", right));
            }
            MetaTree::from_roots(roots)
        }
    })
}

fn cell_value() -> impl Strategy<Value = CellValue> {
    prop_oneof![
        "[a-z]{1,8}".prop_map(CellValue::text),
        (-1e4f64..1e4).prop_map(|v| CellValue::number(v, None)),
        (0f64..100.0, 0f64..100.0).prop_map(|(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            CellValue::range(lo, hi, Some(Unit::Time))
        }),
        (0f64..10.0, 0f64..2.0).prop_map(|(m, s)| CellValue::gaussian(m, s, Some(Unit::Stats))),
    ]
}

fn arb_table() -> impl Strategy<Value = Table> {
    (1..5usize, 1..5usize).prop_flat_map(|(rows, cols)| {
        let grid = proptest::collection::vec(proptest::collection::vec(cell_value(), cols), rows);
        (grid, meta_tree(cols), prop_oneof![Just(true), Just(false)]).prop_map(
            move |(grid, hmd, with_vmd)| {
                let mut b = Table::builder("prop table").hmd_tree(hmd);
                if with_vmd {
                    let labels: Vec<String> = (0..rows).map(|i| format!("row{i}")).collect();
                    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
                    b = b.vmd_flat(&refs);
                }
                for row in grid {
                    b = b.row(row);
                }
                b.build()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coordinates_exist_for_every_cell(t in arb_table()) {
        let coords = assign_coordinates(&t);
        prop_assert_eq!(coords.data.len(), t.n_rows() * t.n_cols());
        for a in &coords.data {
            prop_assert!(a.coord.vertical.depth() >= 1);
            prop_assert!(a.coord.horizontal.depth() >= 1);
            prop_assert_eq!(a.coord.nested, (0, 0));
        }
    }

    #[test]
    fn coordinate_paths_are_unique_per_axis(t in arb_table()) {
        let coords = assign_coordinates(&t);
        // Two cells in different columns must have different horizontal paths.
        for a in &coords.data {
            for b in &coords.data {
                if a.col != b.col {
                    prop_assert_ne!(&a.coord.horizontal, &b.coord.horizontal);
                }
                if a.row != b.row {
                    prop_assert_ne!(&a.coord.vertical, &b.coord.vertical);
                }
            }
        }
    }

    #[test]
    fn hierarchical_paths_respect_leaf_order(t in arb_table()) {
        // Leaf paths read left-to-right must be lexicographically increasing.
        let paths = t.hmd.leaf_paths();
        for w in paths.windows(2) {
            prop_assert!(w[0] < w[1], "paths out of order: {:?} then {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn visibility_is_symmetric_and_reflexive(t in arb_table()) {
        let items: Vec<SeqItem> = (0..t.n_rows())
            .flat_map(|r| (0..t.n_cols()).map(move |c| SeqItem::cell(r as u32, c as u32)))
            .collect();
        let m = visibility_matrix(&items);
        for (i, row) in m.iter().enumerate() {
            prop_assert!(row[i]);
            for (j, &v) in row.iter().enumerate() {
                prop_assert_eq!(v, m[j][i]);
            }
        }
    }

    #[test]
    fn visibility_density_matches_formula(rows in 1..6usize, cols in 1..6usize) {
        // For a full grid, each cell sees its row (cols) + its column (rows)
        // - itself counted twice once.
        let items: Vec<SeqItem> = (0..rows)
            .flat_map(|r| (0..cols).map(move |c| SeqItem::cell(r as u32, c as u32)))
            .collect();
        let m = visibility_matrix(&items);
        let visible_per_cell = (cols + rows - 1) as f64;
        let expect = visible_per_cell / (rows * cols) as f64;
        prop_assert!((density(&m) - expect).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrip_any_table(t in arb_table()) {
        let json = serde_json::to_string(&t).unwrap();
        let back: Table = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(t, back);
    }

    #[test]
    fn numeric_fraction_is_a_probability(t in arb_table()) {
        let f = t.numeric_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn render_never_panics(v in cell_value()) {
        let s = v.render();
        let has_nul = s.chars().any(|c| c == char::from(0));
        prop_assert!(!has_nul);
    }
}

/// The string-rendered definition of the numeric features, as written before
/// `NumericFeatures::of` became allocation-free: the oracle it must equal.
fn numeric_features_by_string(value: f64) -> NumericFeatures {
    let v = value.abs();
    let magnitude = if v < 1.0 { 0 } else { (v.log10().floor() as i64).clamp(0, 9) as u8 };
    let mut s = format!("{v:.6}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    let digits: Vec<u8> = s.bytes().filter(u8::is_ascii_digit).map(|b| b - b'0').collect();
    let int_digits = s.split('.').next().map(|p| p.len()).unwrap_or(0);
    let frac_digits = digits.len().saturating_sub(int_digits);
    NumericFeatures {
        magnitude: magnitude.min(9),
        precision: frac_digits.clamp(1, 9) as u8,
        first_digit: digits.iter().copied().find(|&d| d != 0).unwrap_or(0),
        last_digit: digits.last().copied().unwrap_or(0),
    }
}

#[test]
fn numeric_features_match_string_definition_on_edge_values() {
    let mut cases = vec![
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        5e-324,
        4.9e-7,
        5e-7,
        5.000001e-7,
        0.999_999_5,
        0.999_999_499,
        9.999_999_5,
        999_999_999.999_999_9,
        1e9,
        1e12 - 1.0,
        999_999_999_999.999_9,
        1e12,
        1.5e12,
        9.007_199_254_740_993e15,
        1e22,
        1.797e308,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        20.3,
        -20.3,
        100.0,
        0.05,
    ];
    // Exact decimal ties at the sixth place: odd multiples of 2^-7.
    cases.extend((1..200).step_by(2).map(|j| j as f64 / 128.0));
    cases.extend((1..200).step_by(2).map(|j| 1e6 + j as f64 / 128.0));
    for v in cases {
        assert_eq!(NumericFeatures::of(v), numeric_features_by_string(v), "value {v:e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn numeric_features_match_string_definition(bits in 0..=u64::MAX, scale in 0usize..4) {
        // Raw bit patterns cover subnormals, huge values, NaN and ±inf;
        // the scaled forms crowd the range tables actually hold.
        let raw = f64::from_bits(bits);
        let v = match scale {
            0 => raw,
            1 => (bits % 2_000_000_000) as f64 / 1000.0 - 1e6,
            2 => (bits % 1_000_000) as f64 / 1e6,
            _ => (bits >> 11) as f64 / 1e4,
        };
        let (got, want) = (NumericFeatures::of(v), numeric_features_by_string(v));
        prop_assert!(got == want, "value {:e}: {:?} != {:?}", v, got, want);
    }
}
