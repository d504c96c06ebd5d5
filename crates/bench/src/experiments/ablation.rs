//! Tables 12 and 13: ablation study on Column and Table Clustering (§4.6) —
//! removing the visibility matrix (TabBiN₁), type inference (TabBiN₂), units
//! & nesting (TabBiN₃), and bi-dimensional coordinates (TabBiN₄).
//!
//! Both tables read the same (dataset, variant, seed) families, so one pass
//! trains each family once and evaluates whichever studies are asked for.

use crate::bundle::{train_family, ExpConfig};
use crate::experiments::Subset;
use crate::harness::{eval_cc_batch, eval_tc_batch, format_table};
use tabbin_core::batch::BatchEncoder;
use tabbin_core::config::{AblationFlags, ModelConfig};
use tabbin_corpus::Dataset;
use tabbin_table::TableKind;

/// The five configurations of the ablation study.
pub fn variants() -> Vec<(&'static str, AblationFlags)> {
    vec![
        ("TabBiN (full)", AblationFlags::full()),
        ("TabBiN1 -visibility", AblationFlags::no_visibility()),
        ("TabBiN2 -type", AblationFlags::no_type_inference()),
        ("TabBiN3 -units/nesting", AblationFlags::no_units_nesting()),
        ("TabBiN4 -coordinates", AblationFlags::no_coordinates()),
    ]
}

/// Seeds averaged per ablation row (single-seed deltas at this scale are
/// dominated by training noise).
pub const SEEDS: [u64; 3] = [0, 1, 2];

/// Which table of the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Study {
    /// Table 12: column clustering, textual and numerical.
    Cc,
    /// Table 13: table clustering over structural subsets.
    Tc,
}

const TC_SUBSETS: [Subset; 3] = [
    ("all", |_| true),
    ("non-relational", |t| t.table.kind() != TableKind::Relational),
    ("nested", |t| t.table.has_nesting()),
];

fn mean(sum: [f64; 2], n: usize) -> String {
    format!("{:.2}/{:.2}", sum[0] / n as f64, sum[1] / n as f64)
}

/// Runs the ablations on CancerKG and Webtables and returns the formatted
/// table of each study in `studies`, in that order.
pub fn run(cfg: &ExpConfig, studies: &[Study]) -> Vec<String> {
    let (cc, tc) = (studies.contains(&Study::Cc), studies.contains(&Study::Tc));
    if !(cc || tc) {
        return Vec::new();
    }
    let (mut cc_rows, mut tc_rows) = (Vec::new(), Vec::new());
    for ds in [Dataset::CancerKg, Dataset::Webtables] {
        for (name, flags) in variants() {
            // [textual, numerical] and one per TC subset: summed (MAP, MRR).
            let mut cc_sums = [[0.0f64; 2]; 2];
            let mut tc_sums = [[0.0f64; 2]; 3];
            let mut tc_counts = [0usize; 3];
            for s in SEEDS {
                let seeded = ExpConfig { seed: cfg.seed ^ (s * 0x1_0001), ..*cfg };
                let model_cfg = ModelConfig::default().with_ablation(flags);
                let (corpus, _, family) = train_family(ds, &seeded, model_cfg);
                let encoder = BatchEncoder::new(&family);
                if cc {
                    for (sum, numeric) in cc_sums.iter_mut().zip([false, true]) {
                        let e =
                            eval_cc_batch(&corpus, numeric, cfg.k, cfg.max_queries, |t, cols| {
                                encoder.embed_columns(t, cols)
                            });
                        sum[0] += e.map;
                        sum[1] += e.mrr;
                    }
                }
                if tc {
                    for (si, (_, subset)) in TC_SUBSETS.iter().enumerate() {
                        let e =
                            eval_tc_batch(&corpus, cfg.k, subset, |ts| encoder.embed_tables(ts));
                        if e.queries > 0 {
                            tc_sums[si][0] += e.map;
                            tc_sums[si][1] += e.mrr;
                            tc_counts[si] += 1;
                        }
                    }
                }
            }
            let mut cc_row = vec![ds.name().to_string(), name.to_string()];
            let mut tc_row = cc_row.clone();
            cc_row.extend(cc_sums.map(|s| mean(s, SEEDS.len())));
            let tc_cells = tc_sums.iter().zip(tc_counts);
            tc_row.extend(tc_cells.map(|(&s, n)| if n == 0 { "n/a".into() } else { mean(s, n) }));
            cc_rows.push(cc_row);
            tc_rows.push(tc_row);
        }
    }
    studies
        .iter()
        .map(|study| match study {
            Study::Cc => format_table(
                "Table 12 — Ablation study on Column Clustering (mean of 3 seeds)",
                &["dataset", "variant", "textual MAP/MRR", "numerical MAP/MRR"],
                &cc_rows,
            ),
            Study::Tc => format_table(
                "Table 13 — Ablation study on Table Clustering (mean of 3 seeds)",
                &["dataset", "variant", "all MAP/MRR", "non-rel MAP/MRR", "nested MAP/MRR"],
                &tc_rows,
            ),
        })
        .collect()
}
