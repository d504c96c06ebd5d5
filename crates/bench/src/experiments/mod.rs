//! One module per paper table/figure, and the driver that runs them.
//!
//! [`EXPERIMENTS`] lists every experiment in print order. [`run`] trains each
//! model at most once per call and keeps one trained model alive at a time:
//! the lineup tables ([`LineupTable`]) read one [`Bundle`] per dataset, trained
//! in a dataset-outer loop and dropped before the next, and Tables 12 and 13
//! come out of one pass over the ablation families ([`ablation`]).

pub mod ablation;
pub mod figures;
pub mod table03;
pub mod table04;
pub mod table05;
pub mod table06;
pub mod table07;
pub mod table08;
pub mod table09;
pub mod table10;
pub mod table11;
pub mod table14;

use crate::bundle::{Bundle, ExpConfig};
use crate::harness::{eval_tc, eval_tc_batch, format_table};
use tabbin_corpus::{Dataset, LabeledTable};
use tabbin_eval::clustering::RetrievalEval;
use tabbin_table::Table;

/// A table whose rows come from the trained [`Bundle`] of each of its
/// datasets, one bundle at a time.
pub struct LineupTable {
    /// Datasets in the table's row order.
    pub datasets: &'static [Dataset],
    /// The rows one dataset's bundle contributes.
    pub rows: fn(&Bundle, &ExpConfig) -> Vec<Vec<String>>,
    /// Table title.
    pub title: &'static str,
    /// Column headers.
    pub headers: &'static [&'static str],
    /// Lines printed under the table, each ending in a newline; empty for
    /// none.
    pub note: &'static str,
}

/// How an experiment gets its models.
pub enum Kind {
    /// Builds (or needs) no shared model.
    Standalone(fn(&ExpConfig) -> String),
    /// Reads the shared per-dataset bundles.
    Lineup(LineupTable),
    /// One table of the ablation study, from the shared ablation pass.
    Ablation(ablation::Study),
}

/// One paper table or figure.
pub struct Experiment {
    /// Selection name (`figure1`…`figure5`, `table03`…`table14`).
    pub name: &'static str,
    /// How it is computed.
    pub kind: Kind,
}

/// Every experiment, in print order.
pub const EXPERIMENTS: [Experiment; 17] = [
    Experiment { name: "figure1", kind: Kind::Standalone(figures::figure1) },
    Experiment { name: "figure2", kind: Kind::Standalone(figures::figure2) },
    Experiment { name: "figure3", kind: Kind::Standalone(figures::figure3) },
    Experiment { name: "figure4", kind: Kind::Standalone(figures::figure4) },
    Experiment { name: "figure5", kind: Kind::Standalone(figures::figure5) },
    Experiment { name: "table03", kind: Kind::Standalone(table03::run) },
    Experiment { name: "table04", kind: Kind::Lineup(table04::TABLE) },
    Experiment { name: "table05", kind: Kind::Lineup(table05::TABLE) },
    Experiment { name: "table06", kind: Kind::Lineup(table06::TABLE) },
    Experiment { name: "table07", kind: Kind::Standalone(table07::run) },
    Experiment { name: "table08", kind: Kind::Lineup(table08::TABLE) },
    Experiment { name: "table09", kind: Kind::Standalone(table09::run) },
    Experiment { name: "table10", kind: Kind::Lineup(table10::TABLE) },
    Experiment { name: "table11", kind: Kind::Lineup(table11::TABLE) },
    Experiment { name: "table12", kind: Kind::Ablation(ablation::Study::Cc) },
    Experiment { name: "table13", kind: Kind::Ablation(ablation::Study::Tc) },
    Experiment { name: "table14", kind: Kind::Lineup(table14::TABLE) },
];

/// The experiments named in a comma-separated `spec` (all of them for
/// `None`), in print order. An unknown name is an error listing the valid
/// ones.
pub fn select(spec: Option<&str>) -> Result<Vec<&'static Experiment>, String> {
    let Some(spec) = spec else { return Ok(EXPERIMENTS.iter().collect()) };
    let names: Vec<&str> = spec.split(',').map(str::trim).collect();
    if let Some(bad) = names.iter().find(|n| !EXPERIMENTS.iter().any(|e| e.name == **n)) {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        return Err(format!("unknown experiment {bad:?}; valid names: {}", valid.join(",")));
    }
    Ok(EXPERIMENTS.iter().filter(|e| names.contains(&e.name)).collect())
}

/// Runs `selected` and returns each one's formatted result block, in the
/// order given. Each bundle and each ablation family is trained once.
pub fn run(selected: &[&Experiment], cfg: &ExpConfig) -> Vec<String> {
    let lineups: Vec<&LineupTable> = selected
        .iter()
        .filter_map(|e| if let Kind::Lineup(t) = &e.kind { Some(t) } else { None })
        .collect();
    // rows[i][j]: the rows lineup table i gets from its j-th dataset.
    let mut rows: Vec<Vec<Vec<Vec<String>>>> =
        lineups.iter().map(|t| vec![Vec::new(); t.datasets.len()]).collect();
    for ds in Dataset::ALL {
        if !lineups.iter().any(|t| t.datasets.contains(&ds)) {
            continue;
        }
        let bundle = Bundle::train(ds, cfg);
        for (t, rows) in lineups.iter().zip(&mut rows) {
            if let Some(j) = t.datasets.iter().position(|&d| d == ds) {
                rows[j] = (t.rows)(&bundle, cfg);
            }
        }
    }
    let studies: Vec<ablation::Study> = selected
        .iter()
        .filter_map(|e| if let Kind::Ablation(s) = e.kind { Some(s) } else { None })
        .collect();
    let mut studies = ablation::run(cfg, &studies).into_iter();
    let mut rows = rows.into_iter();
    selected
        .iter()
        .map(|e| match &e.kind {
            Kind::Standalone(f) => f(cfg),
            Kind::Lineup(t) => {
                format_table(t.title, t.headers, &rows.next().unwrap().concat()) + t.note
            }
            Kind::Ablation(_) => studies.next().unwrap(),
        })
        .collect()
}

/// A table subset: row label and membership test.
pub type Subset = (&'static str, fn(&LabeledTable) -> bool);

/// One row per `(label, key)` whose first evaluation has queries:
/// the dataset, the label, then one MAP/MRR cell per evaluation.
fn rows_over<K: Copy>(
    bundle: &Bundle,
    keys: &[(&str, K)],
    evals: impl Fn(K) -> Vec<RetrievalEval>,
) -> Vec<Vec<String>> {
    let ds = bundle.corpus.dataset.name();
    keys.iter()
        .map(|&(label, key)| (label, evals(key)))
        .filter(|(_, evals)| evals[0].queries > 0)
        .map(|(label, evals)| {
            [ds.to_string(), label.to_string()]
                .into_iter()
                .chain(evals.iter().map(|e| e.render()))
                .collect()
        })
        .collect()
}

/// A column as Word2Vec reads it: its leaf header label, then its cells.
pub fn column_words(t: &Table, j: usize) -> String {
    let mut text = t.hmd.leaf_labels().get(j).map(|s| s.to_string()).unwrap_or_default();
    for c in t.column_text(j) {
        text.push(' ');
        text.push_str(&c);
    }
    text
}

/// The standard model lineup (TabBiN, TUTA, BioBERT, Word2Vec) evaluated
/// on table clustering over a subset.
pub fn tc_lineup(
    bundle: &Bundle,
    k: usize,
    subset: impl Fn(&LabeledTable) -> bool + Copy,
) -> Vec<RetrievalEval> {
    let tok = &bundle.family.tokenizer;
    vec![
        // Batched path: parameters placed once for the whole subset.
        eval_tc_batch(&bundle.corpus, k, subset, |ts| bundle.family.embed_table_refs(ts)),
        eval_tc(&bundle.corpus, k, subset, |t| bundle.tuta.embed_table(t, tok)),
        eval_tc(&bundle.corpus, k, subset, |t| bundle.bert.embed_table(t, tok)),
        eval_tc(&bundle.corpus, k, subset, |t| {
            let mut text = t.caption.clone();
            for (l, _) in t.hmd.all_labels() {
                text.push(' ');
                text.push_str(l);
            }
            for i in 0..t.n_rows() {
                for c in t.row_text(i) {
                    text.push(' ');
                    text.push_str(&c);
                }
            }
            bundle.w2v.embed_text(&text)
        }),
    ]
}
