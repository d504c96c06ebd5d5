//! Shared evaluation protocols and table formatting.

use tabbin_corpus::{Corpus, EType, FILLER_SEM_ID};
use tabbin_eval::clustering::{evaluate_centroid_retrieval, evaluate_retrieval, RetrievalEval};
use tabbin_table::Table;

/// A reference to one data column in a corpus.
#[derive(Clone, Copy, Debug)]
pub struct ColumnRef {
    /// Index of the owning table.
    pub table: usize,
    /// Column index.
    pub col: usize,
    /// Ground-truth semantic id.
    pub sem: u32,
    /// Numeric column flag.
    pub numeric: bool,
}

/// Collects all clusterable columns (filler columns excluded) matching the
/// numeric filter.
pub fn collect_columns(corpus: &Corpus, numeric: bool) -> Vec<ColumnRef> {
    let mut out = Vec::new();
    for (ti, lt) in corpus.tables.iter().enumerate() {
        for (ci, (&sem, &num)) in lt.column_sem.iter().zip(&lt.column_numeric).enumerate() {
            if sem != FILLER_SEM_ID && num == numeric {
                out.push(ColumnRef { table: ti, col: ci, sem, numeric: num });
            }
        }
    }
    out
}

/// Evenly samples up to `max` query indices from `n` items.
pub fn sample_queries(n: usize, max: usize) -> Vec<usize> {
    if n <= max {
        (0..n).collect()
    } else {
        (0..max).map(|i| i * n / max).collect()
    }
}

/// [`sample_queries`] over `labels`, keeping only the queries whose label
/// another item shares (something to retrieve must exist).
pub fn retrievable_queries<L: PartialEq>(labels: &[L], max: usize) -> Vec<usize> {
    sample_queries(labels.len(), max)
        .into_iter()
        .filter(|&q| labels.iter().enumerate().any(|(i, l)| i != q && *l == labels[q]))
        .collect()
}

/// Column-clustering evaluation (§4.1): embed every selected column, rank by
/// cosine, relevance = same semantic id. The per-column form of
/// [`eval_cc_batch`].
pub fn eval_cc(
    corpus: &Corpus,
    numeric: bool,
    k: usize,
    max_queries: usize,
    mut embed: impl FnMut(&Table, usize) -> Vec<f32>,
) -> RetrievalEval {
    eval_cc_batch(corpus, numeric, k, max_queries, |t, cols| {
        cols.iter().map(|&j| embed(t, j)).collect()
    })
}

/// [`eval_cc`] with a per-table **batch** embedder: `embed_columns` is called
/// once per referenced table with exactly the column indices the evaluation
/// needs (returning one vector per requested column, in order), so batched
/// pipelines embed a table's evaluated columns in one pass, reusing one
/// scratch arena, and never embed filtered-out columns.
pub fn eval_cc_batch(
    corpus: &Corpus,
    numeric: bool,
    k: usize,
    max_queries: usize,
    mut embed_columns: impl FnMut(&Table, &[usize]) -> Vec<Vec<f32>>,
) -> RetrievalEval {
    let cols = collect_columns(corpus, numeric);
    // `cols` runs table by table: embed each table's group in one batched
    // call, which keeps the items in `cols` order.
    let mut items: Vec<Vec<f32>> = Vec::with_capacity(cols.len());
    for group in cols.chunk_by(|a, b| a.table == b.table) {
        let col_ids: Vec<usize> = group.iter().map(|c| c.col).collect();
        let embs = embed_columns(&corpus.tables[group[0].table].table, &col_ids);
        assert_eq!(embs.len(), col_ids.len(), "embedder must return one vector per column");
        items.extend(embs);
    }
    let labels: Vec<u32> = cols.iter().map(|c| c.sem).collect();
    let queries = retrievable_queries(&labels, max_queries);
    evaluate_retrieval(&items, &labels, &queries, k)
}

/// Table-clustering evaluation (§4.2): centroid per topic ranks the corpus.
pub fn eval_tc(
    corpus: &Corpus,
    k: usize,
    subset: impl Fn(&tabbin_corpus::LabeledTable) -> bool,
    mut embed: impl FnMut(&Table) -> Vec<f32>,
) -> RetrievalEval {
    eval_tc_batch(corpus, k, subset, |tables| tables.iter().map(|t| embed(t)).collect())
}

/// [`eval_tc`] with a **batch** embedder: the whole selected subset is handed
/// to `embed_all` at once, so batched pipelines (e.g.
/// `BatchEncoder::embed_tables`) can fan out across threads instead of
/// being called table by table.
pub fn eval_tc_batch(
    corpus: &Corpus,
    k: usize,
    subset: impl Fn(&tabbin_corpus::LabeledTable) -> bool,
    embed_all: impl FnOnce(&[&Table]) -> Vec<Vec<f32>>,
) -> RetrievalEval {
    let selected: Vec<&tabbin_corpus::LabeledTable> =
        corpus.tables.iter().filter(|t| subset(t)).collect();
    let refs: Vec<&Table> = selected.iter().map(|t| &t.table).collect();
    let items = embed_all(&refs);
    assert_eq!(items.len(), refs.len(), "batch embedder must return one vector per table");
    let labels: Vec<String> = selected.iter().map(|t| t.topic.clone()).collect();
    let mut topics = labels.clone();
    topics.sort();
    topics.dedup();
    // Keep topics with at least 2 members.
    let topics: Vec<String> =
        topics.into_iter().filter(|t| labels.iter().filter(|l| *l == t).count() >= 2).collect();
    evaluate_centroid_retrieval(&items, &labels, &topics, k)
}

/// Entity-clustering evaluation (§4.3): embed catalog entities, rank by
/// cosine, relevance = same entity type.
pub fn eval_ec(
    corpus: &Corpus,
    k: usize,
    max_per_type: usize,
    max_queries: usize,
    mut embed: impl FnMut(&str) -> Vec<f32>,
) -> RetrievalEval {
    let mut items = Vec::new();
    let mut labels: Vec<EType> = Vec::new();
    for ety in EType::ALL {
        for e in corpus.entities_of(ety).into_iter().take(max_per_type) {
            items.push(embed(&e.text));
            labels.push(ety);
        }
    }
    let queries = retrievable_queries(&labels, max_queries);
    evaluate_retrieval(&items, &labels, &queries, k)
}

/// Formats a fixed-width text table with a title, as the experiment binaries
/// print.
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let sep = widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("+") + "\n";
    // Cells past the header's columns are padded to their own length.
    let line = |cells: &[&str]| -> String {
        let width = |i: usize, c: &str| widths.get(i).copied().unwrap_or(c.len());
        let cells: Vec<String> =
            cells.iter().enumerate().map(|(i, c)| format!(" {c:<w$} ", w = width(i, c))).collect();
        cells.join("|") + "\n"
    };
    let mut out = format!("{title}\n{sep}{}{sep}", line(headers));
    for row in rows {
        out += &line(&row.iter().map(String::as_str).collect::<Vec<_>>());
    }
    out + &sep
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabbin_corpus::{generate, Dataset, GenOptions};

    #[test]
    fn collect_columns_excludes_fillers() {
        let c = generate(Dataset::Webtables, &GenOptions { n_tables: Some(20), seed: 1 });
        let cols = collect_columns(&c, false);
        assert!(cols.iter().all(|c| c.sem != FILLER_SEM_ID));
        assert!(!cols.is_empty());
    }

    #[test]
    fn sample_queries_bounds() {
        assert_eq!(sample_queries(5, 10), vec![0, 1, 2, 3, 4]);
        let s = sample_queries(100, 10);
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn eval_cc_with_oracle_embeddings_is_perfect() {
        // Embedding = one-hot of the ground-truth label ⇒ MAP = MRR = 1.
        let c = generate(Dataset::Saus, &GenOptions { n_tables: Some(20), seed: 2 });
        let cols = collect_columns(&c, true);
        let mut sems: Vec<u32> = cols.iter().map(|c| c.sem).collect();
        sems.sort_unstable();
        sems.dedup();
        let lookup: std::collections::HashMap<(usize, usize), u32> =
            cols.iter().map(|c| ((c.table, c.col), c.sem)).collect();
        let table_index: std::collections::HashMap<*const Table, usize> =
            c.tables.iter().enumerate().map(|(i, t)| (&t.table as *const Table, i)).collect();
        let eval = eval_cc(&c, true, 20, 20, |t, col| {
            let ti = table_index[&(t as *const Table)];
            let sem = lookup[&(ti, col)];
            let mut v = vec![0.0f32; sems.len()];
            v[sems.iter().position(|&s| s == sem).unwrap()] = 1.0;
            v
        });
        assert!(eval.map > 0.99, "oracle MAP {}", eval.map);
        assert!(eval.mrr > 0.99);
    }

    #[test]
    fn eval_tc_with_oracle_embeddings_is_perfect() {
        let c = generate(Dataset::Cius, &GenOptions { n_tables: Some(20), seed: 3 });
        let topics = c.topics();
        let topic_of: std::collections::HashMap<*const Table, usize> = c
            .tables
            .iter()
            .map(|t| (&t.table as *const Table, topics.iter().position(|x| *x == t.topic).unwrap()))
            .collect();
        let eval = eval_tc(
            &c,
            20,
            |_| true,
            |t| {
                let mut v = vec![0.0f32; topics.len()];
                v[topic_of[&(t as *const Table)]] = 1.0;
                v
            },
        );
        assert!(eval.map > 0.99, "oracle TC MAP {}", eval.map);
    }

    #[test]
    fn format_table_aligns_columns() {
        let s = format_table(
            "Demo",
            &["model", "map"],
            &[vec!["tabbin".into(), "0.91".into()], vec!["tuta".into(), "0.8".into()]],
        );
        assert!(s.contains("Demo"));
        assert!(s.contains("tabbin"));
        let lines: Vec<&str> = s.lines().collect();
        // header separator appears three times
        assert_eq!(lines.iter().filter(|l| l.starts_with('-')).count(), 3);
    }
}
