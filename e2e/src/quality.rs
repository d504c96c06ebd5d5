//! The reference the system's answers are scored against: a brute-force
//! f32 scan of the live embeddings, written here so that it shares no code
//! with the store it checks.

use std::collections::BTreeMap;

/// A unit-length copy of `v` (zero vectors stay zero).
pub fn normalise(v: &[f32]) -> Vec<f32> {
    let norm = v.iter().map(|x| f64::from(*x) * f64::from(*x)).sum::<f64>().sqrt();
    if norm == 0.0 {
        return v.to_vec();
    }
    v.iter().map(|x| (f64::from(*x) / norm) as f32).collect()
}

/// Eight independent accumulators, so the compiler can vectorise the loop
/// without being allowed to reorder a single running sum.
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let (ca, cb) = (a.chunks_exact(8), b.chunks_exact(8));
    let tail: f32 = ca.remainder().iter().zip(cb.remainder()).map(|(x, y)| x * y).sum();
    for (x, y) in ca.zip(cb) {
        for l in 0..8 {
            acc[l] += x[l] * y[l];
        }
    }
    acc.iter().sum::<f32>() + tail
}

/// The live rows of a store as the benchmark knows them: id, unit vector,
/// relevance label.
pub struct Reference {
    dim: usize,
    ids: Vec<u64>,
    flat: Vec<f32>,
    labels: Vec<u32>,
    /// Rows per label: the "total relevant" of average precision.
    per_label: BTreeMap<u32, usize>,
}

impl Reference {
    /// Rows must come in ascending id order for ties to break by id.
    pub fn new(dim: usize, rows: impl Iterator<Item = (u64, Vec<f32>, u32)>) -> Self {
        let mut r = Self {
            dim,
            ids: Vec::new(),
            flat: Vec::new(),
            labels: Vec::new(),
            per_label: BTreeMap::new(),
        };
        for (id, unit, label) in rows {
            assert_eq!(unit.len(), dim);
            assert!(r.ids.last().is_none_or(|&last| last < id), "reference rows out of id order");
            r.ids.push(id);
            r.flat.extend_from_slice(&unit);
            r.labels.push(label);
            *r.per_label.entry(label).or_insert(0) += 1;
        }
        r
    }

    pub fn label_of(&self, id: u64) -> Option<u32> {
        self.ids.binary_search(&id).ok().map(|i| self.labels[i])
    }

    pub fn rows_with_label(&self, label: u32) -> usize {
        self.per_label.get(&label).copied().unwrap_or(0)
    }

    /// Similarity of row `id` to unit query `q`.
    fn score_of(&self, id: u64, q: &[f32]) -> Option<f32> {
        let i = self.ids.binary_search(&id).ok()?;
        Some(dot(&self.flat[i * self.dim..(i + 1) * self.dim], q))
    }

    /// The `k` best rows for unit query `q` under (score descending, id
    /// ascending), with their scores.
    pub fn top_k(&self, q: &[f32], k: usize) -> Vec<(u64, f32)> {
        let mut scored: Vec<(u64, f32)> = self
            .flat
            .chunks_exact(self.dim)
            .zip(&self.ids)
            .map(|(row, &id)| (id, dot(row, q)))
            .collect();
        let by_rank = |a: &(u64, f32), b: &(u64, f32)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        let k = k.min(scored.len());
        if k == 0 {
            return Vec::new();
        }
        scored.select_nth_unstable_by(k - 1, by_rank);
        scored.truncate(k);
        scored.sort_by(by_rank);
        scored
    }
}

/// Two scores within this of each other tie: the store and the reference
/// add the same products in different orders.
const TIE: f32 = 1e-5;

/// Share of the reference's top-k places the system filled, over all
/// queries: a returned row fills a place when it scores as high as the last
/// member of the reference's top-k (as every member does). Generated corpora hold near
/// copies of a table, and which copy of a tie comes back says nothing
/// about search quality.
pub fn recall(
    reference: &Reference,
    unit_queries: &[Vec<f32>],
    returned: &[Vec<u64>],
    k: usize,
) -> f64 {
    let (mut wanted, mut found) = (0, 0);
    for (q, got) in unit_queries.iter().zip(returned) {
        let truth = reference.top_k(q, k);
        let Some(&(_, bar)) = truth.last() else { continue };
        wanted += truth.len();
        let good = got
            .iter()
            .filter(|&&id| reference.score_of(id, q).is_some_and(|s| s >= bar - TIE))
            .count();
        found += good.min(truth.len());
    }
    if wanted == 0 {
        return 0.0;
    }
    found as f64 / wanted as f64
}

/// Per query, the relevance of each returned id (its label equals the
/// query table's) and the number of relevant rows in the store: the input
/// of mean average precision.
pub fn relevance(
    reference: &Reference,
    returned: &[Vec<u64>],
    query_labels: &[u32],
) -> Vec<(Vec<bool>, usize)> {
    returned
        .iter()
        .zip(query_labels)
        .map(|(ids, &label)| {
            let ranked = ids.iter().map(|&id| reference.label_of(id) == Some(label)).collect();
            (ranked, reference.rows_with_label(label))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Reference {
        let rows = vec![
            (1, normalise(&[1.0, 0.0, 0.0]), 0),
            (2, normalise(&[0.9, 0.1, 0.0]), 0),
            (3, normalise(&[0.0, 1.0, 0.0]), 1),
            (5, normalise(&[1.0, 0.0, 0.0]), 1),
        ];
        Reference::new(3, rows.into_iter())
    }

    #[test]
    fn top_k_ranks_by_score_then_id() {
        let r = reference();
        let ids = |q: &[f32], k| r.top_k(q, k).into_iter().map(|(id, _)| id).collect::<Vec<_>>();
        assert_eq!(ids(&[1.0, 0.0, 0.0], 3), vec![1, 5, 2]);
        assert_eq!(ids(&[0.0, 1.0, 0.0], 1), vec![3]);
        assert_eq!(ids(&[1.0, 0.0, 0.0], 10).len(), 4);
    }

    #[test]
    fn recall_counts_filled_places_and_accepts_ties() {
        let r = reference();
        let q = vec![vec![1.0, 0.0, 0.0]];
        // The reference's top two are ids 1 and 5, identical vectors.
        assert_eq!(recall(&r, &q, &[vec![1, 5]], 2), 1.0);
        assert_eq!(recall(&r, &q, &[vec![1, 3]], 2), 0.5);
        assert_eq!(recall(&r, &q, &[vec![]], 2), 0.0);
        // At k = 1 the reference keeps id 1; id 5 ties with it.
        assert_eq!(recall(&r, &q, &[vec![5]], 1), 1.0);
        // An id the store made up fills nothing.
        assert_eq!(recall(&r, &q, &[vec![99]], 1), 0.0);
    }

    #[test]
    fn relevance_uses_labels_and_label_counts() {
        let r = reference();
        let rel = relevance(&r, &[vec![1, 3, 5]], &[1]);
        assert_eq!(rel, vec![(vec![false, true, true], 2)]);
    }

    #[test]
    fn normalise_gives_unit_length() {
        let u = normalise(&[3.0, 4.0]);
        assert!((dot(&u, &u) - 1.0).abs() < 1e-6);
        assert_eq!(normalise(&[0.0, 0.0]), vec![0.0, 0.0]);
    }
}
