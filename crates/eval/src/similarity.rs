//! Cosine similarity and ranking.

/// Cosine similarity between two vectors; 0.0 when either has zero norm.
///
/// This is the hot path of every ranking loop, so the length check is a
/// `debug_assert!` only: callers are expected to hold equal-dimension
/// embeddings (release builds silently truncate to the shorter side). For
/// vectors of untrusted provenance use [`try_cosine`]; bulk retrieval
/// should go through `tabbin_index::ShardedStore`, whose normalized-dot path
/// never recomputes norms at all.
pub fn cosine(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "cosine length mismatch");
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

/// Checked [`cosine`] for vectors whose dimensions are not trusted (user
/// input, deserialized embeddings, mixed model outputs): `None` on a length
/// mismatch instead of a panic or a silent truncation.
pub fn try_cosine(a: &[f32], b: &[f32]) -> Option<f64> {
    if a.len() != b.len() {
        return None;
    }
    Some(cosine(a, b))
}

/// L2-normalizes a vector in place (no-op on the zero vector).
pub fn normalize(v: &mut [f32]) {
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 0.0 {
        for x in v.iter_mut() {
            *x /= n;
        }
    }
}

/// Ranks `items` by descending cosine similarity to `query`, excluding
/// `exclude` (typically the query's own index). Ties break by index for
/// determinism.
pub fn rank_by_cosine(query: &[f32], items: &[Vec<f32>], exclude: Option<usize>) -> Vec<usize> {
    let mut scored: Vec<(usize, f64)> = items
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != exclude)
        .map(|(i, v)| (i, cosine(query, v)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.into_iter().map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_identity_and_orthogonal() {
        assert!((cosine(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_is_zero_similarity() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn try_cosine_rejects_mismatched_dims() {
        assert_eq!(try_cosine(&[1.0, 0.0], &[1.0, 0.0, 0.0]), None);
        assert_eq!(try_cosine(&[], &[1.0]), None);
        let same = try_cosine(&[1.0, 0.0], &[2.0, 0.0]).expect("equal dims");
        assert!((same - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = vec![3.0, 4.0];
        normalize(&mut v);
        assert!((v[0] - 0.6).abs() < 1e-6);
        assert!((v[1] - 0.8).abs() < 1e-6);
        let mut z = vec![0.0, 0.0];
        normalize(&mut z);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn rank_orders_by_similarity() {
        let items = vec![
            vec![0.0, 1.0], // orthogonal
            vec![1.0, 0.0], // identical direction
            vec![1.0, 1.0], // 45 degrees
        ];
        let ranked = rank_by_cosine(&[1.0, 0.0], &items, None);
        assert_eq!(ranked, vec![1, 2, 0]);
    }

    #[test]
    fn rank_excludes_query_index() {
        let items = vec![vec![1.0, 0.0], vec![0.9, 0.1]];
        let ranked = rank_by_cosine(&[1.0, 0.0], &items, Some(0));
        assert_eq!(ranked, vec![1]);
    }
}
