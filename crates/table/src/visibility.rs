//! The visibility matrix (paper §3.2).
//!
//! The standard transformer lets every token attend to every other token. The
//! paper instead restricts attention to *structurally related* elements:
//! tokens are mutually visible iff they share a row or a column (plus special
//! tokens, which see everything). The matrix is applied separately to the
//! data, HMD and VMD segments — each segment is encoded as its own sequence
//! with its own visibility matrix, which is how TabBiN keeps semantically
//! different contexts apart.

use serde::{Deserialize, Serialize};

/// Structural address of one sequence element for visibility purposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeqItem {
    /// Row index within the segment grid.
    pub row: u32,
    /// Column index within the segment grid.
    pub col: u32,
    /// Whether the element is a special token (`[CLS]`, `[SEP]`) visible to
    /// and seeing every element.
    pub global: bool,
}

impl SeqItem {
    /// A grid-addressed element.
    pub fn cell(row: u32, col: u32) -> Self {
        Self { row, col, global: false }
    }

    /// A special token visible to everything.
    pub fn global() -> Self {
        Self { row: 0, col: 0, global: true }
    }
}

/// Builds the binary visibility matrix for a sequence of addressed elements:
/// `M[i][j] = true` iff element `i` may attend to element `j`.
///
/// Rules (paper §3.2): same row ⇒ visible; same column ⇒ visible; special
/// tokens are globally visible; every element sees itself.
pub fn visibility_matrix(items: &[SeqItem]) -> Vec<Vec<bool>> {
    items
        .iter()
        .enumerate()
        .map(|(i, a)| {
            // Non-short-circuit `|`, so the row compiles to a branch-free loop.
            let row = items.iter().enumerate();
            row.map(|(j, b)| (i == j) | a.global | b.global | (a.row == b.row) | (a.col == b.col))
                .collect()
        })
        .collect()
}

/// Density of a visibility matrix: fraction of `true` entries. Useful for
/// experiments quantifying how much context the mask removes relative to full
/// attention (density 1.0).
pub fn density(m: &[Vec<bool>]) -> f64 {
    let n = m.len();
    if n == 0 {
        return 0.0;
    }
    let vis: usize = m.iter().map(|row| row.iter().filter(|&&b| b).count()).sum();
    vis as f64 / (n * n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_row_visible_cross_visible() {
        // Table 2 of the paper: 'Sam' and 'Engineer' share a row => related;
        // 'Sam' and 'Lawyer' share neither row nor column => unrelated.
        let items = vec![
            SeqItem::cell(0, 0), // Sam
            SeqItem::cell(0, 1), // Engineer
            SeqItem::cell(1, 1), // Lawyer
        ];
        let m = visibility_matrix(&items);
        assert!(m[0][1], "same-row pair must be visible");
        assert!(!m[0][2], "diagonal pair must be invisible");
        assert!(m[1][2], "same-column pair must be visible");
    }

    #[test]
    fn matrix_is_symmetric() {
        let items: Vec<SeqItem> = (0..12).map(|i| SeqItem::cell(i % 3, i / 3)).collect();
        let m = visibility_matrix(&items);
        for (i, row) in m.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, m[j][i], "asymmetry at ({i},{j})");
            }
        }
    }

    #[test]
    fn diagonal_is_true() {
        let items: Vec<SeqItem> = (0..6).map(|i| SeqItem::cell(i, i + 10)).collect();
        let m = visibility_matrix(&items);
        for (i, row) in m.iter().enumerate() {
            assert!(row[i], "self-visibility missing at {i}");
        }
    }

    #[test]
    fn global_tokens_see_everything() {
        let items = vec![SeqItem::global(), SeqItem::cell(5, 7), SeqItem::cell(9, 11)];
        let m = visibility_matrix(&items);
        assert!(m[0][1] && m[0][2] && m[1][0] && m[2][0]);
        assert!(!m[1][2]);
    }

    #[test]
    fn density_of_full_grid() {
        // A 2x2 grid of cells: every pair shares a row or column except the
        // two diagonals.
        let items = vec![
            SeqItem::cell(0, 0),
            SeqItem::cell(0, 1),
            SeqItem::cell(1, 0),
            SeqItem::cell(1, 1),
        ];
        let m = visibility_matrix(&items);
        // 16 entries, 4 invisible (the two diagonal pairs, both directions).
        assert!((density(&m) - 12.0 / 16.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sequence() {
        let m = visibility_matrix(&[]);
        assert!(m.is_empty());
        assert_eq!(density(&m), 0.0);
    }
}
