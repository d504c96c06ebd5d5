//! Bi-dimensional hierarchical coordinates (paper §2.3).
//!
//! Every cell is addressed by a pair of root-to-leaf paths through the two
//! coordinate trees — the vertical metadata tree (governing rows) and the
//! horizontal metadata tree (governing columns) — plus a nested coordinate
//! for cells inside nested tables. For relational tables without metadata
//! hierarchies the paths degenerate to single Cartesian indices, exactly as
//! the paper observes.

use crate::{CellValue, MetaTree, Table};
use serde::{Deserialize, Serialize};

/// A root-to-leaf path of 1-based sibling indices through a coordinate tree.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CoordPath(pub Vec<u16>);

impl CoordPath {
    /// An empty path (axis without metadata or not applicable).
    pub fn empty() -> Self {
        Self(Vec::new())
    }

    /// A single-step Cartesian path.
    pub fn cartesian(i: u16) -> Self {
        Self(vec![i])
    }

    /// The `(row-ish, col-ish)` pair used by the embedding layer: the paper's
    /// `E_tpos` consumes two indices per axis. We take the first path step
    /// (top-level group) and the last step (position within the finest
    /// level); for flat paths both collapse to the same index.
    pub fn pair(&self) -> (u16, u16) {
        path_pair(&self.0)
    }

    /// Path depth.
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// Renders as the paper writes coordinates: `<2,7>`.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self.0.iter().map(u16::to_string).collect();
        format!("<{}>", parts.join(","))
    }
}

/// The full bi-dimensional coordinate of one cell.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BiCoord {
    /// Path through the vertical coordinate tree (rows).
    pub vertical: CoordPath,
    /// Path through the horizontal coordinate tree (columns).
    pub horizontal: CoordPath,
    /// Position inside a nested table, 1-based; `(0, 0)` when the cell is not
    /// inside a nested table (the paper's default coordinate).
    pub nested: (u16, u16),
}

impl BiCoord {
    /// The six indices consumed by the `E_tpos` embedding:
    /// `(x_vr, x_vc, x_hr, x_hc, x_nr, x_nc)`.
    pub fn tpos_indices(&self) -> [u16; 6] {
        let (vr, vc) = self.vertical.pair();
        let (hr, hc) = self.horizontal.pair();
        [vr, vc, hr, hc, self.nested.0, self.nested.1]
    }

    /// Renders as the paper writes coordinates: `(<2,7>;<1,3>)`.
    pub fn render(&self) -> String {
        format!("({};{})", self.vertical.render(), self.horizontal.render())
    }
}

/// Where a coordinate-carrying element lives in the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellRole {
    /// A data cell at `(row, col)`.
    Data,
    /// A horizontal-metadata label.
    Hmd,
    /// A vertical-metadata label.
    Vmd,
}

/// One addressed element of a table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AddressedCell {
    /// Data row (for data cells) or metadata level (for metadata labels).
    pub row: usize,
    /// Data column (for data cells) or leaf index (for metadata labels).
    pub col: usize,
    /// The element's role.
    pub role: CellRole,
    /// Its bi-dimensional coordinate.
    pub coord: BiCoord,
}

/// All coordinates assigned to one table (top level; nested tables are
/// addressed through their host cell's coordinate plus the nested pair).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TableCoordinates {
    /// Data-cell coordinates, row-major.
    pub data: Vec<AddressedCell>,
    /// HMD label coordinates (leaves, in leaf order).
    pub hmd: Vec<AddressedCell>,
    /// VMD label coordinates (leaves, in leaf order).
    pub vmd: Vec<AddressedCell>,
}

impl TableCoordinates {
    /// Looks up the coordinate of data cell `(row, col)`: an index into the
    /// row-major grid [`assign_coordinates`] lays out, with one HMD entry
    /// per column.
    pub fn data_coord(&self, row: usize, col: usize) -> Option<&BiCoord> {
        let cols = self.hmd.len();
        if col >= cols {
            return None;
        }
        let at = row.checked_mul(cols)? + col;
        self.data.get(at).filter(|a| a.row == row && a.col == col).map(|a| &a.coord)
    }
}

/// The `(first, last)` steps of a coordinate path, as [`CoordPath::pair`]
/// reads them: `(0, 0)` for an empty path, the one step twice for a flat
/// one.
pub fn path_pair(path: &[u16]) -> (u16, u16) {
    match path {
        [] => (0, 0),
        [only] => (*only, *only),
        [first, .., last] => (*first, *last),
    }
}

/// Calls `f` with the coordinate path of each of an axis's `n` positions,
/// in order — rows through the VMD tree, columns through the HMD tree:
/// the tree's root-to-leaf path of 1-based sibling indices, or the
/// Cartesian `<i+1>` when the axis has no metadata.
///
/// This is the one definition of a cell's coordinate: data cell `(i, j)`
/// is (row `i`'s vertical path; column `j`'s horizontal path).
/// [`assign_coordinates`] collects the paths; the encoder reads one
/// `(first, last)` pair per row and per column without building per-cell
/// coordinates.
///
/// # Panics
/// If `tree` is non-empty and its leaf count is not `n`.
pub fn for_each_axis_path(tree: &MetaTree, n: usize, mut f: impl FnMut(&[u16])) {
    if tree.is_empty() {
        for i in 0..n {
            f(&[i as u16 + 1]);
        }
    } else {
        assert_eq!(tree.leaf_count(), n, "metadata leaf count must match axis length");
        tree.for_each_leaf_path(f);
    }
}

/// Assigns bi-dimensional coordinates to every data cell and metadata leaf of
/// `table` (paper §2.3).
///
/// * Column `j`'s horizontal component is the HMD root-to-leaf path of leaf
///   `j`; without HMD it is the Cartesian path `<j+1>`.
/// * Row `i`'s vertical component is the VMD root-to-leaf path of leaf `i`;
///   without VMD it is the Cartesian path `<i+1>`.
/// * Cells of a nested table inherit the host cell's coordinate and get the
///   1-based in-nested position as the `nested` pair (see
///   [`nested_coordinates`]).
///
/// Both paths come from [`for_each_axis_path`].
pub fn assign_coordinates(table: &Table) -> TableCoordinates {
    let hpaths = axis_paths(&table.hmd, table.n_cols());
    let vpaths = axis_paths(&table.vmd, table.n_rows());

    let mut out = TableCoordinates::default();
    for (r, c, _) in table.data.iter_indexed() {
        out.data.push(AddressedCell {
            row: r,
            col: c,
            role: CellRole::Data,
            coord: BiCoord {
                vertical: vpaths[r].clone(),
                horizontal: hpaths[c].clone(),
                nested: (0, 0),
            },
        });
    }
    for (j, hp) in hpaths.iter().enumerate().take(table.n_cols()) {
        out.hmd.push(AddressedCell {
            row: hp.depth().saturating_sub(1),
            col: j,
            role: CellRole::Hmd,
            coord: BiCoord { vertical: CoordPath::empty(), horizontal: hp.clone(), nested: (0, 0) },
        });
    }
    for (i, vp) in vpaths.iter().enumerate().take(table.n_rows()) {
        out.vmd.push(AddressedCell {
            row: i,
            col: vp.depth().saturating_sub(1),
            role: CellRole::Vmd,
            coord: BiCoord { vertical: vp.clone(), horizontal: CoordPath::empty(), nested: (0, 0) },
        });
    }
    out
}

/// Coordinates for the cells of a nested table hosted at a cell whose own
/// coordinate is `host`: each nested data cell keeps the host's vertical and
/// horizontal paths and records its 1-based `(row, col)` inside the nested
/// table as the nested pair — the paper's "new spatial coordinate (x, y) for
/// tokens in the nested cell starting with index 1".
pub fn nested_coordinates(host: &BiCoord, nested: &Table) -> Vec<AddressedCell> {
    let mut out = Vec::new();
    for (r, c, _) in nested.data.iter_indexed() {
        out.push(AddressedCell {
            row: r,
            col: c,
            role: CellRole::Data,
            coord: BiCoord {
                vertical: host.vertical.clone(),
                horizontal: host.horizontal.clone(),
                nested: (r as u16 + 1, c as u16 + 1),
            },
        });
    }
    out
}

/// Collects every nested table in `table` with its host coordinate.
pub fn nested_tables_with_coords<'t>(
    table: &'t Table,
    coords: &TableCoordinates,
) -> Vec<(BiCoord, &'t Table)> {
    let mut out = Vec::new();
    for (r, c, v) in table.data.iter_indexed() {
        if let CellValue::Nested(inner) = v {
            let host = coords.data_coord(r, c).cloned().unwrap_or_default();
            out.push((host, inner.as_ref()));
        }
    }
    out
}

fn axis_paths(tree: &MetaTree, n: usize) -> Vec<CoordPath> {
    let mut out = Vec::with_capacity(n);
    for_each_axis_path(tree, n, |p| out.push(CoordPath(p.to_vec())));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetaNode;

    fn bin_table() -> Table {
        Table::builder("trial")
            .hmd_tree(MetaTree::from_roots(vec![
                MetaNode::branch(
                    "Efficacy End Point",
                    vec![MetaNode::leaf("OS"), MetaNode::leaf("PFS")],
                ),
                MetaNode::branch("Other Efficacy", vec![MetaNode::leaf("HR")]),
            ]))
            .vmd_tree(MetaTree::from_roots(vec![MetaNode::branch(
                "Patient Cohort",
                vec![
                    MetaNode::leaf("Previously Untreated"),
                    MetaNode::leaf("Failing under Fluoropyrimidine"),
                ],
            )]))
            .text_row(&["a", "b", "c"])
            .text_row(&["d", "e", "f"])
            .build()
    }

    #[test]
    fn relational_coordinates_are_cartesian() {
        let t = Table::builder("t").hmd_flat(&["x", "y"]).text_row(&["1", "2"]).build();
        let coords = assign_coordinates(&t);
        let c = coords.data_coord(0, 1).unwrap();
        assert_eq!(c.vertical, CoordPath::cartesian(1));
        assert_eq!(c.horizontal, CoordPath::cartesian(2));
        assert_eq!(c.nested, (0, 0));
        assert_eq!(c.render(), "(<1>;<2>)");
    }

    #[test]
    fn hierarchical_coordinates_are_paths() {
        let t = bin_table();
        let coords = assign_coordinates(&t);
        // Cell (1, 2): second cohort, "Other Efficacy -> HR" column.
        let c = coords.data_coord(1, 2).unwrap();
        assert_eq!(c.vertical.0, vec![1, 2]);
        assert_eq!(c.horizontal.0, vec![2, 1]);
        assert_eq!(c.render(), "(<1,2>;<2,1>)");
    }

    #[test]
    fn tpos_indices_pair_first_and_last() {
        let c = BiCoord {
            vertical: CoordPath(vec![1, 3]),
            horizontal: CoordPath(vec![2, 7]),
            nested: (4, 3),
        };
        assert_eq!(c.tpos_indices(), [1, 3, 2, 7, 4, 3]);
    }

    #[test]
    fn metadata_labels_get_coordinates() {
        let t = bin_table();
        let coords = assign_coordinates(&t);
        assert_eq!(coords.hmd.len(), 3);
        assert_eq!(coords.vmd.len(), 2);
        assert_eq!(coords.hmd[2].coord.horizontal.0, vec![2, 1]);
        assert_eq!(coords.vmd[1].coord.vertical.0, vec![1, 2]);
    }

    #[test]
    fn nested_coordinates_start_at_one() {
        let inner =
            Table::builder("inner").hmd_flat(&["n", "OS", "HR"]).text_row(&["x", "y", "z"]).build();
        let host = BiCoord {
            vertical: CoordPath(vec![1, 3]),
            horizontal: CoordPath(vec![2, 7]),
            nested: (0, 0),
        };
        let cells = nested_coordinates(&host, &inner);
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].coord.nested, (1, 1));
        assert_eq!(cells[2].coord.nested, (1, 3));
        // Host paths are inherited.
        assert_eq!(cells[0].coord.vertical.0, vec![1, 3]);
    }

    #[test]
    fn nested_tables_with_coords_finds_hosts() {
        let inner = Table::builder("inner").hmd_flat(&["x"]).text_row(&["1"]).build();
        let t = Table::builder("outer")
            .hmd_flat(&["a", "b"])
            .row(vec![CellValue::text("q"), CellValue::nested(inner)])
            .build();
        let coords = assign_coordinates(&t);
        let nested = nested_tables_with_coords(&t, &coords);
        assert_eq!(nested.len(), 1);
        assert_eq!(nested[0].0.horizontal, CoordPath::cartesian(2));
    }
}
