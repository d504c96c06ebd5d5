//! Hierarchical metadata trees (HMD / VMD).
//!
//! A [`MetaTree`] is a forest whose leaves, read in depth-first order, align
//! with the data columns (horizontal metadata) or data rows (vertical
//! metadata). Interior nodes are the higher metadata levels — e.g.
//! `Efficacy End Point → Other Efficacy` in the paper's Figure 1.

use serde::{Deserialize, Serialize};

/// One metadata label with its children.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetaNode {
    /// The label text.
    pub label: String,
    /// Child labels one level deeper; empty for leaves.
    pub children: Vec<MetaNode>,
}

impl MetaNode {
    /// A leaf node.
    pub fn leaf(label: impl Into<String>) -> Self {
        Self { label: label.into(), children: Vec::new() }
    }

    /// An interior node.
    pub fn branch(label: impl Into<String>, children: Vec<MetaNode>) -> Self {
        Self { label: label.into(), children }
    }

    fn leaf_count(&self) -> usize {
        if self.children.is_empty() {
            1
        } else {
            self.children.iter().map(MetaNode::leaf_count).sum()
        }
    }

    fn depth(&self) -> usize {
        1 + self.children.iter().map(MetaNode::depth).max().unwrap_or(0)
    }
}

/// A forest of metadata labels governing one table axis.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetaTree {
    /// Top-level labels.
    pub roots: Vec<MetaNode>,
}

impl MetaTree {
    /// An empty tree (axis has no metadata).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A flat, single-level tree — the relational-table case.
    pub fn flat(labels: &[&str]) -> Self {
        Self { roots: labels.iter().map(|l| MetaNode::leaf(*l)).collect() }
    }

    /// A tree from explicit roots.
    pub fn from_roots(roots: Vec<MetaNode>) -> Self {
        Self { roots }
    }

    /// Whether the axis carries any metadata.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Number of leaves = number of governed data columns/rows.
    pub fn leaf_count(&self) -> usize {
        self.roots.iter().map(MetaNode::leaf_count).sum()
    }

    /// Maximum depth; 0 for an empty tree, 1 for a flat header.
    pub fn depth(&self) -> usize {
        self.roots.iter().map(MetaNode::depth).max().unwrap_or(0)
    }

    /// Whether the metadata is hierarchical (more than one level).
    pub fn is_hierarchical(&self) -> bool {
        self.depth() > 1
    }

    /// Root-to-leaf paths of 1-based sibling indices, in leaf order.
    ///
    /// These are exactly the paper's coordinate-tree paths: the i-th entry is
    /// the bi-dimensional coordinate component of the i-th governed
    /// column/row.
    pub fn leaf_paths(&self) -> Vec<Vec<u16>> {
        let mut out = Vec::with_capacity(self.leaf_count());
        self.for_each_leaf_path(|p| out.push(p.to_vec()));
        out
    }

    /// Calls `f` with each root-to-leaf path of [`leaf_paths`](Self::leaf_paths),
    /// in leaf order, without allocating one per leaf.
    pub fn for_each_leaf_path(&self, mut f: impl FnMut(&[u16])) {
        let mut prefix = Vec::new();
        for (i, root) in self.roots.iter().enumerate() {
            prefix.push(i as u16 + 1);
            visit_paths(root, &mut prefix, &mut f);
            prefix.pop();
        }
    }

    /// Root-to-leaf label chains, in leaf order.
    pub fn leaf_label_paths(&self) -> Vec<Vec<&str>> {
        let mut out = Vec::with_capacity(self.leaf_count());
        let mut prefix = Vec::new();
        for root in &self.roots {
            collect_labels(root, &mut prefix, &mut out);
        }
        out
    }

    /// Leaf labels only, in leaf order.
    pub fn leaf_labels(&self) -> Vec<&str> {
        self.leaf_label_paths().into_iter().map(|p| *p.last().unwrap()).collect()
    }

    /// All labels (interior + leaf) in depth-first order, with their depth.
    pub fn all_labels(&self) -> Vec<(&str, usize)> {
        let mut out = Vec::new();
        for root in &self.roots {
            collect_all(root, 0, &mut out);
        }
        out
    }
}

fn visit_paths(node: &MetaNode, prefix: &mut Vec<u16>, f: &mut impl FnMut(&[u16])) {
    if node.children.is_empty() {
        f(prefix);
        return;
    }
    for (i, child) in node.children.iter().enumerate() {
        prefix.push(i as u16 + 1);
        visit_paths(child, prefix, f);
        prefix.pop();
    }
}

fn collect_labels<'a>(node: &'a MetaNode, prefix: &mut Vec<&'a str>, out: &mut Vec<Vec<&'a str>>) {
    prefix.push(&node.label);
    if node.children.is_empty() {
        out.push(prefix.clone());
    } else {
        for child in &node.children {
            collect_labels(child, prefix, out);
        }
    }
    prefix.pop();
}

fn collect_all<'a>(node: &'a MetaNode, depth: usize, out: &mut Vec<(&'a str, usize)>) {
    out.push((&node.label, depth));
    for child in &node.children {
        collect_all(child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_level() -> MetaTree {
        MetaTree::from_roots(vec![
            MetaNode::branch(
                "Efficacy End Point",
                vec![MetaNode::leaf("OS"), MetaNode::leaf("PFS")],
            ),
            MetaNode::branch("Other Efficacy", vec![MetaNode::leaf("HR")]),
        ])
    }

    #[test]
    fn flat_tree_is_relational_shaped() {
        let t = MetaTree::flat(&["Name", "Age", "Job"]);
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(t.depth(), 1);
        assert!(!t.is_hierarchical());
        assert_eq!(t.leaf_paths(), vec![vec![1], vec![2], vec![3]]);
    }

    #[test]
    fn hierarchy_paths_are_one_based_sibling_indices() {
        let t = two_level();
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(t.depth(), 2);
        assert!(t.is_hierarchical());
        assert_eq!(t.leaf_paths(), vec![vec![1, 1], vec![1, 2], vec![2, 1]]);
    }

    #[test]
    fn label_paths_follow_hierarchy() {
        let t = two_level();
        let paths = t.leaf_label_paths();
        assert_eq!(paths[0], vec!["Efficacy End Point", "OS"]);
        assert_eq!(paths[2], vec!["Other Efficacy", "HR"]);
        assert_eq!(t.leaf_labels(), vec!["OS", "PFS", "HR"]);
    }

    #[test]
    fn all_labels_include_interior_nodes() {
        let t = two_level();
        let all = t.all_labels();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0], ("Efficacy End Point", 0));
        assert_eq!(all[1], ("OS", 1));
    }

    #[test]
    fn empty_tree() {
        let t = MetaTree::empty();
        assert!(t.is_empty());
        assert_eq!(t.leaf_count(), 0);
        assert_eq!(t.depth(), 0);
        assert!(t.leaf_paths().is_empty());
    }

    #[test]
    fn three_level_depth() {
        let t = MetaTree::from_roots(vec![MetaNode::branch(
            "a",
            vec![MetaNode::branch("b", vec![MetaNode::leaf("c")])],
        )]);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.leaf_paths(), vec![vec![1, 1, 1]]);
    }
}
