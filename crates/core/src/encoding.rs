//! Sequence encoding: from table segments to embedding-layer inputs.
//!
//! This reproduces Figure 3 of the paper: every token carries the inputs of
//! all six embedding components — vocabulary id (numbers appear as `[VAL]`),
//! numeric payload, in-cell position, in-table bi-dimensional + nested
//! coordinates, inferred semantic type, and the 8-bit unit/nesting feature
//! vector — plus the `(row, col)` address used to build the visibility
//! matrix. `[CLS]` starts each row/column and `[SEP]` separates cells
//! (§3.3).

use crate::config::{ModelConfig, SegmentKind};
use tabbin_table::coords::{for_each_axis_path, path_pair};
use tabbin_table::visibility::{visibility_matrix, SeqItem};
use tabbin_table::{CellValue, MetaNode, MetaTree, Table};
use tabbin_tokenizer::{Piece, SpecialToken, Tokenizer};
use tabbin_typeinfer::{SemType, TypeTagger};

/// Sentinel `cell_id` for special tokens that belong to no cell.
pub const NO_CELL: usize = usize::MAX;

/// One encoded token with all embedding-layer inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct EncodedToken {
    /// Vocabulary id (`[VAL]` for numbers).
    pub vocab_id: u32,
    /// Numeric payload feeding `E_num`; `None` for non-numeric tokens.
    pub value: Option<f64>,
    /// In-cell token index feeding `E_cpos` (clamped to `max_cell_tokens`).
    pub cell_pos: usize,
    /// The six coordinate indices feeding `E_tpos`:
    /// `(x_vr, x_vc, x_hr, x_hc, x_nr, x_nc)`.
    pub tpos: [u16; 6],
    /// Inferred semantic type index feeding `E_type`.
    pub sem_type: usize,
    /// Unit/nesting bits feeding `E_fmt`.
    pub feat_bits: [bool; 8],
    /// Visibility-matrix row address.
    pub row: u32,
    /// Visibility-matrix column address.
    pub col: u32,
    /// Whether this is a `[CLS]`/`[SEP]` token (globally visible, excluded
    /// from masking and pooling).
    pub special: bool,
    /// Index of the owning cell within the sequence ([`NO_CELL`] for special
    /// tokens); the Cell-level Cloze objective masks whole cells by this id.
    pub cell_id: usize,
}

/// An encoded segment sequence.
#[derive(Clone, Debug, Default)]
pub struct EncodedSequence {
    /// The tokens in order.
    pub tokens: Vec<EncodedToken>,
    /// Number of distinct cells represented.
    pub n_cells: usize,
}

impl EncodedSequence {
    /// Sequence length.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Builds the binary visibility matrix for this sequence.
    pub fn visibility(&self) -> Vec<Vec<bool>> {
        let items: Vec<SeqItem> = self
            .tokens
            .iter()
            .map(|t| if t.special { SeqItem::global() } else { SeqItem::cell(t.row, t.col) })
            .collect();
        visibility_matrix(&items)
    }

    /// Token indices (not ids) of each cell, keyed by `cell_id`.
    pub fn cell_token_indices(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.n_cells];
        for (i, t) in self.tokens.iter().enumerate() {
            if t.cell_id != NO_CELL {
                out[t.cell_id].push(i);
            }
        }
        out
    }
}

/// Encodes one segment of a table.
pub fn encode_segment(
    table: &Table,
    kind: SegmentKind,
    tok: &Tokenizer,
    tagger: &TypeTagger,
    cfg: &ModelConfig,
) -> EncodedSequence {
    match kind {
        SegmentKind::DataRow => encode_data(table, /*row_major=*/ true, tok, tagger, cfg),
        SegmentKind::DataColumn => encode_data(table, /*row_major=*/ false, tok, tagger, cfg),
        SegmentKind::Hmd => {
            encode_metadata(&table.hmd, /*horizontal=*/ true, tok, tagger, cfg)
        }
        SegmentKind::Vmd => {
            encode_metadata(&table.vmd, /*horizontal=*/ false, tok, tagger, cfg)
        }
    }
}

/// Encodes a single data column `j` — the unit the TabBiN-column model embeds
/// for column clustering.
pub fn encode_column(
    table: &Table,
    j: usize,
    tok: &Tokenizer,
    tagger: &TypeTagger,
    cfg: &ModelConfig,
) -> EncodedSequence {
    let tpos = DataTpos::new(table);
    let mut b = SeqBuilder::new(tok, tagger, cfg);
    b.cls(0, j as u32);
    for i in 0..table.n_rows() {
        if b.full() {
            break;
        }
        b.data_cell(table, &tpos, i, j);
    }
    b.finish()
}

/// Encodes a single data row `i` — the tuple unit for entity matching.
pub fn encode_row(
    table: &Table,
    i: usize,
    tok: &Tokenizer,
    tagger: &TypeTagger,
    cfg: &ModelConfig,
) -> EncodedSequence {
    let tpos = DataTpos::new(table);
    let mut b = SeqBuilder::new(tok, tagger, cfg);
    b.cls(i as u32, 0);
    for j in 0..table.n_cols() {
        if b.full() {
            break;
        }
        b.data_cell(table, &tpos, i, j);
    }
    b.finish()
}

/// Encodes free text (an entity string, a caption) as one pseudo-cell.
pub fn encode_text(
    text: &str,
    tok: &Tokenizer,
    tagger: &TypeTagger,
    cfg: &ModelConfig,
) -> EncodedSequence {
    let mut b = SeqBuilder::new(tok, tagger, cfg);
    b.cls(0, 0);
    b.text_cell(text, [0; 6], 0, 0);
    b.finish()
}

fn encode_data(
    table: &Table,
    row_major: bool,
    tok: &Tokenizer,
    tagger: &TypeTagger,
    cfg: &ModelConfig,
) -> EncodedSequence {
    let tpos = DataTpos::new(table);
    let mut b = SeqBuilder::new(tok, tagger, cfg);
    let (outer, inner) =
        if row_major { (table.n_rows(), table.n_cols()) } else { (table.n_cols(), table.n_rows()) };
    // Once the builder is full every further call is a no-op, so stop
    // walking cells right there.
    'walk: for a in 0..outer {
        let (r0, c0) = if row_major { (a, 0) } else { (0, a) };
        b.cls(r0 as u32, c0 as u32);
        for bidx in 0..inner {
            if b.full() {
                break 'walk;
            }
            let (i, j) = if row_major { (a, bidx) } else { (bidx, a) };
            b.data_cell(table, &tpos, i, j);
        }
    }
    b.finish()
}

/// Data cells' `E_tpos` inputs, read per axis: cell `(i, j)` takes row
/// `i`'s vertical `(first, last)` pair and column `j`'s horizontal one —
/// the paper's definition of a cell coordinate (§2.3), and exactly
/// `assign_coordinates(table).data_coord(i, j).tpos_indices()`, with no
/// coordinate built or searched per cell.
struct DataTpos {
    rows: Vec<(u16, u16)>,
    cols: Vec<(u16, u16)>,
}

impl DataTpos {
    fn new(table: &Table) -> Self {
        let pairs = |tree: &MetaTree, n: usize| {
            let mut out = Vec::with_capacity(n);
            for_each_axis_path(tree, n, |p| out.push(path_pair(p)));
            out
        };
        Self { rows: pairs(&table.vmd, table.n_rows()), cols: pairs(&table.hmd, table.n_cols()) }
    }

    fn at(&self, i: usize, j: usize) -> [u16; 6] {
        let ((vr, vc), (hr, hc)) = (self.rows[i], self.cols[j]);
        [vr, vc, hr, hc, 0, 0]
    }
}

fn encode_metadata(
    tree: &MetaTree,
    horizontal: bool,
    tok: &Tokenizer,
    tagger: &TypeTagger,
    cfg: &ModelConfig,
) -> EncodedSequence {
    let mut b = SeqBuilder::new(tok, tagger, cfg);
    b.cls(0, 0);
    let mut path = Vec::new();
    let mut leaf_counter = 0usize;
    for (i, root) in tree.roots.iter().enumerate() {
        path.push(i as u16 + 1);
        encode_meta_node(&mut b, root, horizontal, &mut path, 0, &mut leaf_counter);
        path.pop();
    }
    b.finish()
}

/// Appends `node`'s label, then its subtree, depth first. `path` is the
/// 1-based child index at every level down to `node`; `leaf_counter` counts
/// the leaves already passed, so it is the node's first leaf.
fn encode_meta_node(
    b: &mut SeqBuilder<'_>,
    node: &MetaNode,
    horizontal: bool,
    path: &mut Vec<u16>,
    depth: usize,
    leaf_counter: &mut usize,
) {
    let first_leaf = *leaf_counter;
    // Horizontal metadata lives in rows (depth = which header row) and
    // spans columns; vertical metadata transposes that.
    let (row, col) = if horizontal {
        (depth as u32, first_leaf as u32)
    } else {
        (first_leaf as u32, depth as u32)
    };
    let (first, last) = path_pair(path);
    // Metadata's own axis carries the tree path; the cross axis is empty.
    let tpos: [u16; 6] =
        if horizontal { [0, 0, first, last, 0, 0] } else { [first, last, 0, 0, 0, 0] };
    b.text_cell(&node.label, tpos, row, col);
    b.sep(row, col);
    if node.children.is_empty() {
        *leaf_counter += 1;
        return;
    }
    for (i, child) in node.children.iter().enumerate() {
        path.push(i as u16 + 1);
        encode_meta_node(b, child, horizontal, path, depth + 1, leaf_counter);
        path.pop();
    }
}

/// Maps a structured cell value to its semantic type, consulting the tagger
/// for text content (structured values carry their shape directly).
pub fn cell_sem_type(cell: &CellValue, tagger: &TypeTagger) -> SemType {
    match cell {
        CellValue::Empty => SemType::Text,
        CellValue::Text(t) => tagger.tag(t),
        CellValue::Number { unit, .. } => {
            if unit.is_some() {
                SemType::Measurement
            } else {
                SemType::Numeric
            }
        }
        CellValue::Range { .. } => SemType::Range,
        CellValue::Gaussian { .. } => SemType::Gaussian,
        CellValue::Nested(_) => SemType::Text,
    }
}

struct SeqBuilder<'a> {
    tok: &'a Tokenizer,
    tagger: &'a TypeTagger,
    cfg: &'a ModelConfig,
    tokens: Vec<EncodedToken>,
    n_cells: usize,
    /// The tokenizer's output for the text in hand, reused across cells.
    pieces: Vec<Piece>,
    /// The rendering of the non-text value in hand, reused across cells.
    text: String,
}

impl<'a> SeqBuilder<'a> {
    fn new(tok: &'a Tokenizer, tagger: &'a TypeTagger, cfg: &'a ModelConfig) -> Self {
        Self {
            tok,
            tagger,
            cfg,
            tokens: Vec::with_capacity(cfg.max_seq),
            n_cells: 0,
            pieces: Vec::new(),
            text: String::new(),
        }
    }

    fn full(&self) -> bool {
        self.tokens.len() >= self.cfg.max_seq
    }

    fn special(&mut self, s: SpecialToken, row: u32, col: u32) {
        if self.full() {
            return;
        }
        self.tokens.push(EncodedToken {
            vocab_id: s.id(),
            value: None,
            cell_pos: 0,
            tpos: [0; 6],
            sem_type: SemType::Text.index(),
            feat_bits: [false; 8],
            row,
            col,
            special: true,
            cell_id: NO_CELL,
        });
    }

    fn cls(&mut self, row: u32, col: u32) {
        self.special(SpecialToken::Cls, row, col);
    }

    fn sep(&mut self, row: u32, col: u32) {
        self.special(SpecialToken::Sep, row, col);
    }

    /// Appends data cell `(i, j)` of `table` and its `[SEP]`.
    fn data_cell(&mut self, table: &Table, tpos: &DataTpos, i: usize, j: usize) {
        self.cell(table.data.get(i, j), tpos.at(i, j), i as u32, j as u32);
        self.sep(i as u32, j as u32);
    }

    /// Appends all tokens of one text cell: a metadata label, a caption, a
    /// `CellValue::Text`.
    fn text_cell(&mut self, text: &str, tpos: [u16; 6], row: u32, col: u32) {
        if self.full() {
            return;
        }
        let cell_id = self.n_cells;
        self.n_cells += 1;
        let sem = self.tagger.tag(text).index();
        self.push_text_tokens(text, tpos, row, col, cell_id, sem, [false; 8], &mut 0);
    }

    /// Appends all tokens of one cell (recursing into nested tables).
    fn cell(&mut self, cell: &CellValue, tpos: [u16; 6], row: u32, col: u32) {
        if let CellValue::Text(text) = cell {
            return self.text_cell(text, tpos, row, col);
        }
        if self.full() {
            return;
        }
        let cell_id = self.n_cells;
        self.n_cells += 1;
        let sem = cell_sem_type(cell, self.tagger).index();
        let bits = cell.feature_bits();
        let mut pos = 0usize;
        match cell {
            CellValue::Nested(inner) => {
                // Flatten the nested table: header labels on nested row 1,
                // data cells below, all inheriting the host coordinate and
                // visibility address (paper: nested position embedding with
                // in-nested (x, y) starting at 1).
                for (c, label) in inner.hmd.leaf_labels().iter().enumerate() {
                    let mut t = tpos;
                    t[4] = 1;
                    t[5] = c as u16 + 1;
                    self.push_text_tokens(label, t, row, col, cell_id, sem, bits, &mut pos);
                }
                for (r, c, v) in inner.data.iter_indexed() {
                    let mut t = tpos;
                    t[4] = r as u16 + 2;
                    t[5] = c as u16 + 1;
                    let inner_sem = cell_sem_type(v, self.tagger).index();
                    let mut inner_bits = v.feature_bits();
                    inner_bits[7] = true; // still inside a nested cell
                    self.push_rendered(v, t, row, col, cell_id, inner_sem, inner_bits, &mut pos);
                }
            }
            other => self.push_rendered(other, tpos, row, col, cell_id, sem, bits, &mut pos),
        }
    }

    /// [`SeqBuilder::push_text_tokens`] of `cell`'s rendering, rendered into
    /// the builder's one reused buffer.
    #[allow(clippy::too_many_arguments)]
    fn push_rendered(
        &mut self,
        cell: &CellValue,
        tpos: [u16; 6],
        row: u32,
        col: u32,
        cell_id: usize,
        sem: usize,
        bits: [bool; 8],
        pos: &mut usize,
    ) {
        let mut text = std::mem::take(&mut self.text);
        text.clear();
        cell.render_into(&mut text);
        self.push_text_tokens(&text, tpos, row, col, cell_id, sem, bits, pos);
        self.text = text;
    }

    /// Appends the tokens of `text` — at most what the cell (`pos` counts
    /// its tokens so far) and the sequence still have room for, which is
    /// also all that gets tokenized.
    #[allow(clippy::too_many_arguments)]
    fn push_text_tokens(
        &mut self,
        text: &str,
        tpos: [u16; 6],
        row: u32,
        col: u32,
        cell_id: usize,
        sem: usize,
        bits: [bool; 8],
        pos: &mut usize,
    ) {
        let room = self.cfg.max_cell_tokens.saturating_sub(*pos);
        let room = room.min(self.cfg.max_seq.saturating_sub(self.tokens.len()));
        let max_coord = self.cfg.max_coord as u16 - 1;
        self.pieces.clear();
        self.tok.encode_into(text, room, &mut self.pieces);
        for piece in self.pieces.iter().take(room) {
            self.tokens.push(EncodedToken {
                vocab_id: piece.vocab_id(),
                value: piece.value(),
                cell_pos: *pos,
                tpos: tpos.map(|x| x.min(max_coord)),
                sem_type: sem,
                feat_bits: bits,
                row,
                col,
                special: false,
                cell_id,
            });
            *pos += 1;
        }
    }

    fn finish(self) -> EncodedSequence {
        EncodedSequence { tokens: self.tokens, n_cells: self.n_cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabbin_table::samples::{figure1_table, table1_sample, table2_relational};

    fn fixtures() -> (Tokenizer, TypeTagger, ModelConfig) {
        let texts = [
            "treatment cancer type age outcome overall survival ramucirumab colon rectal",
            "name job engineer lawyer scientist sam ava kim months efficacy",
        ];
        (
            Tokenizer::train(texts.iter().copied(), 1000, 1),
            TypeTagger::new(),
            ModelConfig::default(),
        )
    }

    #[test]
    fn relational_row_encoding_has_cls_and_sep() {
        let (tok, tagger, cfg) = fixtures();
        let t = table2_relational();
        let seq = encode_segment(&t, SegmentKind::DataRow, &tok, &tagger, &cfg);
        assert!(!seq.is_empty());
        assert_eq!(seq.tokens[0].vocab_id, SpecialToken::Cls.id());
        let seps = seq.tokens.iter().filter(|t| t.vocab_id == SpecialToken::Sep.id()).count();
        assert_eq!(seps, 9, "one [SEP] per cell");
        // 3 rows, 3 cells each.
        assert_eq!(seq.n_cells, 9);
    }

    #[test]
    fn numbers_become_val_with_payload() {
        let (tok, tagger, cfg) = fixtures();
        let t = table2_relational();
        let seq = encode_segment(&t, SegmentKind::DataRow, &tok, &tagger, &cfg);
        let vals: Vec<&EncodedToken> =
            seq.tokens.iter().filter(|t| t.vocab_id == SpecialToken::Val.id()).collect();
        assert_eq!(vals.len(), 3, "three Age numbers");
        assert_eq!(vals[0].value, Some(28.0));
    }

    #[test]
    fn column_encoding_addresses_one_column() {
        let (tok, tagger, cfg) = fixtures();
        let t = table2_relational();
        let seq = encode_column(&t, 2, &tok, &tagger, &cfg);
        for t in seq.tokens.iter().filter(|t| !t.special) {
            assert_eq!(t.col, 2);
        }
        assert_eq!(seq.n_cells, 3);
    }

    #[test]
    fn coordinates_flow_into_tpos() {
        let (tok, tagger, cfg) = fixtures();
        let t = figure1_table();
        let seq = encode_segment(&t, SegmentKind::DataRow, &tok, &tagger, &cfg);
        // Find a non-special token of the second row (vertical path <1,2>).
        let tok2 = seq.tokens.iter().find(|t| !t.special && t.row == 1).unwrap();
        assert_eq!(tok2.tpos[0], 1);
        assert_eq!(tok2.tpos[1], 2);
    }

    #[test]
    fn nested_tokens_carry_nested_coordinates_and_bit() {
        let (tok, tagger, cfg) = fixtures();
        let t = table1_sample();
        let seq = encode_segment(&t, SegmentKind::DataRow, &tok, &tagger, &cfg);
        let nested: Vec<&EncodedToken> = seq.tokens.iter().filter(|t| t.tpos[4] > 0).collect();
        assert!(!nested.is_empty(), "nested tokens present");
        // Header labels at nested row 1, data at row >= 2.
        assert!(nested.iter().any(|t| t.tpos[4] == 1));
        assert!(nested.iter().any(|t| t.tpos[4] >= 2));
        for t in &nested {
            assert!(t.feat_bits[7], "nesting bit set");
        }
    }

    #[test]
    fn hmd_encoding_walks_hierarchy() {
        let (tok, tagger, cfg) = fixtures();
        let t = figure1_table();
        let seq = encode_segment(&t, SegmentKind::Hmd, &tok, &tagger, &cfg);
        // 5 HMD labels: 2 roots + 3 leaves.
        assert_eq!(seq.n_cells, 5);
        // Horizontal metadata fills the hpos slots, not the vpos slots.
        let non_special: Vec<&EncodedToken> = seq.tokens.iter().filter(|t| !t.special).collect();
        assert!(non_special.iter().all(|t| t.tpos[0] == 0 && t.tpos[1] == 0));
        assert!(non_special.iter().any(|t| t.tpos[2] > 0));
    }

    #[test]
    fn vmd_encoding_transposes_addresses() {
        let (tok, tagger, cfg) = fixtures();
        let t = figure1_table();
        let seq = encode_segment(&t, SegmentKind::Vmd, &tok, &tagger, &cfg);
        assert_eq!(seq.n_cells, 3, "1 root + 2 leaves");
        let non_special: Vec<&EncodedToken> = seq.tokens.iter().filter(|t| !t.special).collect();
        assert!(non_special.iter().any(|t| t.tpos[0] > 0));
        assert!(non_special.iter().all(|t| t.tpos[2] == 0 && t.tpos[3] == 0));
    }

    #[test]
    fn sequences_respect_max_seq() {
        let (tok, tagger, _) = fixtures();
        let cfg = ModelConfig { max_seq: 16, ..ModelConfig::default() };
        let t = figure1_table();
        let seq = encode_segment(&t, SegmentKind::DataRow, &tok, &tagger, &cfg);
        assert!(seq.len() <= 16);
    }

    #[test]
    fn cell_tokens_respect_max_cell_tokens() {
        let (tok, tagger, _) = fixtures();
        let cfg = ModelConfig { max_cell_tokens: 2, ..ModelConfig::default() };
        let long = Table::builder("t")
            .hmd_flat(&["x"])
            .row(vec![CellValue::text("one two three four five six")])
            .build();
        let seq = encode_segment(&long, SegmentKind::DataRow, &tok, &tagger, &cfg);
        let words = seq.tokens.iter().filter(|t| !t.special).count();
        assert!(words <= 2, "got {words} tokens");
    }

    #[test]
    fn visibility_matches_addresses() {
        let (tok, tagger, cfg) = fixtures();
        let t = table2_relational();
        let seq = encode_segment(&t, SegmentKind::DataRow, &tok, &tagger, &cfg);
        let vis = seq.visibility();
        assert_eq!(vis.len(), seq.len());
        // Specials are globally visible.
        assert!(vis[0].iter().all(|&b| b));
    }

    #[test]
    fn cell_token_indices_partition_tokens() {
        let (tok, tagger, cfg) = fixtures();
        let t = table2_relational();
        let seq = encode_segment(&t, SegmentKind::DataRow, &tok, &tagger, &cfg);
        let cells = seq.cell_token_indices();
        let total: usize = cells.iter().map(Vec::len).sum();
        let non_special = seq.tokens.iter().filter(|t| !t.special).count();
        assert_eq!(total, non_special);
    }

    #[test]
    fn text_encoding_is_single_cell() {
        let (tok, tagger, cfg) = fixtures();
        let seq = encode_text("metastatic colon cancer", &tok, &tagger, &cfg);
        assert_eq!(seq.n_cells, 1);
        assert!(seq.tokens[0].special);
    }
}
