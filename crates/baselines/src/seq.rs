//! The sequence builder shared by the transformer baselines.
//!
//! TUTA and BioBERT run the same [`tabbin_core::model::TabBiNModel`] as
//! TabBiN; only the sequence they feed it differs. Both layouts type every
//! token `text` and clear its feature bits (those embeddings are ablated in
//! both models). Beyond that:
//!
//! * the **tree** layout (TUTA) gives each cell its own id, in-cell token
//!   positions, the coordinates and visibility address it is handed, and
//!   keeps the values of numbers;
//! * the **flat** layout (BioBERT) makes the whole sequence one cell, drops
//!   numeric values, and gives each token only its sequence position `pos`,
//!   factorised onto the first two coordinate axes as row = `pos / 8` and
//!   column = `pos % 8` so that it fits under `max_coord`.

use tabbin_core::config::ModelConfig;
use tabbin_core::encoding::{EncodedSequence, EncodedToken, NO_CELL};
use tabbin_tokenizer::{SpecialToken, Tokenizer};
use tabbin_typeinfer::SemType;

/// Positions per row of the flat layout's factorised position.
const FLAT_ROW: usize = 8;

pub(crate) struct SeqBuilder<'a> {
    tok: &'a Tokenizer,
    max_seq: usize,
    max_cell: usize,
    flat: bool,
    tokens: Vec<EncodedToken>,
    n_cells: usize,
}

impl<'a> SeqBuilder<'a> {
    /// TUTA's layout: cells keep their identity, coordinates and values.
    pub(crate) fn tree(tok: &'a Tokenizer, cfg: &ModelConfig) -> Self {
        let (max_seq, max_cell) = (cfg.max_seq, cfg.max_cell_tokens);
        Self { tok, max_seq, max_cell, flat: false, tokens: Vec::new(), n_cells: 0 }
    }

    /// BioBERT's layout: one cell, positions only, cells not truncated.
    pub(crate) fn flat(tok: &'a Tokenizer, cfg: &ModelConfig) -> Self {
        Self { max_cell: cfg.max_seq, flat: true, ..Self::tree(tok, cfg) }
    }

    /// Appends a `[CLS]`/`[SEP]`-style token.
    pub(crate) fn special(&mut self, s: SpecialToken) {
        self.push(s.id(), None, 0, [0; 6], (0, 0), NO_CELL);
    }

    /// Appends one cell's text at coordinates `tpos` and visibility address
    /// `(row, col)`; the flat layout ignores all three.
    pub(crate) fn cell(&mut self, text: &str, tpos: [u16; 6], row: u32, col: u32) {
        let cell_id = if self.flat { 0 } else { self.n_cells };
        self.n_cells = cell_id + 1;
        for (pos, p) in self.tok.encode(text).into_iter().take(self.max_cell).enumerate() {
            self.push(p.vocab_id(), p.value(), pos, tpos, (row, col), cell_id);
        }
    }

    /// Appends free text as one cell with no coordinates.
    pub(crate) fn text(&mut self, text: &str) {
        self.cell(text, [0; 6], 0, 0);
    }

    fn push(
        &mut self,
        vocab_id: u32,
        value: Option<f64>,
        cell_pos: usize,
        tpos: [u16; 6],
        (row, col): (u32, u32),
        cell_id: usize,
    ) {
        let pos = self.tokens.len();
        if pos >= self.max_seq {
            return;
        }
        let (value, cell_pos, tpos, row, col) = if self.flat {
            (None, 0, [(pos / FLAT_ROW) as u16, (pos % FLAT_ROW) as u16, 0, 0, 0, 0], 0, 0)
        } else {
            (value, cell_pos, tpos, row, col)
        };
        self.tokens.push(EncodedToken {
            vocab_id,
            value,
            cell_pos,
            tpos,
            sem_type: SemType::Text.index(),
            feat_bits: [false; 8],
            row,
            col,
            special: cell_id == NO_CELL,
            cell_id,
        });
    }

    pub(crate) fn finish(self) -> EncodedSequence {
        EncodedSequence { tokens: self.tokens, n_cells: self.n_cells }
    }
}
