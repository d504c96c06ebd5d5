//! The batched encode→embed pipeline.
//!
//! Every embedding in the workspace runs the fused forward pass of
//! [`crate::infer`]; the autograd tape only trains. This module runs that
//! pass over many items at a time:
//!
//! * [`EmbedSession`] — a reusable inference arena: the fused kernel's
//!   scratch buffers are resized and reused between calls instead of
//!   reallocated.
//! * [`embed_batch_parallel`] — many sequences through one model.
//! * [`BatchEncoder`] — the bulk surface over a [`TabBiNFamily`]: table
//!   composites, column composites and entities, many at a time.
//!
//! Batches past [`PARALLEL_BATCH_THRESHOLD`] fan out row-parallel across
//! worker threads with `crossbeam` (each worker owns its own arena; the
//! models are shared read-only). A composite is written in place by the same
//! function ([`crate::composite`]) as the single-item embedding of
//! [`TabBiNFamily`], and an embedding does not depend on what else is in its
//! batch, so a batched embedding equals the per-item one bit for bit;
//! `tests/prop_batch.rs` pins both.

use crate::composite::{colcomp_into, tblcomp_into};
use crate::encoding::{encode_text, EncodedSequence};
use crate::infer::{embed_with, embed_with_into, InferScratch};
use crate::model::TabBiNModel;
use crate::variants::TabBiNFamily;
use std::borrow::Borrow;
use tabbin_index::parallel::par_chunk_map;
use tabbin_table::Table;

/// Batch size at which embedding fans out across worker threads. Mirrors the
/// spirit of the tensor crate's parallel-matmul FLOP threshold: below this,
/// thread spawn overhead beats the win. The dispatch itself
/// ([`par_chunk_map`]) is the workspace-shared helper in
/// `tabbin_index::parallel`, which the vector store's batched queries use
/// too.
pub const PARALLEL_BATCH_THRESHOLD: usize = tabbin_index::parallel::PARALLEL_TASK_THRESHOLD;

/// A reusable inference arena for repeated embedding calls.
///
/// Holds the fused kernel's scratch buffers, which are resized — not
/// reallocated — between calls, so steady-state embedding performs no heap
/// allocation beyond the returned vectors.
#[derive(Default)]
pub struct EmbedSession {
    scratch: InferScratch,
}

impl EmbedSession {
    /// A fresh session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Embeds one sequence through the fused kernel, reusing this session's
    /// buffers: bit for bit `model.embed(seq)`.
    pub fn embed(&mut self, model: &TabBiNModel, seq: &EncodedSequence) -> Vec<f32> {
        embed_with(model, seq, &mut self.scratch)
    }
}

/// Embeds `items` across worker threads in input order, `dim` floats each:
/// `write` fills one item's vector through its worker's scratch arena.
fn par_embed<T: Sync>(
    items: &[T],
    dim: usize,
    write: impl Fn(&T, &mut InferScratch, &mut [f32]) + Sync,
) -> Vec<Vec<f32>> {
    par_chunk_map(items, |part| {
        let mut scratch = InferScratch::new();
        part.iter()
            .map(|item| {
                let mut out = vec![0.0; dim];
                write(item, &mut scratch, &mut out);
                out
            })
            .collect()
    })
}

/// Embeds a batch through one model, fanning out across threads for large
/// batches; results preserve input order.
pub fn embed_batch_parallel(model: &TabBiNModel, seqs: &[&EncodedSequence]) -> Vec<Vec<f32>> {
    par_embed(seqs, model.cfg.hidden, |seq, scratch, out| embed_with_into(model, seq, scratch, out))
}

/// Batched encoder over a [`TabBiNFamily`]: the bulk-embedding surface of
/// the workspace.
pub struct BatchEncoder<'a> {
    family: &'a TabBiNFamily,
}

impl<'a> BatchEncoder<'a> {
    /// Wraps a family for batched embedding.
    pub fn new(family: &'a TabBiNFamily) -> Self {
        Self { family }
    }

    /// Composite table embeddings (`tblcomp2` = data ⊕ HMD ⊕ VMD ⊕ caption)
    /// for a batch of owned or borrowed tables: bit for bit
    /// [`TabBiNFamily::embed_table`] per table.
    pub fn embed_tables<T: Borrow<Table> + Sync>(&self, tables: &[T]) -> Vec<Vec<f32>> {
        let fam = self.family;
        par_embed(tables, 4 * fam.cfg.hidden, |t, scratch, out| {
            tblcomp_into(fam, t.borrow(), scratch, out)
        })
    }

    /// `colcomp` embeddings (attribute ⊕ column data) for the listed columns
    /// of `table`, in the order of `cols`: bit for bit
    /// [`TabBiNFamily::embed_colcomp`] per column.
    pub fn embed_columns(&self, table: &Table, cols: &[usize]) -> Vec<Vec<f32>> {
        let fam = self.family;
        let paths = table.hmd.leaf_label_paths();
        par_embed(cols, 2 * fam.cfg.hidden, |&j, scratch, out| {
            colcomp_into(fam, table, &paths, j, scratch, out)
        })
    }

    /// Entity embeddings for a batch of surface forms (column model, as in
    /// §4.3): bit for bit [`TabBiNFamily::embed_entity`] per text.
    pub fn embed_entities<S: AsRef<str> + Sync>(&self, texts: &[S]) -> Vec<Vec<f32>> {
        let fam = self.family;
        par_embed(texts, fam.cfg.hidden, |text, scratch, out| {
            let seq = encode_text(text.as_ref(), &fam.tokenizer, &fam.tagger, &fam.cfg);
            embed_with_into(&fam.col, &seq, scratch, out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, SegmentKind};
    use crate::encoding::encode_segment;
    use tabbin_table::samples::{figure1_table, table1_sample, table2_relational};

    fn family() -> (Vec<Table>, TabBiNFamily) {
        let tables = vec![figure1_table(), table1_sample(), table2_relational()];
        let fam = TabBiNFamily::new(&tables, ModelConfig::tiny(), 23);
        (tables, fam)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn batched_tables_match_per_table_loop() {
        let (tables, fam) = family();
        let batched = BatchEncoder::new(&fam).embed_tables(&tables);
        let refs: Vec<&Table> = tables.iter().collect();
        assert_eq!(BatchEncoder::new(&fam).embed_tables(&refs), batched);
        for (t, b) in tables.iter().zip(&batched) {
            assert_eq!(bits(&fam.embed_table(t)), bits(b), "table '{}'", t.caption);
        }
    }

    #[test]
    fn batched_columns_match_per_column_loop() {
        let (tables, fam) = family();
        let all: Vec<usize> = (0..tables[2].n_cols()).collect();
        let cols = BatchEncoder::new(&fam).embed_columns(&tables[2], &all);
        assert_eq!(cols.len(), tables[2].n_cols());
        for (j, c) in cols.iter().enumerate() {
            assert_eq!(bits(c), bits(&fam.embed_colcomp(&tables[2], j)), "column {j}");
        }
        // A subset comes back in the order asked for.
        let picked = BatchEncoder::new(&fam).embed_columns(&tables[2], &[2, 0]);
        assert_eq!(picked, vec![cols[2].clone(), cols[0].clone()]);
    }

    #[test]
    fn batched_entities_match_per_entity_loop() {
        let (_, fam) = family();
        let texts = ["ramucirumab", "colon cancer", "overall survival"];
        let batch = BatchEncoder::new(&fam).embed_entities(&texts);
        for (t, b) in texts.iter().zip(&batch) {
            assert_eq!(bits(b), bits(&fam.embed_entity(t)), "{t}");
        }
    }

    #[test]
    fn embed_into_streams_batched_embeddings() {
        let (tables, fam) = family();
        let dim = 4 * fam.cfg.hidden;
        let mut store = tabbin_index::ShardedStore::exact(dim, 1);
        let batched = BatchEncoder::new(&fam).embed_tables(&tables);
        let ids: Vec<u64> = batched.iter().map(|v| store.insert(v)).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(store.len(), tables.len());
        // The store holds the composites modulo the normalization it
        // applies: each table's own embedding must retrieve it first with
        // score ~1.
        for (i, emb) in batched.iter().enumerate() {
            let hits = store.search(emb, 1, &tabbin_index::ExactScan);
            assert_eq!(hits[0].id, ids[i]);
            assert!((hits[0].score - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn parallel_dispatch_preserves_order() {
        // Enough tables to cross PARALLEL_BATCH_THRESHOLD.
        let base = vec![figure1_table(), table1_sample(), table2_relational()];
        let tables: Vec<Table> =
            (0..3 * PARALLEL_BATCH_THRESHOLD).map(|i| base[i % base.len()].clone()).collect();
        let fam = TabBiNFamily::new(&base, ModelConfig::tiny(), 29);
        let batched = BatchEncoder::new(&fam).embed_tables(&tables);
        assert_eq!(batched.len(), tables.len());
        // Identical tables must embed identically regardless of which worker
        // handled them, and must match the serial path.
        for (i, t) in tables.iter().enumerate() {
            assert_eq!(batched[i], batched[i % base.len()]);
            assert_eq!(bits(&batched[i]), bits(&fam.embed_table(t)), "table {i}");
        }
    }

    /// The session runs the fused kernel, whose float summation order differs
    /// slightly from the tape's (and whose GELU is not libm's); 1e-5 is the
    /// pinned bound against the tape reference.
    #[test]
    fn session_reuse_is_stable() {
        let (tables, fam) = family();
        let seq =
            encode_segment(&tables[0], SegmentKind::DataRow, &fam.tokenizer, &fam.tagger, &fam.cfg);
        let mut session = EmbedSession::new();
        let first = session.embed(&fam.row, &seq);
        for _ in 0..5 {
            assert_eq!(session.embed(&fam.row, &seq), first);
        }
        assert_eq!(bits(&first), bits(&fam.row.embed(&seq)), "session vs embed");
        let tape = fam.row.embed_on_tape(&seq);
        let max = first.iter().zip(&tape).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max);
        assert!(max < 1e-5, "session vs tape: diverged by {max}");
    }
}
