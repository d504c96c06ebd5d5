//! The batched encode→embed pipeline.
//!
//! The naive inference path ([`TabBiNFamily::embed_table`]) builds a fresh
//! autograd tape per table *and per segment model*, copying every parameter
//! tensor onto each tape. For bulk workloads — clustering 227k CancerKG
//! columns behind LSH blocking, corpus-scale table search, benchmarking —
//! that allocation churn dominates. This module provides the batched
//! alternative:
//!
//! * [`EmbedSession`] — a reusable inference arena: the fused no-tape
//!   kernel's scratch buffers (see [`crate::infer`]) are cleared and reused
//!   between calls instead of reallocated.
//! * [`BatchEncoder`] — encodes and embeds **many** tables/columns/entities
//!   through that kernel, each composite written in place, and dispatches
//!   batches past [`PARALLEL_BATCH_THRESHOLD`] row-parallel across worker
//!   threads with `crossbeam` (each worker owns its own arena; the models
//!   are shared read-only).
//!
//! Batched outputs agree with the per-table loop elementwise to within 1e-5
//! (the fused kernel sums floats in a slightly different order than the
//! tape), so callers can switch paths freely, and an embedding does not
//! depend on what else is in its batch, bit for bit; property tests in
//! `tests/prop_batch.rs` pin both.

use crate::config::SegmentKind;
use crate::encoding::{encode_column, encode_segment, encode_text, EncodedSequence};
use crate::infer::{embed_with, embed_with_into, InferScratch};
use crate::model::TabBiNModel;
use crate::variants::TabBiNFamily;
use tabbin_index::VectorSink;
use tabbin_table::Table;

/// Batch size at which embedding fans out across worker threads. Mirrors the
/// spirit of the tensor crate's parallel-matmul FLOP threshold: below this,
/// thread spawn overhead beats the win. The dispatch itself
/// ([`par_chunk_map`]) is the workspace-shared helper in
/// `tabbin_index::parallel`, which the vector store's batched queries use
/// too.
pub const PARALLEL_BATCH_THRESHOLD: usize = tabbin_index::parallel::PARALLEL_TASK_THRESHOLD;

use tabbin_index::parallel::par_chunk_map;

/// A reusable inference arena for repeated embedding calls.
///
/// Holds the no-tape kernel's scratch buffers, which are resized — not
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

    /// Embeds one sequence through the fused no-tape kernel, reusing this
    /// session's buffers. Agrees with `model.embed(seq)` to within 1e-5.
    pub fn embed(&mut self, model: &TabBiNModel, seq: &EncodedSequence) -> Vec<f32> {
        embed_with(model, seq, &mut self.scratch)
    }

    /// Embeds a batch of sequences, reusing this session's buffers.
    pub fn embed_batch(&mut self, model: &TabBiNModel, seqs: &[&EncodedSequence]) -> Vec<Vec<f32>> {
        seqs.iter().map(|s| embed_with(model, s, &mut self.scratch)).collect()
    }
}

/// Embeds a batch through one model, fanning out across threads for large
/// batches. Each worker runs the fused no-tape kernel with its own scratch
/// arena; the model is shared read-only and results preserve input order.
pub fn embed_batch_parallel(model: &TabBiNModel, seqs: &[&EncodedSequence]) -> Vec<Vec<f32>> {
    par_chunk_map(seqs, |part| {
        let mut session = EmbedSession::new();
        session.embed_batch(model, part)
    })
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
    /// for a whole batch of tables. Elementwise equal to calling
    /// [`TabBiNFamily::embed_table`] per table, without a tape and without
    /// an allocation per segment.
    pub fn embed_tables(&self, tables: &[Table]) -> Vec<Vec<f32>> {
        let refs: Vec<&Table> = tables.iter().collect();
        self.embed_table_refs(&refs)
    }

    /// [`BatchEncoder::embed_tables`] over borrowed tables — the shape
    /// evaluation harnesses naturally hold after filtering a corpus.
    pub fn embed_table_refs(&self, tables: &[&Table]) -> Vec<Vec<f32>> {
        let fam = self.family;
        let (tok, tagger, cfg) = (&fam.tokenizer, &fam.tagger, &fam.cfg);
        let h = cfg.hidden;
        // Each worker encodes and embeds its tables one at a time, the four
        // segment embeddings landing side by side in the table's composite.
        par_chunk_map(tables, |part| {
            let mut scratch = InferScratch::new();
            part.iter()
                .map(|t| {
                    let segments = [
                        (&fam.row, encode_segment(t, SegmentKind::DataRow, tok, tagger, cfg)),
                        (&fam.hmd, encode_segment(t, SegmentKind::Hmd, tok, tagger, cfg)),
                        (&fam.vmd, encode_segment(t, SegmentKind::Vmd, tok, tagger, cfg)),
                        (&fam.row, encode_text(&t.caption, tok, tagger, cfg)),
                    ];
                    let mut composite = vec![0.0; segments.len() * h];
                    for ((model, seq), out) in segments.iter().zip(composite.chunks_exact_mut(h)) {
                        embed_with_into(model, seq, &mut scratch, out);
                    }
                    composite
                })
                .collect()
        })
    }

    /// `colcomp` embeddings (attribute ⊕ column data) for **every** column of
    /// `table`, in one batch. Elementwise equal to calling
    /// [`TabBiNFamily::embed_colcomp`] per column.
    pub fn embed_columns(&self, table: &Table) -> Vec<Vec<f32>> {
        let all: Vec<usize> = (0..table.n_cols()).collect();
        self.embed_columns_subset(table, &all)
    }

    /// [`BatchEncoder::embed_columns`] restricted to the listed column
    /// indices (output order follows `cols`) — evaluation harnesses often
    /// need only a filtered subset (e.g. numeric columns), and embedding the
    /// rest just to discard it is wasted work.
    pub fn embed_columns_subset(&self, table: &Table, cols: &[usize]) -> Vec<Vec<f32>> {
        let fam = self.family;
        let (tok, tagger, cfg) = (&fam.tokenizer, &fam.tagger, &fam.cfg);
        let h = cfg.hidden;
        let paths = table.hmd.leaf_label_paths();
        par_chunk_map(cols, |part| {
            let mut scratch = InferScratch::new();
            part.iter()
                .map(|&j| {
                    let attr = match paths.get(j) {
                        Some(p) => p.join(" "),
                        None => format!("column {j}"),
                    };
                    let mut composite = vec![0.0; 2 * h];
                    let (attr_out, col_out) = composite.split_at_mut(h);
                    let seq = encode_text(&attr, tok, tagger, cfg);
                    embed_with_into(&fam.hmd, &seq, &mut scratch, attr_out);
                    let seq = encode_column(table, j, tok, tagger, cfg);
                    embed_with_into(&fam.col, &seq, &mut scratch, col_out);
                    composite
                })
                .collect()
        })
    }

    /// Embeds `tables` through the batched pipeline and streams the
    /// composite embeddings straight into `sink` — a
    /// [`tabbin_index::ShardedStore`], a [`tabbin_index::QueryEngine`] over
    /// one, or any other [`VectorSink`] — one `insert` per table, in input
    /// order.
    /// Returns
    /// the assigned ids, so callers can map store hits back to tables.
    /// The sink must be sized for the composite dimension (`4 * hidden`).
    pub fn embed_into<S: VectorSink>(&self, sink: &mut S, tables: &[Table]) -> Vec<u64> {
        let composite = 4 * self.family.cfg.hidden;
        assert_eq!(
            sink.dim(),
            composite,
            "sink sized for {}-dim vectors, but table composites are {composite}-dim \
             (4 * hidden)",
            sink.dim()
        );
        self.embed_tables(tables).iter().map(|v| sink.insert(v)).collect()
    }

    /// [`BatchEncoder::embed_into`] for `colcomp` column embeddings of one
    /// table (sink dimension `2 * hidden`). Returns one id per column.
    pub fn embed_columns_into<S: VectorSink>(&self, sink: &mut S, table: &Table) -> Vec<u64> {
        let colcomp = 2 * self.family.cfg.hidden;
        assert_eq!(
            sink.dim(),
            colcomp,
            "sink sized for {}-dim vectors, but column composites are {colcomp}-dim \
             (2 * hidden)",
            sink.dim()
        );
        self.embed_columns(table).iter().map(|v| sink.insert(v)).collect()
    }

    /// Entity embeddings for a batch of surface forms (column model, as in
    /// §4.3), batched. Elementwise equal to [`TabBiNFamily::embed_entity`]
    /// per text.
    pub fn embed_entities<S: AsRef<str>>(&self, texts: &[S]) -> Vec<Vec<f32>> {
        let fam = self.family;
        let seqs: Vec<EncodedSequence> = texts
            .iter()
            .map(|t| encode_text(t.as_ref(), &fam.tokenizer, &fam.tagger, &fam.cfg))
            .collect();
        let refs: Vec<&EncodedSequence> = seqs.iter().collect();
        embed_batch_parallel(&fam.col, &refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use tabbin_table::samples::{figure1_table, table1_sample, table2_relational};

    fn family() -> (Vec<Table>, TabBiNFamily) {
        let tables = vec![figure1_table(), table1_sample(), table2_relational()];
        let fam = TabBiNFamily::new(&tables, ModelConfig::tiny(), 23);
        (tables, fam)
    }

    /// The batched path runs the fused no-tape kernel, whose float summation
    /// order differs slightly from the tape; 1e-5 is the pinned bound.
    fn assert_close(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        let max = a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max);
        assert!(max < 1e-5, "{what}: diverged by {max}");
    }

    #[test]
    fn batched_tables_match_per_table_loop() {
        let (tables, fam) = family();
        let batched = BatchEncoder::new(&fam).embed_tables(&tables);
        for (t, b) in tables.iter().zip(&batched) {
            let single = fam.embed_table(t);
            assert_close(&single, b, &format!("table '{}'", t.caption));
        }
    }

    #[test]
    fn batched_columns_match_per_column_loop() {
        let (tables, fam) = family();
        let cols = BatchEncoder::new(&fam).embed_columns(&tables[2]);
        assert_eq!(cols.len(), tables[2].n_cols());
        for (j, c) in cols.iter().enumerate() {
            assert_close(c, &fam.embed_colcomp(&tables[2], j), &format!("column {j}"));
        }
    }

    #[test]
    fn batched_entities_match_per_entity_loop() {
        let (_, fam) = family();
        let texts = ["ramucirumab", "colon cancer", "overall survival"];
        let batch = BatchEncoder::new(&fam).embed_entities(&texts);
        for (t, b) in texts.iter().zip(&batch) {
            assert_close(b, &fam.embed_entity(t), t);
        }
    }

    #[test]
    fn embed_into_streams_batched_embeddings() {
        let (tables, fam) = family();
        let dim = 4 * fam.cfg.hidden;
        let mut store = tabbin_index::ShardedStore::exact(dim, 1);
        let ids = BatchEncoder::new(&fam).embed_into(&mut store, &tables);
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(store.len(), tables.len());
        // The store holds the same composites the batch path produces,
        // modulo the normalization it applies: each table's own embedding
        // must retrieve it first with score ~1.
        let batched = BatchEncoder::new(&fam).embed_tables(&tables);
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
            assert_close(&batched[i], &fam.embed_table(t), &format!("table {i}"));
        }
    }

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
        assert_close(&first, &fam.row.embed(&seq), "session vs tape");
    }
}
