//! Baselines for the TabBiN reproduction (§4).
//!
//! The two transformer baselines are the same [`tabbin_core::model::TabBiNModel`]
//! as TabBiN, pre-trained by the same `tabbin_core::pretrain::pretrain`; they
//! differ from it and from each other only in their sequence builders and
//! ablation flags, so the lineup compares input encodings, not model stacks.
//!
//! * [`word2vec`] — skip-gram with negative sampling, trained on table
//!   tuples (the paper's Word2Vec rows, Table 3 dimensionality sweep).
//! * [`bert`] — the fine-tuned BioBERT baseline's stand-in: flat sequences
//!   (caption + metadata labels + cells) whose only structure is each token's
//!   position — **no** visibility matrix, **no** table coordinates, **no**
//!   numeric/unit/type features.
//! * [`tuta`] — a TUTA-style tree-positional transformer: whole-table
//!   (metadata + data mixed) sequences with coordinate and numeric
//!   embeddings, but no unit/nesting treatment, no type inference, and no
//!   segment separation — exactly the deltas the paper probes.
//! * [`ditto`] — a DITTO-style sequence-pair entity matcher over
//!   `COL … VAL …` serializations, with a [`bert`] encoder.
//!
//! The paper's LLM ± RAG rows (Table 14) are not reproduced: proprietary
//! LLMs cannot run offline, and the experiment prints the paper's figures as
//! quoted text instead.

pub mod bert;
pub mod ditto;
mod seq;
pub mod tuta;
pub mod word2vec;

pub use bert::BertSim;
pub use ditto::DittoSim;
pub use tuta::TutaSim;
pub use word2vec::{Word2Vec, Word2VecConfig};
