//! **TabBiN** — structure- and metadata-aware transformer embeddings for
//! tables with bi-dimensional hierarchical metadata and nesting.
//!
//! This crate is the paper's primary contribution, reproduced end to end:
//!
//! * [`config`] — model geometry, segment kinds, and the ablation switches
//!   studied in §4.6 (visibility matrix, type inference, units & nesting,
//!   bi-dimensional coordinates).
//! * [`encoding`] — turning a [`tabbin_table::Table`] segment (data rows,
//!   data columns, HMD, VMD) into an encoded token sequence carrying all six
//!   embedding inputs plus the visibility addresses (Figure 3).
//! * [`embedding`] — the six-component embedding layer (§3.1): token,
//!   numeric features, in-cell position, in-table (bi-dimensional + nested)
//!   position, inferred type, and cell features (units + nesting).
//! * [`model`] — the visibility-masked transformer encoder (Eq. 1) with MLM
//!   and Cell-level-Cloze heads; its autograd-tape forward pass trains.
//! * [`infer`] — the fused forward pass every embedding runs: TabBiN's,
//!   the batches', and the TUTA and BioBERT baselines' (`tabbin-baselines`).
//! * [`pretrain`] — the self-supervised pre-training loop (§3.3), on the
//!   tape.
//! * [`variants`] — the four segment models (data-row, data-column, HMD,
//!   VMD) trained separately so each context is learned independently.
//! * [`composite`] — composite embeddings for downstream tasks (§3.4, §4.5):
//!   `colcomp`, `tblcomp1`, `tblcomp2`, each defined once, and the
//!   numeric/range CE structures of Figure 4.
//! * [`batch`] — many tables, columns or entities at a time, bit for bit
//!   the per-item embeddings of [`variants`].
//! * [`matcher`] — the linear + softmax binary entity-matching head used for
//!   the DITTO comparison (Table 9).
//!
//! # Quickstart
//!
//! ```
//! use tabbin_core::config::ModelConfig;
//! use tabbin_core::variants::TabBiNFamily;
//! use tabbin_core::pretrain::PretrainOptions;
//! use tabbin_table::samples::figure1_table;
//!
//! let tables = vec![figure1_table()];
//! let cfg = ModelConfig::tiny();
//! let mut family = TabBiNFamily::new(&tables, cfg, 7);
//! family.pretrain(&tables, &PretrainOptions { steps: 3, ..Default::default() });
//! let emb = family.embed_table(&tables[0]);
//! assert!(!emb.is_empty());
//! ```

pub mod batch;
pub mod checkpoint;
pub mod composite;
pub mod config;
pub mod embedding;
pub mod encoding;
pub mod infer;
pub mod matcher;
pub mod model;
pub mod pretrain;
pub mod variants;

pub use batch::{BatchEncoder, EmbedSession};
pub use config::{AblationFlags, ModelConfig, SegmentKind};
pub use model::TabBiNModel;
pub use variants::TabBiNFamily;
