//! Evaluation substrate for the TabBiN reproduction.
//!
//! * [`metrics`] — AP@K / MAP@K / MRR@K (the paper reports MAP@20 and
//!   MRR@20), precision/recall/F1.
//! * [`similarity`] — cosine similarity and ranking.
//! * [`clustering`] — the paper's retrieval-style clustering protocol: rank
//!   the corpus against a query (or a topic centroid) and take the top-20 as
//!   the cluster. Ranking runs through a `tabbin_index::ShardedStore` top-k
//!   instead of a full cosine pass per query; the LSH blocking that avoids
//!   the quadratic all-pairs comparison in column clustering (§4.1) is the
//!   store's `LshCandidates` source
//!   ([`evaluate_retrieval_blocked`]).

pub mod clustering;
pub mod metrics;
pub mod similarity;

pub use clustering::{evaluate_retrieval, evaluate_retrieval_blocked, RetrievalEval};
pub use metrics::{ap_at_k, f1_score, map_at_k, mrr_at_k, PrecisionRecall};
pub use similarity::{center, cosine, normalize, rank_by_cosine, try_cosine};
