//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§4).
//!
//! [`experiments`] holds one module per table or figure, the registry of
//! them and the driver that runs a selection of them, training each model
//! once per run; the one binary, `all_experiments`, is a thin wrapper over
//! it (`--only table04,figure2` selects). Absolute numbers differ from the
//! paper: DESIGN.md at the repository root states what is synthetic, what
//! is scaled and what is a stand-in, and so what each comparison here can
//! and cannot show.

pub mod bundle;
pub mod experiments;
pub mod harness;

pub use bundle::{Bundle, ExpConfig};
pub use harness::{
    eval_cc, eval_cc_batch, eval_ec, eval_tc, eval_tc_batch, format_table, ColumnRef,
};
