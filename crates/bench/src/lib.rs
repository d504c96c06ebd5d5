//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§4).
//!
//! Each `exp_*` binary in `src/bin/` is a thin wrapper over a module in
//! [`experiments`]; the logic lives here so integration tests can exercise
//! it and `all_experiments` can compose a full run. Absolute numbers differ
//! from the paper: DESIGN.md at the repository root states what is
//! synthetic, what is scaled and what is a stand-in, and so what each
//! comparison here can and cannot show.

pub mod bundle;
pub mod experiments;
pub mod harness;

pub use bundle::{Bundle, ExpConfig};
pub use harness::{
    eval_cc, eval_cc_batch, eval_ec, eval_tc, eval_tc_batch, format_table, ColumnRef,
};
