//! Experiment harnesses regenerating every figure and quantitative claim
//! of the paper.
//!
//! The paper (a model paper) has no numbered tables; its "evaluation" is
//! five conceptual figures plus comparative claims in §4–§6. Each claim
//! gets a harness here and a binary in `src/bin/` that prints the
//! corresponding table (see `EXPERIMENTS.md` at the workspace root for
//! the full index):
//!
//! | Binary | Paper anchor |
//! |---|---|
//! | `exp_fig1_shared_data` | Fig. 1 / §1 — shared data via broadcast |
//! | `exp_fig2_scenario` | Fig. 2 — causal broadcast scenario |
//! | `exp_fig3_graphs` | Fig. 3 — dependency graphs |
//! | `exp_fig4_total_order` | Fig. 4 / §5.2 — total ordering layer & group-size scaling |
//! | `exp_fig5_lock_arbitration` | Fig. 5 / §6.2 — LOCK/TFR arbitration |
//! | `exp_sec61_commutativity` | §6.1 — commutative mix (f̄ sweep), causal vs total order |
//! | `exp_sec4_stable_points` | §4/§5.1 — agreement without protocol messages |
//! | `exp_sec52_name_service` | §5.2 — application-specific inconsistency handling |
//! | `exp_sec51_card_game` | §5.1 — relaxed turn ordering concurrency |
//! | `ablation_semantic_vs_potential` | footnote 1 — OSend graphs vs vector clocks |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenarios;
pub mod table;
pub mod workload;

pub use scenarios::{run_causal_mix, run_sequenced_mix, run_unordered_mix, MixConfig, MixStats};
pub use table::Table;
pub use workload::{MixOp, MixWorkload};
