//! Replicated data-access protocols built on the causal-broadcast model of
//! Ravindran & Shah (ICDCS 1994).
//!
//! Where [`causal-core`](causal_core) provides the *model* — `OSend`,
//! dependency graphs, stable points — this crate provides the paper's
//! *protocols* and the applications that motivate them:
//!
//! | Paper section | Module | What it implements |
//! |---|---|---|
//! | §6.1 code skeleton | [`frontend`] | The client front-end manager: `Ncid`/`{Cid}` tracking, cycle ordering `rqst_nc(r-1) → ‖{rqst_c} → rqst_nc(r)` |
//! | §2.2, §5.1 | [`counter`] | Replicated integer with commutative inc/dec and ordered reads |
//! | §5.2 | [`registry`] | Name service: spontaneous upd/qry, context-carrying queries, detect-and-discard inconsistency handling |
//! | §1, §5.2 | [`document`] | Conferencing document: commutative annotations, ordered edits |
//! | §1, §5.1 | [`fileservice`] | Distributed file service with item-scoped commutativity |
//! | §5.1 | [`cardgame`] | Multiplayer card game with relaxed turn ordering |
//! | §6.2, Fig. 5 | [`lock`] | Decentralized lock arbitration: totally ordered `LOCK`/`TFR` cycles |
//! | baselines | [`baseline`] | Sequencer and deterministic-merge total order, and unordered replicas, for comparison |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cardgame;
pub mod counter;
pub mod document;
pub mod fileservice;
pub mod frontend;
pub mod lock;
pub mod registry;
