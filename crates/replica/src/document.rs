//! The conferencing shared document of §1/§5.2: *"a set of workstation
//! agents, each managing a local window on a design document, supporting
//! interactive sharing of the document by various conference
//! participants"*.
//!
//! Participants **annotate** lines concurrently — annotations accumulate
//! as a set, so they commute — while **edits** to a line's text are
//! non-commutative and act as synchronization messages. A `Commit`
//! operation closes a revision: because it is a stable point, every
//! participant sees the identical document at each commit.

use causal_clocks::MsgId;
use causal_core::delivery::Delivered;
use causal_core::stable::StablePoint;
use causal_core::stack::{App, Emitter};
use causal_core::statemachine::OpClass;
use std::collections::{BTreeMap, BTreeSet};

/// Operations on the shared design document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocOp {
    /// Attach a note to a line — commutative (annotations are a set).
    Annotate {
        /// Line the note refers to.
        line: u64,
        /// The note text.
        note: String,
    },
    /// Replace a line's text — non-commutative.
    EditLine {
        /// Line to replace.
        line: u64,
        /// New text.
        text: String,
    },
    /// Close a revision; every member snapshots the identical document.
    Commit,
}

impl DocOp {
    /// The §6 category of the operation.
    pub fn class(&self) -> OpClass {
        match self {
            DocOp::Annotate { .. } => OpClass::Commutative,
            DocOp::EditLine { .. } | DocOp::Commit => OpClass::NonCommutative,
        }
    }
}

/// The document value: line texts plus per-line annotation sets. The
/// annotation sets are keyed by `(author message, note)`, so replicas that
/// applied concurrent annotations in different orders still compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Document {
    /// Line number → current text.
    pub lines: BTreeMap<u64, String>,
    /// Line number → set of `(annotating message, note)`.
    pub annotations: BTreeMap<u64, BTreeSet<(MsgId, String)>>,
}

/// A conferencing-participant replica as an [`App`].
#[derive(Debug, Clone, Default)]
pub struct DocumentReplica {
    doc: Document,
    revisions: Vec<Document>,
    ops_applied: u64,
}

impl DocumentReplica {
    /// Creates an empty document replica.
    pub fn new() -> Self {
        DocumentReplica::default()
    }

    /// The current local document (may transiently differ between members
    /// only in annotation arrival order, never in content).
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// The snapshot taken at each stable point (each committed revision).
    pub fn revisions(&self) -> &[Document] {
        &self.revisions
    }

    /// Operations applied.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }
}

impl App for DocumentReplica {
    type Op = DocOp;

    fn on_deliver(&mut self, env: Delivered<'_, DocOp>, _out: &mut Emitter<DocOp>) {
        self.ops_applied += 1;
        match env.payload {
            DocOp::Annotate { line, note } => {
                self.doc
                    .annotations
                    .entry(*line)
                    .or_default()
                    .insert((env.id, note.clone()));
            }
            DocOp::EditLine { line, text } => {
                self.doc.lines.insert(*line, text.clone());
            }
            DocOp::Commit => {}
        }
    }

    fn on_stable_point(&mut self, _sp: StablePoint, _out: &mut Emitter<DocOp>) {
        self.revisions.push(self.doc.clone());
    }

    fn classify(&self, op: &DocOp) -> OpClass {
        op.class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_clocks::ProcessId;
    use causal_core::osend::{OSender, OccursAfter};

    fn annotate(line: u64, note: &str) -> DocOp {
        DocOp::Annotate {
            line,
            note: note.into(),
        }
    }

    fn edit(line: u64, text: &str) -> DocOp {
        DocOp::EditLine {
            line,
            text: text.into(),
        }
    }

    #[test]
    fn classes_match_the_model() {
        assert_eq!(annotate(1, "x").class(), OpClass::Commutative);
        assert_eq!(edit(1, "x").class(), OpClass::NonCommutative);
        assert_eq!(DocOp::Commit.class(), OpClass::NonCommutative);
    }

    #[test]
    fn concurrent_annotations_converge_regardless_of_order() {
        let mut tx0 = OSender::new(ProcessId::new(0));
        let mut tx1 = OSender::new(ProcessId::new(1));
        let a = tx0.osend(annotate(3, "check units"), OccursAfter::none());
        let b = tx1.osend(annotate(3, "cite source"), OccursAfter::none());

        let mut out = Emitter::new();
        let mut m1 = DocumentReplica::new();
        m1.on_deliver(Delivered::from_graph(&a), &mut out);
        m1.on_deliver(Delivered::from_graph(&b), &mut out);
        let mut m2 = DocumentReplica::new();
        m2.on_deliver(Delivered::from_graph(&b), &mut out);
        m2.on_deliver(Delivered::from_graph(&a), &mut out);

        assert_eq!(m1.document(), m2.document());
        assert_eq!(m1.document().annotations[&3].len(), 2);
    }

    #[test]
    fn edits_overwrite_lines() {
        let mut tx = OSender::new(ProcessId::new(0));
        let mut out = Emitter::new();
        let mut m = DocumentReplica::new();
        let e1 = tx.osend(edit(1, "draft"), OccursAfter::none());
        m.on_deliver(Delivered::from_graph(&e1), &mut out);
        let e2 = tx.osend(edit(1, "final"), OccursAfter::message(e1.id));
        m.on_deliver(Delivered::from_graph(&e2), &mut out);
        assert_eq!(m.document().lines[&1], "final");
        assert_eq!(m.ops_applied(), 2);
    }

    #[test]
    fn commit_snapshots_identical_documents() {
        use causal_core::stack::CausalNode;
        use causal_simnet::{LatencyModel, NetConfig, Simulation};
        let p = ProcessId::new;
        let nodes: Vec<CausalNode<DocumentReplica>> = (0..3)
            .map(|i| CausalNode::new(p(i), 3, DocumentReplica::new()))
            .collect();
        let mut sim = Simulation::new(
            nodes,
            NetConfig::with_latency(LatencyModel::uniform_micros(100, 3000)),
            21,
        );
        // Revision: edit -> ||{two annotations} -> commit.
        let e = sim
            .poke(p(0), |n, ctx| {
                n.osend(ctx, edit(1, "fig 1: topology"), OccursAfter::none())
            })
            .unwrap();
        sim.run_to_quiescence();
        let a1 = sim
            .poke(p(1), |n, ctx| {
                n.osend(ctx, annotate(1, "label the axes"), OccursAfter::message(e))
            })
            .unwrap();
        let a2 = sim
            .poke(p(2), |n, ctx| {
                n.osend(ctx, annotate(1, "use SI units"), OccursAfter::message(e))
            })
            .unwrap();
        sim.run_to_quiescence();
        sim.poke(p(0), |n, ctx| {
            n.osend(ctx, DocOp::Commit, OccursAfter::all([a1, a2]))
        });
        sim.run_to_quiescence();

        let revisions: Vec<_> = (0..3)
            .map(|i| sim.node(p(i)).app().revisions().to_vec())
            .collect();
        assert_eq!(revisions[0].len(), 2); // edit (stable) + commit
        assert_eq!(revisions[0], revisions[1]);
        assert_eq!(revisions[1], revisions[2]);
        let final_rev = revisions[0].last().unwrap();
        assert_eq!(final_rev.annotations[&1].len(), 2);
    }
}
