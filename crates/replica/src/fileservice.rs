//! The distributed file service of §1: *"a group of servers, with each
//! server maintaining a local copy of files and exchanging messages with
//! other servers in the group to update the various file copies in
//! response to client requests."*
//!
//! The service also exercises the paper's **item-scoped** commutativity
//! (§5.1): *"This condition relates to decomposition of the data X into
//! distinct items and scoping out the effects of messages on these items.
//! It also subsumes the case where messages affect disjoint subsets of
//! X."* Appends commute with everything commutative; whole-file writes
//! commute with operations on *other* files but conflict on the same
//! file — knowledge expressed through
//! [`Operation::commutes_with`]
//! (re-exported from [`causal_core::statemachine`])
//! and validated by `causal_verify::check::commutativity_declarations_sound`.

use causal_core::delivery::Delivered;
use causal_core::stable::StablePoint;
use causal_core::stack::{App, Emitter};
use causal_core::statemachine::{OpClass, Operation};
use std::collections::{BTreeMap, BTreeSet};

/// File-service operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileOp {
    /// Replace a file's base content — non-commutative *per file*.
    Write {
        /// File path.
        path: String,
        /// New base content.
        content: String,
    },
    /// Add a log line to a file — commutative (lines form a set; `tag`
    /// makes each append unique regardless of processing order).
    Append {
        /// File path.
        path: String,
        /// Unique tag chosen by the appender (e.g. `(client, seq)` hash).
        tag: u64,
        /// The appended line.
        line: String,
    },
    /// Remove a file — non-commutative per file.
    Delete {
        /// File path.
        path: String,
    },
}

impl FileOp {
    /// The file the operation touches.
    pub fn path(&self) -> &str {
        match self {
            FileOp::Write { path, .. } | FileOp::Append { path, .. } | FileOp::Delete { path } => {
                path
            }
        }
    }

    /// The coarse §6 class (appends commutative, the rest not).
    pub fn class(&self) -> OpClass {
        match self {
            FileOp::Append { .. } => OpClass::Commutative,
            _ => OpClass::NonCommutative,
        }
    }
}

/// One replicated file: base content plus the set of appended lines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct File {
    /// Content set by the latest `Write`.
    pub content: String,
    /// Appended lines, keyed by the appender's unique tag (set semantics:
    /// identical at every replica whatever order appends arrived in).
    pub appends: BTreeSet<(u64, String)>,
}

/// The replicated file-system value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileSystem {
    /// Path → file.
    pub files: BTreeMap<String, File>,
}

impl Operation<FileSystem> for FileOp {
    fn apply(&self, fs: &mut FileSystem) {
        match self {
            FileOp::Write { path, content } => {
                fs.files.entry(path.clone()).or_default().content = content.clone();
            }
            FileOp::Append { path, tag, line } => {
                fs.files
                    .entry(path.clone())
                    .or_default()
                    .appends
                    .insert((*tag, line.clone()));
            }
            FileOp::Delete { path } => {
                fs.files.remove(path);
            }
        }
    }

    fn is_commutative(&self) -> bool {
        self.class() == OpClass::Commutative
    }

    /// Item-scoped rule (§5.1): operations on *disjoint files* always
    /// commute; on the same file only append/append pairs do. (Append
    /// does not commute with Delete of the same file: delete drops the
    /// appended lines, so the orders differ.)
    fn commutes_with(&self, other: &Self) -> bool {
        if self.path() != other.path() {
            return true;
        }
        matches!(
            (self, other),
            (FileOp::Append { .. }, FileOp::Append { .. })
        )
    }
}

/// A file-server replica as an [`App`].
#[derive(Debug, Clone, Default)]
pub struct FileServer {
    fs: FileSystem,
    snapshots: Vec<FileSystem>,
    ops_applied: u64,
}

impl FileServer {
    /// Creates an empty file server.
    pub fn new() -> Self {
        FileServer::default()
    }

    /// The current local file system.
    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    /// Snapshots taken at stable points (agreed at every server).
    pub fn snapshots(&self) -> &[FileSystem] {
        &self.snapshots
    }

    /// Operations applied.
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Reads a file's assembled content: base content then appended lines
    /// in tag order.
    pub fn read(&self, path: &str) -> Option<String> {
        let file = self.fs.files.get(path)?;
        let mut out = file.content.clone();
        for (_, line) in &file.appends {
            out.push('\n');
            out.push_str(line);
        }
        Some(out)
    }
}

impl App for FileServer {
    type Op = FileOp;

    fn on_deliver(&mut self, env: Delivered<'_, FileOp>, _out: &mut Emitter<FileOp>) {
        env.payload.apply(&mut self.fs);
        self.ops_applied += 1;
    }

    fn on_stable_point(&mut self, _sp: StablePoint, _out: &mut Emitter<FileOp>) {
        self.snapshots.push(self.fs.clone());
    }

    fn classify(&self, op: &FileOp) -> OpClass {
        op.class()
    }
}

/// Convenience constructor for a unique append tag from `(author, seq)`.
pub fn append_tag(author: u32, seq: u64) -> u64 {
    ((author as u64) << 40) | seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_clocks::ProcessId;
    use causal_core::osend::OccursAfter;
    use causal_core::stack::CausalNode;
    use causal_core::statemachine::is_transition_preserving;
    use causal_simnet::{LatencyModel, NetConfig, Simulation};
    use causal_verify::check::commutativity_declarations_sound;

    fn write(path: &str, content: &str) -> FileOp {
        FileOp::Write {
            path: path.into(),
            content: content.into(),
        }
    }

    fn append(path: &str, tag: u64, line: &str) -> FileOp {
        FileOp::Append {
            path: path.into(),
            tag,
            line: line.into(),
        }
    }

    #[test]
    fn apply_semantics() {
        let mut fs = FileSystem::default();
        write("a.txt", "base").apply(&mut fs);
        append("a.txt", 1, "l1").apply(&mut fs);
        append("a.txt", 2, "l2").apply(&mut fs);
        assert_eq!(fs.files["a.txt"].content, "base");
        assert_eq!(fs.files["a.txt"].appends.len(), 2);
        FileOp::Delete {
            path: "a.txt".into(),
        }
        .apply(&mut fs);
        assert!(fs.files.is_empty());
    }

    #[test]
    fn item_scoped_commutativity_rules() {
        // Different files always commute.
        assert!(write("a", "x").commutes_with(&write("b", "y")));
        assert!(write("a", "x").commutes_with(&FileOp::Delete { path: "b".into() }));
        // Same file: only append/append.
        assert!(append("a", 1, "l").commutes_with(&append("a", 2, "m")));
        assert!(!write("a", "x").commutes_with(&write("a", "y")));
        assert!(!append("a", 1, "l").commutes_with(&FileOp::Delete { path: "a".into() }));
    }

    #[test]
    fn declarations_are_sound_against_semantics() {
        let sample = vec![
            write("a", "1"),
            write("b", "2"),
            append("a", 1, "x"),
            append("a", 2, "y"),
            append("b", 3, "z"),
            FileOp::Delete { path: "b".into() },
            write("a", "3"),
        ];
        assert!(commutativity_declarations_sound(&FileSystem::default(), &sample).is_ok());
    }

    #[test]
    fn disjoint_item_sets_are_transition_preserving() {
        // Writes to three different files: §5.1's disjoint-subset case.
        let ops = [write("a", "1"), write("b", "2"), write("c", "3")];
        assert!(is_transition_preserving(&FileSystem::default(), &ops, 100));
        // Two writes to the same file are not.
        let conflict = [write("a", "1"), write("a", "2")];
        assert!(!is_transition_preserving(
            &FileSystem::default(),
            &conflict,
            100
        ));
    }

    #[test]
    fn replicated_file_service_converges() {
        let p = ProcessId::new;
        let n = 3;
        let nodes: Vec<CausalNode<FileServer>> = (0..n)
            .map(|i| CausalNode::new(p(i as u32), n, FileServer::new()))
            .collect();
        let cfg = NetConfig::with_latency(LatencyModel::uniform_micros(100, 3000));
        let mut sim = Simulation::new(nodes, cfg, 31);

        // Cycle: write (sync) -> concurrent appends -> write (sync).
        let w = sim
            .poke(p(0), |node, ctx| {
                node.osend(ctx, write("log.txt", "boot"), OccursAfter::none())
            })
            .unwrap();
        sim.run_to_quiescence();
        let mut appends = Vec::new();
        for i in 0..n as u32 {
            appends.push(
                sim.poke(p(i), move |node, ctx| {
                    let op = append("log.txt", append_tag(i, 1), &format!("entry from p{i}"));
                    node.osend(ctx, op, OccursAfter::message(w))
                })
                .unwrap(),
            );
        }
        sim.run_to_quiescence();
        sim.poke(p(0), |node, ctx| {
            node.osend(
                ctx,
                write("done.txt", "eof"),
                OccursAfter::all(appends.clone()),
            )
        });
        sim.run_to_quiescence();

        let reference = sim.node(p(0)).app().fs().clone();
        for i in 1..n as u32 {
            assert_eq!(sim.node(p(i)).app().fs(), &reference);
        }
        let content = sim.node(p(1)).app().read("log.txt").unwrap();
        assert!(content.starts_with("boot\n"));
        assert_eq!(content.lines().count(), 4);
        // Snapshots at both sync writes agree everywhere.
        let snaps = sim.node(p(0)).app().snapshots().to_vec();
        assert_eq!(snaps.len(), 2);
        for i in 1..n as u32 {
            assert_eq!(sim.node(p(i)).app().snapshots(), &snaps[..]);
        }
    }

    #[test]
    fn append_tags_are_unique_per_author_seq() {
        use std::collections::HashSet;
        let mut tags = HashSet::new();
        for a in 0..8u32 {
            for s in 0..64u64 {
                assert!(tags.insert(append_tag(a, s)));
            }
        }
    }
}
