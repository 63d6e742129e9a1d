//! `hotpath-alloc`: no heap allocation on the flood path.
//!
//! The tests prove the steady state allocation-free only on the
//! schedules they happen to run (`RunnerStats.scratch_grows`,
//! `frame_copies == 0`); this pass proves it for *every* path: a
//! declared **hot-root set** — the reactor shard loop and its flush /
//! receive legs, the three delivery engines' drain paths and the PC
//! engine's link frame entry, reliable broadcast's data and ack
//! entries, the simulator's batched event loop, and the stability
//! tracker's per-delivery and per-report updates — is
//! closed over the call graph, and every statement reachable (CFG-wise)
//! inside that cone is scanned for heap-allocating expressions.
//!
//! Flagged shapes: collection constructors (`Vec::new`,
//! `X::with_capacity`, `VecDeque::new`, …), `Box::new` / `Arc::new` /
//! `Rc::new`, `String::from`, the `vec!` / `format!` macros, and the
//! allocating methods `.clone()` / `.to_vec()` / `.collect()` /
//! `.to_string()` / `.to_owned()`. `Arc::clone` / `Rc::clone` are
//! refcount bumps, not allocations, and are skipped.
//!
//! Allocations behind genuinely cold branches (error arms, startup-only
//! init, per-connection establishment) are classified in
//! `lint-allow.toml` with a reason each; anything else in the cone
//! fails the gate. Reachability inherits the call graph's documented
//! receiver-typing limits (`x.method()` on a non-`self` receiver stays
//! unresolved), so the cone under-approximates across trait objects —
//! the roots are therefore declared per concrete drain function, not
//! per trait.
//!
//! Every declared root is also *verified to exist*: if the file is in
//! the workspace but the function is gone (renamed, moved), that is a
//! finding too — a silently-empty root set would turn the gate off.

use crate::analysis::callgraph::CallGraph;
use crate::analysis::cfg::Cfg;
use crate::analysis::{Finding, Workspace};

/// A declared hot root: one concrete drain function.
#[derive(Debug, Clone, Copy)]
pub struct HotRoot {
    /// Workspace-relative file path.
    pub path: &'static str,
    /// `impl` owner, if the fn is a method.
    pub owner: Option<&'static str>,
    /// Function name.
    pub name: &'static str,
}

/// The flood-path roots: reactor shard loop + flush/receive legs, the
/// engines' drain paths, PC link frame ingress, reliable broadcast's
/// data and ack entries, the simulator's batched event loop, and the
/// stability tracker's `on_deliver`/`on_report` (mesh and tree).
pub const HOT_ROOTS: &[HotRoot] = &[
    HotRoot {
        path: "crates/net/src/reactor.rs",
        owner: Some("Shard"),
        name: "run",
    },
    HotRoot {
        path: "crates/net/src/reactor.rs",
        owner: Some("Shard"),
        name: "flush_conn",
    },
    HotRoot {
        path: "crates/net/src/reactor.rs",
        owner: None,
        name: "pump_inbound",
    },
    HotRoot {
        path: "crates/core/src/delivery/vector_engine.rs",
        owner: Some("CbcastEngine"),
        name: "on_receive_into",
    },
    HotRoot {
        path: "crates/core/src/delivery/graph_engine.rs",
        owner: Some("GraphDelivery"),
        name: "on_receive_into",
    },
    HotRoot {
        path: "crates/core/src/delivery/pcbcast/engine.rs",
        owner: Some("PcEngine"),
        name: "on_link_frame_into",
    },
    HotRoot {
        path: "crates/core/src/delivery/pcbcast/engine.rs",
        owner: Some("PcEngine"),
        name: "ingest",
    },
    // The link's frame ingress. The engine reaches it as
    // `link.on_frame(..)` on a local receiver, which the call graph
    // leaves unresolved, so it is declared on its own.
    HotRoot {
        path: "crates/core/src/delivery/pcbcast/link.rs",
        owner: Some("Link"),
        name: "on_frame",
    },
    // Full-mesh reliable broadcast: the clocked receive entry the stack
    // calls for every data copy, and the ack handler.
    HotRoot {
        path: "crates/core/src/rbcast.rs",
        owner: Some("ReliableBroadcast"),
        name: "on_data_at",
    },
    HotRoot {
        path: "crates/core/src/rbcast.rs",
        owner: Some("ReliableBroadcast"),
        name: "on_ack",
    },
    HotRoot {
        path: "crates/simnet/src/sim.rs",
        owner: Some("Simulation"),
        name: "run_events",
    },
    HotRoot {
        path: "crates/core/src/stability.rs",
        owner: Some("StabilityTracker"),
        name: "on_deliver",
    },
    HotRoot {
        path: "crates/core/src/stability.rs",
        owner: Some("StabilityTracker"),
        name: "on_report",
    },
    // The tree tracker's per-report update. `StabilityTracker` reaches it
    // through a non-`self` receiver, which the call graph leaves
    // unresolved, so it is declared on its own.
    HotRoot {
        path: "crates/core/src/stability.rs",
        owner: Some("Convergecast"),
        name: "on_report",
    },
];

const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "collect", "to_string", "to_owned"];
const ALLOC_MACROS: &[&str] = &["vec", "format"];
const CTOR_OWNERS: &[&str] = &[
    "Vec",
    "VecDeque",
    "BinaryHeap",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "String",
    "Box",
    "Arc",
    "Rc",
];

/// Resolves the declared roots against the workspace. Returns the root
/// function ids plus a finding per root whose file exists but whose
/// function does not (fixture workspaces without the file skip the root
/// silently).
pub fn resolve_roots(
    ws: &Workspace,
    graph: &CallGraph,
    roots: &[HotRoot],
    rule: &'static str,
) -> (Vec<usize>, Vec<Finding>) {
    let mut ids = Vec::new();
    let mut findings = Vec::new();
    for root in roots {
        let Some(_) = ws.file(root.path) else {
            continue;
        };
        let found: Vec<usize> = graph
            .named(root.name)
            .iter()
            .copied()
            .filter(|&id| {
                let fr = graph.fns[id];
                let file = &ws.files[fr.file];
                file.path == root.path && file.items.funcs[fr.func].owner.as_deref() == root.owner
            })
            .collect();
        if found.is_empty() {
            findings.push(Finding {
                rule,
                path: root.path.to_string(),
                line: 1,
                snippet: format!("missing hot root `{}`", root.qualified()),
                detail: format!(
                    "declared root `{}` not found in this file — the function was \
                     renamed or moved; update the `{rule}` root set in \
                     crates/xtask/src/analysis/ so the gate keeps covering its cone",
                    root.qualified()
                ),
            });
        }
        ids.extend(found);
    }
    (ids, findings)
}

impl HotRoot {
    fn qualified(&self) -> String {
        match self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// Runs the pass over the workspace.
pub fn check(ws: &Workspace, graph: &CallGraph) -> Vec<Finding> {
    check_with_roots(ws, graph, HOT_ROOTS)
}

/// Runs the pass with an explicit root set (unit tests inject theirs).
pub fn check_with_roots(ws: &Workspace, graph: &CallGraph, roots: &[HotRoot]) -> Vec<Finding> {
    let (root_ids, mut findings) = resolve_roots(ws, graph, roots, "hotpath-alloc");
    let hot = graph.reachable(root_ids);
    for &id in &hot {
        let fr = graph.fns[id];
        let file = &ws.files[fr.file];
        let f = &file.items.funcs[fr.func];
        let Some((open, close)) = f.body else {
            continue;
        };
        let qname = match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        };
        let cfg = Cfg::build(&file.lexed, open, close);
        findings.extend(cfg.reachable_facts(|stmt| {
            let mut out = Vec::new();
            for i in cfg.own_tokens(stmt) {
                if let Some(pat) = alloc_at(file, i) {
                    out.push(Finding {
                        rule: "hotpath-alloc",
                        path: file.path.clone(),
                        line: file.lexed.line_of(i),
                        snippet: file.lexed.line_text(i).trim().to_string(),
                        detail: format!(
                            "allocation `{pat}` in `{qname}` is reachable from the declared \
                             hot roots; hoist it off the flood path (scratch buffer, \
                             `*_into` variant) or add a reasoned baseline entry"
                        ),
                    });
                }
            }
            out
        }));
    }
    findings
}

/// If token `i` heads a heap-allocating expression, the pattern name.
fn alloc_at(file: &crate::analysis::SourceFile, i: usize) -> Option<String> {
    let lexed = &file.lexed;
    if lexed.kind_at(i) != Some(crate::analysis::lexer::TokKind::Ident) {
        return None;
    }
    let name = lexed.text(i);
    // Allocating macros: `vec![…]`, `format!(…)`.
    if lexed.text_at(i + 1) == "!" && ALLOC_MACROS.contains(&name) {
        return Some(format!("{name}!"));
    }
    if lexed.text_at(i + 1) != "(" {
        return None;
    }
    // Method call `recv.to_vec(…)`.
    if i > 0 && lexed.text(i - 1) == "." {
        if ALLOC_METHODS.contains(&name) {
            return Some(format!(".{name}()"));
        }
        return None;
    }
    // Qualified call `Owner::name(…)`.
    if i >= 3 && lexed.is_path_sep(i - 2) {
        let q = lexed.text(i - 3);
        if name == "clone" {
            return None; // Arc::clone / Rc::clone: refcount, not alloc
        }
        if name == "with_capacity" {
            return Some(format!("{q}::with_capacity"));
        }
        if name == "new" && CTOR_OWNERS.contains(&q) {
            return Some(format!("{q}::new"));
        }
        if name == "from" && q == "String" {
            return Some("String::from".to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::callgraph::CallGraph;
    use crate::analysis::Workspace;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        )
    }

    const ROOT: &[HotRoot] = &[HotRoot {
        path: "crates/net/src/reactor.rs",
        owner: Some("Shard"),
        name: "run",
    }];

    #[test]
    fn alloc_in_root_and_callee_is_flagged() {
        let w = ws(&[(
            "crates/net/src/reactor.rs",
            "impl Shard { fn run(&mut self) { let v = Vec::with_capacity(8); self.step(); } \
                          fn step(&mut self) { let s = x.to_vec(); } }",
        )]);
        let g = CallGraph::build(&w);
        let f = check_with_roots(&w, &g, ROOT);
        let pats: Vec<&str> = f
            .iter()
            .map(|f| f.detail.split('`').nth(1).unwrap())
            .collect();
        assert_eq!(pats, ["Vec::with_capacity", ".to_vec()"]);
    }

    #[test]
    fn alloc_outside_the_cone_is_ignored() {
        let w = ws(&[(
            "crates/net/src/reactor.rs",
            "impl Shard { fn run(&mut self) {} } \
             fn cold_setup() { let v = vec![0u8; 64]; }",
        )]);
        let g = CallGraph::build(&w);
        assert!(check_with_roots(&w, &g, ROOT).is_empty());
    }

    #[test]
    fn alloc_after_early_return_is_unreachable() {
        let w = ws(&[(
            "crates/net/src/reactor.rs",
            "impl Shard { fn run(&mut self) { return; let v = Vec::new(); } }",
        )]);
        let g = CallGraph::build(&w);
        assert!(check_with_roots(&w, &g, ROOT).is_empty());
    }

    #[test]
    fn arc_clone_is_not_an_allocation() {
        let w = ws(&[(
            "crates/net/src/reactor.rs",
            "impl Shard { fn run(&mut self) { let a = Arc::clone(&self.body); } }",
        )]);
        let g = CallGraph::build(&w);
        assert!(check_with_roots(&w, &g, ROOT).is_empty());
    }

    #[test]
    fn missing_root_in_present_file_is_a_finding() {
        let w = ws(&[(
            "crates/net/src/reactor.rs",
            "impl Shard { fn renamed() {} }",
        )]);
        let g = CallGraph::build(&w);
        let f = check_with_roots(&w, &g, ROOT);
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("not found"), "{:?}", f[0]);
    }

    #[test]
    fn absent_file_skips_the_root() {
        let w = ws(&[("crates/other/src/lib.rs", "fn x() {}")]);
        let g = CallGraph::build(&w);
        assert!(check_with_roots(&w, &g, ROOT).is_empty());
    }
}
