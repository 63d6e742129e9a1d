//! `bounded-growth`: long-lived protocol state must shrink.
//!
//! The paper's resource argument (and ROADMAP's bounded-state item) is
//! that causal stability lets a replica *discard* buffered messages and
//! bookkeeping — so the gate declares the structs that constitute
//! long-lived protocol state ([`STATE_STRUCTS`]: the delivery engines,
//! the stack's membership state and the view-change machine, stability
//! bookkeeping, the net layer's per-link/per-shard tables, and the
//! buckets of the latency histogram every stack records into) and
//! requires every growable
//! collection field in them to have a **shrink site** (`remove`,
//! `clear`, `drain`, `truncate`, `split_off`, `pop*`, `retain`,
//! `take`, an `IdWindow`'s `advance` / `compact` / `pop_next`, …) that is
//! *reachable from a declared stability / ack / GC / teardown root*
//! ([`GC_ROOTS`]), closed over the call graph.
//!
//! Three finding shapes, most severe first:
//!
//! 1. the struct itself is gone from its declared file — the gate went
//!    blind, same convention as the hot-root existence check;
//! 2. a container field has grow sites (or no sites at all) and **no
//!    shrink site anywhere** — monotone state. Deliberately monotone
//!    fields (a watermark map keyed by member, a fixed-size slot
//!    table) carry reasoned `lint-allow.toml` entries;
//! 3. a shrink site exists but **no shrink site's function is in the
//!    GC cone** — the cleanup code is dead weight unless something on
//!    a stability/teardown path actually calls it.
//!
//! Roots are declared per concrete shrink-owning function (not per
//! trait): the call graph leaves non-`self` method receivers
//! unresolved, so an edge from e.g. `Shard::run` into
//! `LinkState::drain_queue_into` does not exist — the root set names
//! the functions the runtime demonstrably drives (engine `compact` /
//! `on_ack` / `on_members` hooks, the conn-table drain/abandon pair,
//! shard teardown and timer firing).

use crate::analysis::callgraph::CallGraph;
use crate::analysis::fields::{FieldKind, FieldTable};
use crate::analysis::hotpath::{resolve_roots, HotRoot};
use crate::analysis::{Finding, Workspace};

const RULE: &str = "bounded-growth";

/// One declared long-lived state struct.
#[derive(Debug, Clone, Copy)]
pub struct StateStruct {
    /// Workspace-relative file path.
    pub path: &'static str,
    /// Struct name.
    pub name: &'static str,
}

/// The long-lived protocol state: engines, stack membership and the
/// view-change machine, stability bookkeeping, the net layer's
/// link/slot tables, and the latency histogram's buckets.
pub const STATE_STRUCTS: &[StateStruct] = &[
    StateStruct {
        path: "crates/core/src/delivery/pcbcast/engine.rs",
        name: "PcEngine",
    },
    StateStruct {
        path: "crates/core/src/delivery/pcbcast/link.rs",
        name: "Link",
    },
    StateStruct {
        path: "crates/core/src/stack.rs",
        name: "ProtocolStack",
    },
    StateStruct {
        path: "crates/core/src/stack.rs",
        name: "MembershipState",
    },
    StateStruct {
        path: "crates/membership/src/manager.rs",
        name: "ViewManager",
    },
    StateStruct {
        path: "crates/core/src/stability.rs",
        name: "StabilityTracker",
    },
    StateStruct {
        path: "crates/core/src/delivery/graph_engine.rs",
        name: "GraphDelivery",
    },
    StateStruct {
        path: "crates/core/src/rbcast.rs",
        name: "ReliableBroadcast",
    },
    StateStruct {
        path: "crates/net/src/conn.rs",
        name: "LinkState",
    },
    StateStruct {
        path: "crates/net/src/conn.rs",
        name: "ConnectionManager",
    },
    StateStruct {
        path: "crates/net/src/reactor.rs",
        name: "Shard",
    },
    // Simnet's `Histogram` (every stack's latency record) keeps its
    // samples here; the histogram itself holds only the boxed buckets.
    StateStruct {
        path: "crates/simnet/src/metrics.rs",
        name: "Buckets",
    },
];

/// The stability / ack / GC / teardown roots the shrink sites must be
/// reachable from.
pub const GC_ROOTS: &[HotRoot] = &[
    HotRoot {
        path: "crates/core/src/stack.rs",
        owner: Some("ProtocolStack"),
        name: "compact_now",
    },
    HotRoot {
        path: "crates/core/src/stack.rs",
        owner: Some("ProtocolStack"),
        name: "on_installed",
    },
    // A view install: the membership machine stops watching removed
    // members and drops the acks of the change it completes.
    HotRoot {
        path: "crates/membership/src/manager.rs",
        owner: Some("ViewManager"),
        name: "install",
    },
    HotRoot {
        path: "crates/core/src/delivery/pcbcast/engine.rs",
        owner: Some("PcEngine"),
        name: "ingest",
    },
    HotRoot {
        path: "crates/core/src/delivery/pcbcast/engine.rs",
        owner: Some("PcEngine"),
        name: "on_members",
    },
    HotRoot {
        path: "crates/core/src/delivery/pcbcast/engine.rs",
        owner: Some("PcEngine"),
        name: "on_link_frame_into",
    },
    HotRoot {
        path: "crates/core/src/delivery/pcbcast/link.rs",
        owner: Some("Link"),
        name: "on_ack",
    },
    HotRoot {
        path: "crates/core/src/delivery/pcbcast/link.rs",
        owner: Some("Link"),
        name: "on_frame",
    },
    HotRoot {
        path: "crates/core/src/stability.rs",
        owner: Some("StabilityTracker"),
        name: "on_deliver",
    },
    HotRoot {
        path: "crates/core/src/delivery/graph_engine.rs",
        owner: Some("GraphDelivery"),
        name: "compact",
    },
    HotRoot {
        path: "crates/core/src/delivery/graph_engine.rs",
        owner: Some("GraphDelivery"),
        name: "on_receive_timed",
    },
    HotRoot {
        path: "crates/core/src/rbcast.rs",
        owner: Some("ReliableBroadcast"),
        name: "compact",
    },
    HotRoot {
        path: "crates/core/src/rbcast.rs",
        owner: Some("ReliableBroadcast"),
        name: "on_ack",
    },
    HotRoot {
        path: "crates/core/src/rbcast.rs",
        owner: Some("ReliableBroadcast"),
        name: "remove_peer",
    },
    // The ack tick: it drains the (sender, origin) pairs owed an ack,
    // and the stack's per-period ack buffer with them.
    HotRoot {
        path: "crates/core/src/rbcast.rs",
        owner: Some("ReliableBroadcast"),
        name: "take_acks",
    },
    HotRoot {
        path: "crates/core/src/stack.rs",
        owner: Some("ProtocolStack"),
        name: "send_acks",
    },
    HotRoot {
        path: "crates/net/src/conn.rs",
        owner: Some("LinkState"),
        name: "drain_queue_into",
    },
    HotRoot {
        path: "crates/net/src/conn.rs",
        owner: Some("LinkState"),
        name: "abandon_queue",
    },
    HotRoot {
        path: "crates/net/src/reactor.rs",
        owner: Some("Shard"),
        name: "drop_node_conns",
    },
    HotRoot {
        path: "crates/net/src/reactor.rs",
        owner: Some("Shard"),
        name: "teardown_all",
    },
    HotRoot {
        path: "crates/net/src/reactor.rs",
        owner: Some("Shard"),
        name: "fire_timers",
    },
];

/// Runs the pass over the declared structs and roots.
pub fn check(ws: &Workspace, graph: &CallGraph, fields: &FieldTable) -> Vec<Finding> {
    check_with(ws, graph, fields, STATE_STRUCTS, GC_ROOTS)
}

/// The pass with injectable struct/root sets, for fixture tests.
fn check_with(
    ws: &Workspace,
    graph: &CallGraph,
    fields: &FieldTable,
    structs: &[StateStruct],
    roots: &[HotRoot],
) -> Vec<Finding> {
    let (root_ids, mut findings) = resolve_roots(ws, graph, roots, RULE);
    let cone = graph.reachable(root_ids.iter().copied());
    // Map (file, func-in-file) → call-graph id, for shrink-site lookup.
    let mut graph_id = std::collections::HashMap::new();
    for (id, fr) in graph.fns.iter().enumerate() {
        graph_id.insert((fr.file, fr.func), id);
    }
    for decl in structs {
        let Some(fi) = ws.files.iter().position(|f| f.path == decl.path) else {
            continue; // fixture workspace without the file
        };
        let Some(sd) = fields.struct_in(fi, decl.name) else {
            findings.push(Finding {
                rule: RULE,
                path: decl.path.to_string(),
                line: 1,
                snippet: format!("struct {}", decl.name),
                detail: format!(
                    "declared state struct `{}` not found in this file — it was renamed or \
                     moved; update the bounded-growth struct set in \
                     crates/xtask/src/analysis/growth.rs so its fields stay gated",
                    decl.name
                ),
            });
            continue;
        };
        let crate_name = ws.files[fi].crate_name.clone();
        for field in &sd.fields {
            let FieldKind::Container(container) = field.kind else {
                continue;
            };
            // Ops attributed to this struct's field: same crate, same
            // field name — except a `self.` op inside another struct's
            // impl that declares the field itself belongs there alone.
            let ops: Vec<_> = fields
                .ops
                .iter()
                .filter(|o| {
                    o.field == field.name
                        && ws.files[o.file].crate_name == crate_name
                        && !(o.via_self
                            && o.fn_owner.as_deref().is_some_and(|owner| {
                                owner != sd.name
                                    && fields.owner_declares(ws, owner, &crate_name, &field.name)
                            }))
                })
                .collect();
            let shrinks: Vec<_> = ops.iter().filter(|o| o.shrinks()).collect();
            if shrinks.is_empty() {
                findings.push(Finding {
                    rule: RULE,
                    path: decl.path.to_string(),
                    line: field.line,
                    snippet: ws.files[fi]
                        .lexed
                        .line_text(field_tok(ws, fi, field.line))
                        .trim()
                        .to_string(),
                    detail: format!(
                        "`{}.{}` ({}<…>) never shrinks: {} grow site(s), no \
                         remove/clear/drain/pop/retain anywhere in crate `{}` — long-lived \
                         protocol state must be compacted at stability, acked, or torn down \
                         (ROADMAP's bounded-state item); if this field is deliberately \
                         monotone, say why in lint-allow.toml",
                        sd.name,
                        field.name,
                        container,
                        ops.iter().filter(|o| o.grows()).count(),
                        crate_name,
                    ),
                });
                continue;
            }
            let rooted = shrinks.iter().any(|o| {
                graph_id
                    .get(&(o.file, o.fn_idx))
                    .is_some_and(|id| cone.contains(id))
            });
            if !rooted {
                let s = shrinks[0];
                findings.push(Finding {
                    rule: RULE,
                    path: decl.path.to_string(),
                    line: field.line,
                    snippet: ws.files[fi]
                        .lexed
                        .line_text(field_tok(ws, fi, field.line))
                        .trim()
                        .to_string(),
                    detail: format!(
                        "`{}.{}` shrinks only in `{}` ({}:{}), which is not reachable from any \
                         declared GC root — the cleanup is dead unless a stability/ack/teardown \
                         path calls it; add the caller to the bounded-growth root set or wire \
                         the shrink into one",
                        sd.name, field.name, s.in_fn, ws.files[s.file].path, s.line,
                    ),
                });
            }
        }
    }
    findings
}

/// First token on `line` in file `fi` (for snippet extraction via
/// `line_text`, which takes a token index).
fn field_tok(ws: &Workspace, fi: usize, line: usize) -> usize {
    let lexed = &ws.files[fi].lexed;
    (0..lexed.len())
        .find(|&i| lexed.line_of(i) == line)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::fields::FieldTable;
    use crate::analysis::Workspace;

    const PATH: &str = "crates/core/src/delivery/pcbcast/engine.rs";

    fn run(src: &str, structs: &[StateStruct], roots: &[HotRoot]) -> Vec<Finding> {
        let ws = Workspace::from_sources(vec![(PATH.into(), src.into())]);
        let graph = CallGraph::build(&ws);
        let fields = FieldTable::build(&ws);
        check_with(&ws, &graph, &fields, structs, roots)
    }

    const STRUCTS: &[StateStruct] = &[StateStruct {
        path: "crates/core/src/delivery/pcbcast/engine.rs",
        name: "PcEngine",
    }];
    const ROOTS: &[HotRoot] = &[HotRoot {
        path: "crates/core/src/delivery/pcbcast/engine.rs",
        owner: Some("PcEngine"),
        name: "ingest",
    }];

    #[test]
    fn grow_only_field_is_a_finding() {
        let f = run(
            "struct PcEngine { watermark: BTreeMap<u64, u64> }\n\
             impl PcEngine { fn ingest(&mut self) { self.watermark.insert(1, 2); } }",
            STRUCTS,
            ROOTS,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].detail.contains("never shrinks"), "{}", f[0].detail);
    }

    #[test]
    fn unrooted_shrink_is_a_finding() {
        let f = run(
            "struct PcEngine { gate: BTreeMap<u64, u64> }\n\
             impl PcEngine {\n\
               fn ingest(&mut self) { self.gate.insert(1, 2); }\n\
               fn cleanup(&mut self) { self.gate.clear(); }\n\
             }",
            STRUCTS,
            ROOTS,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].detail
                .contains("not reachable from any declared GC root"),
            "{}",
            f[0].detail
        );
    }

    #[test]
    fn rooted_shrink_is_clean() {
        let f = run(
            "struct PcEngine { gate: BTreeMap<u64, u64> }\n\
             impl PcEngine {\n\
               fn ingest(&mut self) { self.gate.insert(1, 2); self.release(); }\n\
               fn release(&mut self) { self.gate.remove(&1); }\n\
             }",
            STRUCTS,
            ROOTS,
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn missing_struct_is_a_finding() {
        let f = run(
            "struct SomethingElse { v: Vec<u64> }\n\
             impl PcEngine { fn ingest(&mut self) {} }",
            STRUCTS,
            ROOTS,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].detail.contains("not found in this file"),
            "{}",
            f[0].detail
        );
    }

    #[test]
    fn missing_root_is_a_finding() {
        let f = run(
            "struct PcEngine { n: u64 }\nfn unrelated() {}",
            STRUCTS,
            ROOTS,
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].detail.contains("declared root"), "{}", f[0].detail);
    }
}
