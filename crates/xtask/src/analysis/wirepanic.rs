//! Wire-panic audit: no panic site may be reachable from a decode entry
//! point that is fed attacker-controlled bytes.
//!
//! The transport hands `RecvBuf` raw TCP bytes and the codec in
//! `core/wire.rs` parses them; a reachable `unwrap`, slice index, or
//! unchecked length arithmetic in that cone is a remote crash, which in
//! this protocol also kills liveness for the whole view (the failure
//! detector will eventually excise the node, but §4's flush protocol
//! stalls until it does). So the audit walks the call graph from every
//! decode entry point and flags, anywhere in the reachable cone:
//!
//! - `.unwrap(` / `.expect(` / `.unwrap_unchecked(`;
//! - panic-family macros (`panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!`, the `assert*!`/`debug_assert*!` families);
//! - indexing/slicing whose index is not a literal (`buf[4]` on a
//!   fixed-size array is checked at the type level; `buf[..n]` is not);
//! - binary `+`/`*` over runtime values — length arithmetic that can
//!   overflow in debug builds and wrap into a bad slice bound in
//!   release.
//!
//! Entry points are the decode-shaped functions of the two wire files
//! ([`ENTRY_FILES`]): names containing `decode`/`parse`, starting with
//! `get_`, or in the known set (`take`, `from_wire`, `next_frame`,
//! `try_pop`). Intentional exceptions (e.g. an assert shielded by an
//! earlier length check) are baselined in `lint-allow.toml` with the
//! shielding argument written down.

use crate::analysis::callgraph::{CallGraph, KEYWORDS};
use crate::analysis::lexer::TokKind;
use crate::analysis::parser;
use crate::analysis::{Finding, SourceFile, Workspace};
use std::collections::HashMap;

/// Files whose decode-shaped functions are audit roots.
pub const ENTRY_FILES: &[&str] = &[
    "crates/core/src/wire.rs",
    "crates/core/src/delivery/pcbcast/codec.rs",
    "crates/net/src/frame.rs",
    // The reactor's zero-copy receive path: `RecvBuf::next_frame`
    // borrow-decodes frames straight out of pooled socket buffers.
    "crates/net/src/buffer.rs",
];

/// Macros that panic (or abort the process) when hit.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Does this function name mark a decode entry point?
fn is_entry_name(name: &str) -> bool {
    name.contains("decode")
        || name.contains("parse")
        || name.starts_with("get_")
        || matches!(name, "take" | "from_wire" | "next_frame" | "try_pop")
}

/// Runs the audit: find entry points, walk the call graph, scan every
/// reachable body.
pub fn audit(ws: &Workspace, graph: &CallGraph) -> Vec<Finding> {
    let mut roots = Vec::new();
    for (id, fr) in graph.fns.iter().enumerate() {
        let file = &ws.files[fr.file];
        if !ENTRY_FILES.contains(&file.path.as_str()) {
            continue;
        }
        if is_entry_name(&file.items.funcs[fr.func].name) {
            roots.push(id);
        }
    }
    // BFS that remembers, for each reached function, which entry point
    // first reached it and through which direct caller — the finding
    // text cites that witness path.
    let mut how: HashMap<usize, (usize, Option<usize>)> = HashMap::new();
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for &r in &roots {
        how.entry(r).or_insert((r, None));
        queue.push_back(r);
    }
    while let Some(id) = queue.pop_front() {
        let (root, _) = how[&id];
        for c in &graph.calls[id] {
            how.entry(c.callee).or_insert_with(|| {
                queue.push_back(c.callee);
                (root, Some(id))
            });
        }
    }
    let fn_name = |id: usize| -> &str {
        let fr = graph.fns[id];
        &ws.files[fr.file].items.funcs[fr.func].name
    };
    let mut ids: Vec<usize> = how.keys().copied().collect();
    ids.sort_unstable();
    let mut findings = Vec::new();
    for id in ids {
        let (root, parent) = how[&id];
        let fr = graph.fns[id];
        let file = &ws.files[fr.file];
        let f = &file.items.funcs[fr.func];
        let why = if root == id {
            format!("in decode entry point `{}` fed raw wire bytes", f.name)
        } else {
            match parent {
                Some(p) if p != root => format!(
                    "reachable from decode entry `{}` (via `{}`)",
                    fn_name(root),
                    fn_name(p)
                ),
                _ => format!("reachable from decode entry `{}`", fn_name(root)),
            }
        };
        if let Some((open, close)) = f.body {
            scan_body(file, open, close, &why, &mut findings);
        }
    }
    findings
}

fn is_valueish(file: &SourceFile, i: usize) -> bool {
    match file.lexed.kind_at(i) {
        Some(TokKind::Num) => true,
        Some(TokKind::Ident) => !KEYWORDS.contains(&file.lexed.text(i)),
        _ => matches!(file.lexed.text_at(i), ")" | "]"),
    }
}

fn scan_body(file: &SourceFile, open: usize, close: usize, why: &str, out: &mut Vec<Finding>) {
    let lexed = &file.lexed;
    let push = |out: &mut Vec<Finding>, tok: usize, what: String| {
        out.push(Finding {
            rule: "wire-panic",
            path: file.path.clone(),
            line: lexed.line_of(tok),
            snippet: lexed.line_text(tok).to_string(),
            detail: format!("{what} {why}"),
        });
    };
    let mut i = open;
    while i <= close.min(lexed.len().saturating_sub(1)) {
        let t = lexed.text(i);
        // `.unwrap(` family.
        if t == "."
            && matches!(
                lexed.text_at(i + 1),
                "unwrap" | "expect" | "unwrap_unchecked"
            )
            && lexed.text_at(i + 2) == "("
        {
            push(out, i + 1, format!("`.{}()`", lexed.text(i + 1)));
            i += 3;
            continue;
        }
        // Panic-family macro.
        if lexed.kind_at(i) == Some(TokKind::Ident)
            && PANIC_MACROS.contains(&t)
            && lexed.text_at(i + 1) == "!"
        {
            push(out, i, format!("`{t}!`"));
            i += 2;
            continue;
        }
        // Indexing / slicing with a non-literal index.
        if t == "["
            && i > open
            && (matches!(lexed.text(i - 1), ")" | "]")
                || (lexed.kind_at(i - 1) == Some(TokKind::Ident)
                    && !KEYWORDS.contains(&lexed.text(i - 1))))
        {
            let end = parser::matching_close(lexed, i);
            let all_literal =
                end > i + 1 && (i + 1..end).all(|j| lexed.kind_at(j) == Some(TokKind::Num));
            if !all_literal {
                push(out, i, "non-literal index/slice".to_string());
            }
            i = end + 1;
            continue;
        }
        // Unchecked length arithmetic: binary `+`/`*` over runtime values.
        if matches!(t, "+" | "*")
            && i > open
            && is_valueish(file, i - 1)
            && is_valueish(file, i + 1)
            && !(lexed.kind_at(i - 1) == Some(TokKind::Num)
                && lexed.kind_at(i + 1) == Some(TokKind::Num))
        {
            push(out, i, format!("unchecked `{t}` on length-sized values"));
            i += 1;
            continue;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::callgraph::CallGraph;
    use crate::analysis::Workspace;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::from_sources(
            files
                .iter()
                .map(|(p, s)| (p.to_string(), s.to_string()))
                .collect(),
        );
        let graph = CallGraph::build(&ws);
        audit(&ws, &graph)
    }

    #[test]
    fn unwrap_in_entry_flagged_but_not_in_unrelated_fn() {
        let f = run(&[(
            "crates/core/src/wire.rs",
            "fn decode_msg(b: &[u8]) -> M { head(b).unwrap() }\n\
             fn encode_msg(m: &M) -> Vec<u8> { plan(m).unwrap() }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(f[0].detail.contains("`.unwrap()`"));
        assert!(f[0].detail.contains("decode_msg"));
    }

    #[test]
    fn pcbcast_codec_is_an_audit_root() {
        // The PC link codec faces network bytes like wire.rs does; its
        // decode-shaped functions must be walked by the same audit.
        let f = run(&[(
            "crates/core/src/delivery/pcbcast/codec.rs",
            "fn decode_link_body(b: &mut &[u8]) -> L { b.split_first().unwrap().0 }\n",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].detail.contains("decode_link_body"));
    }

    #[test]
    fn reachability_crosses_crates_with_witness_path() {
        let f = run(&[
            (
                "crates/core/src/wire.rs",
                "fn decode_view(b: &mut &[u8]) -> V { build(len(b)) }",
            ),
            (
                "crates/membership/src/view.rs",
                "pub fn build(n: usize) -> V { assert!(n > 0, \"empty\"); V { n } }",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].path, "crates/membership/src/view.rs");
        assert!(f[0].detail.contains("`assert!`"));
        assert!(f[0].detail.contains("decode_view"), "{}", f[0].detail);
    }

    #[test]
    fn nonliteral_index_flagged_literal_index_not() {
        let f = run(&[(
            "crates/net/src/frame.rs",
            "fn try_pop(&mut self) -> Option<F> { let x = self.buf[0]; let y = self.buf[n..m]; Some(y) }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].detail.contains("non-literal index"));
    }

    #[test]
    fn length_arithmetic_flagged() {
        let f = run(&[(
            "crates/net/src/frame.rs",
            "fn try_pop(&mut self) -> usize { HEADER_LEN + self.len }",
        )]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].detail.contains("unchecked `+`"));
    }

    #[test]
    fn literal_only_arithmetic_and_compound_assign_ignored() {
        let f = run(&[(
            "crates/net/src/frame.rs",
            "fn parse_flags() -> usize { let k = 4 + 8; let mut n = 0; n += k; n }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn entry_predicate_only_fires_in_wire_files() {
        let f = run(&[(
            "crates/simnet/src/sim.rs",
            "fn decode_event(b: &[u8]) -> E { b.first().unwrap().into() }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn test_code_is_invisible() {
        let f = run(&[(
            "crates/core/src/wire.rs",
            "fn decode_ok(b: &[u8]) -> u8 { b.first().copied().unwrap_or(0) }\n\
             #[cfg(test)] mod tests { fn decode_bad(b: &[u8]) -> u8 { b[0] + b[1] } }",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }
}
