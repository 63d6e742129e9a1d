//! Field and symbol-table layer: struct fields with resolved
//! container/atomic types, plus per-field operation sites.
//!
//! The [`parser`] gives us functions; this module adds the *state*: for
//! every `struct` in the workspace, each named field is classified as a
//! growable collection ([`FieldKind::Container`]: a std collection or an
//! `IdWindow`), a `std::sync::atomic` cell ([`FieldKind::Atomic`]), or
//! [`FieldKind::Other`] — looking through wrappers such as
//! `Mutex<VecDeque<_>>`, `Arc<AtomicBool>`, or `Vec<Option<_>>` (the
//! first container/atomic name in the type wins, which for these shapes
//! is the collection that actually holds the elements).
//!
//! On top of the table, [`FieldTable::build`] records an [`OpSite`] for
//! every method chain rooted at a known field: `self.gate.get_mut(&o)
//! .and_then(|g| g.remove(&n))` is one site on `gate` with the chain
//! `[get_mut, and_then, remove]`, and each chain step carries the
//! `Ordering::…` identifiers found in its own argument list (for the
//! atomic passes). Three receiver shapes are resolved:
//!
//! - `recv.field.method(…)` — any receiver, with an optional index
//!   (`self.parked[o].insert(seq)`);
//! - `guard.method(…)` where `guard` was bound from `field.lock()` /
//!   `.borrow_mut()` or `&mut recv.field` earlier in the same function
//!   (lock guards and reborrows are how `conn.rs` touches its queues);
//! - `mem::take(&mut …field…)` — counted as a `take` (shrink) on the
//!   field.
//!
//! Attribution is deliberately name-based within a crate (the analyzer
//! has no type inference): an op on `x.unacked` counts toward every
//! known `unacked` field in the crate, *except* that a `self.` receiver
//! inside an `impl` block whose owner declares the field binds to that
//! struct alone. Per the analyzer's soundness convention this
//! over-approximates toward more findings for the growth pass (a grow
//! is never missed for want of resolution) — the risk direction, a
//! spurious *shrink* credit, requires two same-named fields in one
//! crate with disjoint lifecycles, which the gated-struct declarations
//! in [`growth`](crate::analysis::growth) keep reviewable.

use crate::analysis::lexer::{Lexed, TokKind};
use crate::analysis::{parser, Workspace};
use std::collections::BTreeMap;

/// Collection type names that can grow without bound: the std
/// collections, plus `causal_clocks::IdWindow`, the per-origin map the
/// delivery path keeps its per-message state in.
pub const CONTAINERS: &[&str] = &[
    "Vec",
    "VecDeque",
    "HashMap",
    "BTreeMap",
    "HashSet",
    "BTreeSet",
    "BinaryHeap",
    "String",
    "IdWindow",
];

/// `std::sync::atomic` cell type names.
pub const ATOMICS: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// Methods that add entries to a collection.
pub const GROW_METHODS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "push_str",
    "insert",
    "extend",
    "extend_from_slice",
    "append",
    "or_insert",
    "or_insert_with",
    "or_default",
    "resize",
    "resize_with",
    // `IdWindow`'s in-order gate parks what it does not release.
    "offer",
];

/// Methods that remove entries from a collection.
pub const SHRINK_METHODS: &[&str] = &[
    "remove",
    "remove_entry",
    "swap_remove",
    "clear",
    "drain",
    "truncate",
    "split_off",
    "pop",
    "pop_front",
    "pop_back",
    "pop_first",
    "pop_last",
    "retain",
    "take",
    // `IdWindow`'s floor raises, which retire entries.
    "advance",
    "compact",
    "pop_next",
];

/// The atomic access methods (used to recognize bare-identifier
/// receivers that shadow an atomic field, e.g. an `Arc<AtomicBool>`
/// clone named after the field it came from).
pub const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "fetch_min",
    "fetch_max",
];

/// The five memory-ordering identifiers.
pub const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// How a field's type participates in protocol state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// A growable collection; the payload is the collection name.
    Container(&'static str),
    /// A `std::sync::atomic` cell; the payload is the type name.
    Atomic(&'static str),
    /// Neither.
    Other,
}

/// One named struct field.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Rendered type text (tokens joined; display only).
    pub ty: String,
    /// Resolved classification.
    pub kind: FieldKind,
    /// 1-based line of the field name.
    pub line: usize,
}

/// One struct definition with named fields.
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Index into `ws.files`.
    pub file: usize,
    /// Struct name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// Named fields in declaration order (tuple/unit structs have none).
    pub fields: Vec<FieldDef>,
}

/// One method chain on a known field.
#[derive(Debug, Clone)]
pub struct OpSite {
    /// Index into `ws.files`.
    pub file: usize,
    /// 1-based line of the field token that roots the chain.
    pub line: usize,
    /// Name of the function containing the site.
    pub in_fn: String,
    /// `impl` owner of the containing function, if any.
    pub fn_owner: Option<String>,
    /// Index of the containing function in its file's func table.
    pub fn_idx: usize,
    /// The field the chain operates on.
    pub field: String,
    /// True when the receiver was literally `self`.
    pub via_self: bool,
    /// Chain steps: method name plus the `Ordering::…` identifiers in
    /// that step's own argument list.
    pub methods: Vec<(String, Vec<String>)>,
}

impl OpSite {
    /// True if any chain step is a growing method.
    pub fn grows(&self) -> bool {
        self.methods
            .iter()
            .any(|(m, _)| GROW_METHODS.contains(&m.as_str()))
    }

    /// True if any chain step is a shrinking method.
    pub fn shrinks(&self) -> bool {
        self.methods
            .iter()
            .any(|(m, _)| SHRINK_METHODS.contains(&m.as_str()))
    }
}

/// The workspace field table: every struct, plus every resolved op site
/// on a container- or atomic-typed field.
#[derive(Debug, Default)]
pub struct FieldTable {
    /// All struct definitions (non-test), in file order.
    pub structs: Vec<StructDef>,
    /// All op sites on known container/atomic fields (non-test code).
    pub ops: Vec<OpSite>,
}

impl FieldTable {
    /// Builds the table for the whole workspace.
    pub fn build(ws: &Workspace) -> Self {
        let mut structs = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            collect_structs(fi, &file.lexed, &file.items, &mut structs);
        }
        // Per-crate field-name sets drive op recognition.
        let mut kinds: BTreeMap<(&str, &str), FieldKind> = BTreeMap::new();
        for s in &structs {
            let crate_name = ws.files[s.file].crate_name.as_str();
            for f in &s.fields {
                if f.kind != FieldKind::Other {
                    // First classification wins; same-named fields in one
                    // crate share recognition anyway.
                    kinds.entry((crate_name, f.name.as_str())).or_insert(f.kind);
                }
            }
        }
        let mut ops = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            let known = |name: &str| kinds.contains_key(&(file.crate_name.as_str(), name));
            let atomic = |name: &str| {
                matches!(
                    kinds.get(&(file.crate_name.as_str(), name)),
                    Some(FieldKind::Atomic(_))
                )
            };
            for (fx, func) in file.items.funcs.iter().enumerate() {
                if func.is_test {
                    continue;
                }
                let Some((open, close)) = func.body else {
                    continue;
                };
                collect_ops(fi, file, func, fx, open, close, &known, &atomic, &mut ops);
            }
        }
        FieldTable { structs, ops }
    }

    /// The struct named `name` in the file at index `file`, if any.
    pub fn struct_in(&self, file: usize, name: &str) -> Option<&StructDef> {
        self.structs
            .iter()
            .find(|s| s.file == file && s.name == name)
    }

    /// True when `owner` is a known struct in `crate_name` declaring
    /// `field` — used to keep a `self.` op inside that impl from
    /// attributing to same-named fields of *other* structs.
    pub fn owner_declares(
        &self,
        ws: &Workspace,
        owner: &str,
        crate_name: &str,
        field: &str,
    ) -> bool {
        self.structs.iter().any(|s| {
            s.name == owner
                && ws.files[s.file].crate_name == crate_name
                && s.fields.iter().any(|f| f.name == field)
        })
    }
}

fn classify_type(lexed: &Lexed, span: std::ops::Range<usize>) -> FieldKind {
    for i in span {
        if lexed.kind_at(i) != Some(TokKind::Ident) {
            continue;
        }
        let t = lexed.text(i);
        if let Some(c) = CONTAINERS.iter().find(|c| **c == t) {
            return FieldKind::Container(c);
        }
        if let Some(a) = ATOMICS.iter().find(|a| **a == t) {
            return FieldKind::Atomic(a);
        }
    }
    FieldKind::Other
}

fn render_type(lexed: &Lexed, span: std::ops::Range<usize>) -> String {
    let mut out = String::new();
    for i in span {
        let t = lexed.text(i);
        if !out.is_empty() && t.chars().next().is_some_and(|c| c.is_alphanumeric()) {
            let last = out.chars().last().unwrap_or(' ');
            if last.is_alphanumeric() || last == '>' {
                out.push(' ');
            }
        }
        out.push_str(t);
    }
    out
}

fn collect_structs(
    file: usize,
    lexed: &Lexed,
    items: &parser::FileItems,
    out: &mut Vec<StructDef>,
) {
    let n = lexed.len();
    let mut i = 0;
    while i < n {
        if !lexed.is_ident(i, "struct")
            || lexed.kind_at(i + 1) != Some(TokKind::Ident)
            || items.in_test(i)
        {
            i += 1;
            continue;
        }
        let name = lexed.text(i + 1).to_string();
        let line = lexed.line_of(i);
        // Skip generics and a `where` clause to the body opener.
        let mut j = i + 2;
        if lexed.text_at(j) == "<" {
            let mut depth = 0isize;
            while j < n {
                match lexed.text(j) {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        while j < n && !matches!(lexed.text(j), "{" | "(" | ";") {
            j += 1;
        }
        if lexed.text_at(j) != "{" {
            // Tuple or unit struct: no named fields to track.
            out.push(StructDef {
                file,
                name,
                line,
                fields: Vec::new(),
            });
            i = j.max(i + 1);
            continue;
        }
        let close = parser::matching_close(lexed, j);
        let fields = collect_fields(lexed, j + 1, close);
        out.push(StructDef {
            file,
            name,
            line,
            fields,
        });
        i = close + 1;
    }
}

fn collect_fields(lexed: &Lexed, mut k: usize, close: usize) -> Vec<FieldDef> {
    let mut fields = Vec::new();
    while k < close {
        // Attributes on the field.
        while lexed.text_at(k) == "#" && lexed.text_at(k + 1) == "[" {
            k = parser::matching_close(lexed, k + 1) + 1;
        }
        if lexed.is_ident(k, "pub") {
            k += 1;
            if lexed.text_at(k) == "(" {
                k = parser::matching_close(lexed, k) + 1;
            }
        }
        if k >= close || lexed.kind_at(k) != Some(TokKind::Ident) || lexed.text_at(k + 1) != ":" {
            break;
        }
        let name = lexed.text(k).to_string();
        let line = lexed.line_of(k);
        let ty_start = k + 2;
        // The type runs to the next comma outside every bracket depth
        // (including generics' angle brackets).
        let mut j = ty_start;
        let mut angle = 0isize;
        while j < close {
            match lexed.text(j) {
                "(" | "[" | "{" => {
                    j = parser::matching_close(lexed, j) + 1;
                    continue;
                }
                "<" => angle += 1,
                ">" if lexed.text_at(j.wrapping_sub(1)) != "-" => angle -= 1,
                "," if angle == 0 => break,
                _ => {}
            }
            j += 1;
        }
        fields.push(FieldDef {
            kind: classify_type(lexed, ty_start..j),
            ty: render_type(lexed, ty_start..j),
            name,
            line,
        });
        k = j + 1;
    }
    fields
}

/// Collects the method chain starting at the `.`/ident pair at `from`
/// (exclusive scan window end `until`): every `.name(` step, each with
/// the ordering identifiers inside its own argument list.
fn chain_methods(lexed: &Lexed, from: usize, until: usize) -> Vec<(String, Vec<String>)> {
    let mut methods = Vec::new();
    let mut p = from;
    while p + 2 <= until {
        if lexed.text_at(p) == "."
            && lexed.kind_at(p + 1) == Some(TokKind::Ident)
            && lexed.text_at(p + 2) == "("
        {
            let close = parser::matching_close(lexed, p + 2);
            let mut ords = Vec::new();
            for a in (p + 3)..close {
                if lexed.kind_at(a) == Some(TokKind::Ident) {
                    let t = lexed.text(a);
                    if ORDERINGS.contains(&t) {
                        ords.push(t.to_string());
                    }
                }
            }
            methods.push((lexed.text(p + 1).to_string(), ords));
        }
        p += 1;
    }
    methods
}

#[allow(clippy::too_many_arguments)]
fn collect_ops(
    file: usize,
    sf: &crate::analysis::SourceFile,
    func: &parser::Func,
    fn_idx: usize,
    open: usize,
    close: usize,
    known: &dyn Fn(&str) -> bool,
    atomic: &dyn Fn(&str) -> bool,
    out: &mut Vec<OpSite>,
) {
    let lexed = &sf.lexed;
    // Pass 1: guard/reborrow aliases (`let g = …field.lock()…;`,
    // `let g = &mut recv.field;`) for the rest of the function.
    let mut aliases: BTreeMap<String, String> = BTreeMap::new();
    let mut t = open + 1;
    while t < close {
        if lexed.is_ident(t, "let") {
            let mut j = t + 1;
            if lexed.is_ident(j, "mut") {
                j += 1;
            }
            if lexed.kind_at(j) == Some(TokKind::Ident) {
                let bound = lexed.text(j).to_string();
                let se = parser::statement_end(lexed, t).min(close);
                if let Some(field) = alias_target(lexed, j + 1, se, known) {
                    aliases.insert(bound, field);
                }
                // Advance one token, not to the statement end: a `let`
                // bound from a block expression can hold nested `let`
                // guards that must alias too.
                t = j + 1;
                continue;
            }
        }
        t += 1;
    }
    // Pass 2: op sites.
    let mut t = open + 1;
    while t < close {
        if lexed.kind_at(t) != Some(TokKind::Ident) {
            t += 1;
            continue;
        }
        let text = lexed.text(t);
        // `mem::take(&mut …field…)` — a shrink with no dot-chain.
        if text == "take" && lexed.text_at(t + 1) == "(" && lexed.text_at(t.wrapping_sub(1)) == ":"
        {
            let close_p = parser::matching_close(lexed, t + 1);
            if let Some((field, via_self)) = field_in_args(lexed, t + 2, close_p, known, &aliases) {
                out.push(OpSite {
                    file,
                    line: lexed.line_of(t),
                    in_fn: func.name.clone(),
                    fn_owner: func.owner.clone(),
                    fn_idx,
                    field,
                    via_self,
                    methods: vec![("take".to_string(), Vec::new())],
                });
            }
            t = close_p + 1;
            continue;
        }
        let prev = lexed.text_at(t.wrapping_sub(1));
        let (field, via_self, mut j) = if prev == "." && !lexed.is_path_sep(t.wrapping_sub(2)) {
            // `recv.field…`
            if !known(text) {
                t += 1;
                continue;
            }
            let via_self = lexed.is_ident(t.wrapping_sub(2), "self");
            (text.to_string(), via_self, t + 1)
        } else if prev != ":" && !lexed.is_path_sep(t + 1) {
            // Bare identifier: a guard alias, or a local shadowing an
            // atomic field (Arc clones keep the field's name).
            if let Some(f) = aliases.get(text) {
                (f.clone(), false, t + 1)
            } else if atomic(text) {
                (text.to_string(), false, t + 1)
            } else {
                t += 1;
                continue;
            }
        } else {
            t += 1;
            continue;
        };
        // Optional index between field and chain: `parked[o].insert(…)`.
        if lexed.text_at(j) == "[" {
            j = parser::matching_close(lexed, j) + 1;
        }
        if !(lexed.text_at(j) == "."
            && lexed.kind_at(j + 1) == Some(TokKind::Ident)
            && lexed.text_at(j + 2) == "(")
        {
            t += 1;
            continue;
        }
        let ss = parser::statement_start(lexed, t);
        let se = parser::statement_end(lexed, ss).min(close);
        let methods = chain_methods(lexed, j, se + 1);
        // Bare atomic-name receivers must actually perform an atomic op;
        // otherwise an unrelated local with the same name would count.
        let bare = prev != ".";
        let is_alias = bare && aliases.contains_key(text);
        if bare && !is_alias {
            let first_is_atomic = methods
                .first()
                .is_some_and(|(m, _)| ATOMIC_METHODS.contains(&m.as_str()));
            if !first_is_atomic {
                t += 1;
                continue;
            }
        }
        if !methods.is_empty() {
            out.push(OpSite {
                file,
                line: lexed.line_of(t),
                in_fn: func.name.clone(),
                fn_owner: func.owner.clone(),
                fn_idx,
                field,
                via_self,
                methods,
            });
        }
        t += 1;
    }
}

/// For a `let` binding, the field this binding aliases: the window holds
/// `.field.lock(` / `.field.borrow_mut(` (a guard) or ends with
/// `&mut recv.field;` (a reborrow).
fn alias_target(
    lexed: &Lexed,
    from: usize,
    until: usize,
    known: &dyn Fn(&str) -> bool,
) -> Option<String> {
    let mut saw_amp_mut = false;
    let mut p = from;
    while p < until {
        let t = lexed.text_at(p);
        if t == "&" && lexed.text_at(p + 1) == "mut" {
            saw_amp_mut = true;
        }
        if t == "." && lexed.kind_at(p + 1) == Some(TokKind::Ident) && known(lexed.text(p + 1)) {
            let field = lexed.text(p + 1);
            let next = lexed.text_at(p + 2);
            if next == "."
                && matches!(
                    lexed.text_at(p + 3),
                    "lock" | "read" | "write" | "borrow_mut" | "borrow"
                )
            {
                return Some(field.to_string());
            }
            if saw_amp_mut && (next == ";" || p + 2 >= until) {
                return Some(field.to_string());
            }
        }
        p += 1;
    }
    None
}

/// The first known field (dotted) or alias (bare) inside an argument
/// span — how `mem::take(&mut *guard)` resolves its target.
fn field_in_args(
    lexed: &Lexed,
    from: usize,
    until: usize,
    known: &dyn Fn(&str) -> bool,
    aliases: &BTreeMap<String, String>,
) -> Option<(String, bool)> {
    let mut p = from;
    while p < until {
        if lexed.kind_at(p) == Some(TokKind::Ident) {
            let t = lexed.text(p);
            let prev = lexed.text_at(p.wrapping_sub(1));
            if prev == "." && known(t) {
                return Some((t.to_string(), lexed.is_ident(p.wrapping_sub(2), "self")));
            }
            if prev != "." {
                if let Some(f) = aliases.get(t) {
                    return Some((f.clone(), false));
                }
            }
        }
        p += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Workspace;

    fn table(src: &str) -> (Workspace, FieldTable) {
        let ws = Workspace::from_sources(vec![("crates/net/src/x.rs".into(), src.into())]);
        let t = FieldTable::build(&ws);
        (ws, t)
    }

    #[test]
    fn classifies_fields_through_wrappers() {
        let (_, t) = table(
            "struct S { q: Mutex<VecDeque<u8>>, flag: Arc<AtomicBool>, \
             map: BTreeMap<u64, Vec<u8>>, n: usize }",
        );
        let s = &t.structs[0];
        assert_eq!(s.name, "S");
        assert_eq!(s.fields[0].kind, FieldKind::Container("VecDeque"));
        assert_eq!(s.fields[1].kind, FieldKind::Atomic("AtomicBool"));
        assert_eq!(s.fields[2].kind, FieldKind::Container("BTreeMap"));
        assert_eq!(s.fields[3].kind, FieldKind::Other);
    }

    #[test]
    fn generic_and_where_clause_structs_parse() {
        let (_, t) =
            table("struct G<T: Ord> where T: Clone { items: Vec<T>, by_key: BTreeMap<T, u64> }");
        let s = &t.structs[0];
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].kind, FieldKind::Container("Vec"));
    }

    #[test]
    fn chains_resolve_through_index_closure_and_guard() {
        let (_, t) = table(
            "struct S { gate: BTreeMap<u64, u64>, parked: Vec<u64>, q: Mutex<VecDeque<u8>> }\n\
             impl S {\n\
               fn a(&mut self) { self.gate.entry(0).or_default(); }\n\
               fn b(&mut self) { self.gate.get_mut(&0).and_then(|g| g.remove(&1)); }\n\
               fn c(&mut self) { self.parked[0].insert(3); }\n\
               fn d(&self) { let mut g = self.q.lock().unwrap(); g.pop_front(); }\n\
               fn e(&self) { let dropped = { let mut g = self.q.lock().unwrap(); \
                             std::mem::take(&mut *g) }; drop(dropped); }\n\
             }",
        );
        let on = |f: &str| -> Vec<&OpSite> { t.ops.iter().filter(|o| o.field == f).collect() };
        assert!(on("gate").iter().any(|o| o.grows()), "{:?}", t.ops);
        assert!(on("gate").iter().any(|o| o.shrinks()));
        assert!(on("parked").iter().any(|o| o.grows()));
        // Guard alias: the pop and the mem::take both land on `q`.
        assert!(on("q").iter().any(|o| o.shrinks() && o.in_fn == "d"));
        assert!(on("q").iter().any(|o| o.shrinks() && o.in_fn == "e"));
    }

    #[test]
    fn atomic_ops_capture_orderings() {
        let (_, t) = table(
            "struct S { mode: AtomicU8, stop: Arc<AtomicBool> }\n\
             impl S {\n\
               fn a(&self) { self.mode.compare_exchange(0, 1, Ordering::AcqRel, \
                             Ordering::Acquire).ok(); }\n\
             }\n\
             fn run(stop: Arc<AtomicBool>) { while !stop.load(Ordering::SeqCst) {} }",
        );
        let cas = t
            .ops
            .iter()
            .find(|o| o.field == "mode")
            .expect("mode op recorded");
        assert_eq!(cas.methods[0].0, "compare_exchange");
        assert_eq!(cas.methods[0].1, ["AcqRel", "Acquire"]);
        let bare = t
            .ops
            .iter()
            .find(|o| o.field == "stop")
            .expect("bare atomic receiver recorded");
        assert_eq!(bare.methods[0].0, "load");
        assert_eq!(bare.methods[0].1, ["SeqCst"]);
    }

    #[test]
    fn test_code_and_unknown_receivers_are_ignored() {
        let (_, t) = table(
            "struct S { log: Vec<u64> }\n\
             fn f(v: &mut Vec<u64>) { v.push(1); }\n\
             #[cfg(test)] mod tests { use super::*; \
             fn g(s: &mut S) { s.log.push(9); } }",
        );
        assert!(t.ops.is_empty(), "{:?}", t.ops);
    }
}
