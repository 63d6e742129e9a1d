//! Layering-matrix analysis: who may *construct* and who may *consume*
//! each protocol enum variant, plus the `Transport` containment rule.
//!
//! The paper's stack is honest only if layers stay in their lanes: the
//! delivery engines must never fabricate membership traffic, application
//! crates must never reach past the stack to the transport, and only the
//! runtimes interpret actor `Command`s. The declared matrix below is
//! the single source of truth; every `StackWire::…` / `Command::…`
//! occurrence in library code is classified as a **construction**
//! (expression position) or a **consumption** (pattern position — match
//! arm, `if let`/`while let`/`let` destructuring) and checked against it.
//!
//! Classification is token-shaped, not type-checked: after the variant's
//! payload group, `=>` or `|` means a match pattern; a `let`-family
//! statement head with the `=` still ahead means a destructuring
//! pattern; everything else is a construction. That heuristic is exact
//! for the shapes rustfmt produces (and the fixtures pin it).

use crate::analysis::lexer::TokKind;
use crate::analysis::{parser, Finding, Workspace};

/// One row of the declared layering matrix.
#[derive(Debug, Clone, Copy)]
pub struct LayerRule {
    /// Enum type name the row governs.
    pub enum_name: &'static str,
    /// Variants the row covers.
    pub variants: &'static [&'static str],
    /// Path prefixes allowed to construct these variants.
    pub construct: &'static [&'static str],
    /// Path prefixes allowed to consume (match on) them.
    pub consume: &'static [&'static str],
}

/// The declared matrix. Rationale per row:
///
/// - **`StackWire` data plane** (`Rb`, `StabilityReport`, `Heartbeat`):
///   built by the protocol stack and by the wire codec's decoder; matched
///   by the same two plus the verification layer's classifiers. Delivery
///   engines, replica apps, and the runtimes never touch them — they see
///   payloads only after the stack has unwrapped them.
/// - **`StackWire` membership plane** (`Propose`, `FlushAck`, `Install`,
///   `JoinReq`): same allowances, declared separately because the
///   invariant is sharper — nothing but the stack (which maps the
///   membership machine's messages onto them) and the codec may
///   fabricate a view-change message, or the "no extra agreement
///   protocol" guarantee (§4) is forfeit.
/// - **`StackWire` overlay plane** (`Link`): PC-broadcast link frames
///   carry per-link stream state (sequence numbers, acks, ping/pong
///   watermarks) owned by the engine's `Link` objects; a frame forged
///   outside the stack/codec would desynchronize a stream for good.
/// - **`MembershipMsg`**: the view-change machine's own messages. Only
///   `causal-membership` builds them, so every membership decision has
///   one home; the stack only maps them onto the matching `StackWire`
///   variants.
/// - **`Command`**: only the actor `Context` constructs effects; only
///   the runtimes (simnet's event loop, the shared threaded runner) and
///   the schedule explorer interpret them.
pub const MATRIX: &[LayerRule] = &[
    LayerRule {
        enum_name: "StackWire",
        variants: &["Rb", "StabilityReport", "Heartbeat"],
        construct: &["crates/core/src/stack.rs", "crates/core/src/wire.rs"],
        consume: &[
            "crates/core/src/stack.rs",
            "crates/core/src/wire.rs",
            "crates/verify/src/",
        ],
    },
    LayerRule {
        enum_name: "StackWire",
        variants: &["Propose", "FlushAck", "Install", "JoinReq"],
        construct: &["crates/core/src/stack.rs", "crates/core/src/wire.rs"],
        consume: &[
            "crates/core/src/stack.rs",
            "crates/core/src/wire.rs",
            "crates/verify/src/",
        ],
    },
    LayerRule {
        enum_name: "StackWire",
        variants: &["Link"],
        construct: &["crates/core/src/stack.rs", "crates/core/src/wire.rs"],
        consume: &[
            "crates/core/src/stack.rs",
            "crates/core/src/wire.rs",
            "crates/verify/src/",
        ],
    },
    LayerRule {
        enum_name: "MembershipMsg",
        variants: &["Propose", "FlushAck", "Install", "JoinReq"],
        construct: &["crates/membership/src/"],
        consume: &["crates/membership/src/", "crates/core/src/stack.rs"],
    },
    LayerRule {
        enum_name: "Command",
        variants: &["Send", "Multicast", "SetTimer"],
        construct: &["crates/simnet/src/actor.rs"],
        consume: &["crates/simnet/src/", "crates/verify/src/"],
    },
];

/// Crates (path prefixes) allowed to name the `Transport` trait.
/// Production code reaches the network through the protocol stack; only
/// the runtimes (and this analyzer) know transports exist.
pub const TRANSPORT_ALLOWED: &[&str] = &["crates/simnet/", "crates/net/", "crates/xtask/"];

/// How an occurrence uses the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Expression position: the variant is being built.
    Construct,
    /// Pattern position: the variant is being matched/destructured.
    Consume,
}

/// Classifies the variant occurrence whose type name starts at token
/// `ty`, with the variant ident at token `var`.
fn classify(file: &crate::analysis::SourceFile, ty: usize, var: usize) -> Role {
    let lexed = &file.lexed;
    // Skip the payload group, if any.
    let mut j = var + 1;
    if matches!(lexed.text_at(j), "(" | "{") {
        j = parser::matching_close(lexed, j) + 1;
    }
    // Match arm / or-pattern?
    if lexed.text_at(j) == "=" && lexed.text_at(j + 1) == ">" {
        return Role::Consume;
    }
    if lexed.text_at(j) == "|" && lexed.text_at(j + 1) != "|" {
        return Role::Consume;
    }
    // `let`-family destructuring: statement head is let/if/while and a
    // bare `=` still lies ahead of the occurrence, so the variant sits on
    // the pattern side.
    let start = parser::statement_start(lexed, ty);
    if matches!(lexed.text_at(start), "let" | "if" | "while") {
        let mut k = j;
        let end = parser::statement_end(lexed, start);
        while k <= end {
            let t = lexed.text_at(k);
            if matches!(t, "(" | "[" | "{") {
                k = parser::matching_close(lexed, k) + 1;
                continue;
            }
            if t == "=" && lexed.text_at(k + 1) != "=" && lexed.text_at(k + 1) != ">" {
                return Role::Consume;
            }
            if t == "=" && lexed.text_at(k + 1) == "=" {
                k += 2;
                continue;
            }
            k += 1;
        }
    }
    Role::Construct
}

/// Runs the layering analysis over library (non-test) code.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in &ws.files {
        let lexed = &file.lexed;
        for i in 0..lexed.len() {
            if lexed.kind_at(i) != Some(TokKind::Ident) || file.items.in_test(i) {
                continue;
            }
            let name = lexed.text(i);
            // Transport containment.
            if name == "Transport" && !TRANSPORT_ALLOWED.iter().any(|p| file.path.starts_with(p)) {
                findings.push(Finding {
                    rule: "layering",
                    path: file.path.clone(),
                    line: lexed.line_of(i),
                    snippet: lexed.line_text(i).to_string(),
                    detail: "`Transport` is runtime plumbing; production code sends through \
                             the protocol stack, not a transport handle"
                        .to_string(),
                });
                continue;
            }
            // Enum variant occurrences: `Name :: Variant`.
            let Some(rule) = MATRIX.iter().find(|r| r.enum_name == name) else {
                continue;
            };
            if !lexed.is_path_sep(i + 1) || lexed.kind_at(i + 3) != Some(TokKind::Ident) {
                continue;
            }
            let variant = lexed.text(i + 3);
            let Some(rule) = MATRIX
                .iter()
                .find(|r| r.enum_name == name && r.variants.contains(&variant))
            else {
                let _ = rule;
                continue;
            };
            let role = classify(file, i, i + 3);
            let allowed = match role {
                Role::Construct => rule.construct,
                Role::Consume => rule.consume,
            };
            if !allowed.iter().any(|p| file.path.starts_with(p)) {
                let verb = match role {
                    Role::Construct => "construct",
                    Role::Consume => "consume",
                };
                findings.push(Finding {
                    rule: "layering",
                    path: file.path.clone(),
                    line: lexed.line_of(i),
                    snippet: lexed.line_text(i).to_string(),
                    detail: format!(
                        "{}::{} may only be {verb}ed by [{}] per the declared layering matrix",
                        name,
                        variant,
                        allowed.join(", ")
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Workspace;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        let ws = Workspace::from_sources(vec![(path.to_string(), src.to_string())]);
        check(&ws)
    }

    #[test]
    fn stack_constructs_and_consumes_freely() {
        let src = "fn f(ctx: &mut C, m: W) { ctx.send(to, StackWire::Heartbeat); \
                   match m { StackWire::Rb(x) => drop(x), StackWire::Propose(v) => install(v), _ => {} } }";
        assert!(findings("crates/core/src/stack.rs", src).is_empty());
    }

    #[test]
    fn replica_constructing_membership_message_flagged() {
        let src = "fn sneaky(ctx: &mut C, v: GroupView) { ctx.send(to, StackWire::Install(v)); }";
        let f = findings("crates/replica/src/frontend.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "layering");
        assert!(f[0].detail.contains("construct"), "{}", f[0].detail);
    }

    #[test]
    fn verify_may_consume_but_not_construct() {
        let consume = "fn class(m: &W) -> u8 { match m { StackWire::Rb(_) => 0, _ => 1 } }";
        assert!(findings("crates/verify/src/explorer.rs", consume).is_empty());
        let construct = "fn forge() -> W { StackWire::Heartbeat }";
        let f = findings("crates/verify/src/explorer.rs", construct);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn if_let_destructuring_is_consumption() {
        let src = "fn f(m: W) { if let StackWire::FlushAck(id) = m { ack(id); } \
                   while let StackWire::Rb(x) = next() { eat(x); } }";
        assert!(findings("crates/verify/src/trace.rs", src).is_empty());
    }

    #[test]
    fn or_pattern_is_consumption() {
        let src = "fn f(m: W) -> bool { match m { StackWire::Propose(_) | StackWire::Install(_) => true, _ => false } }";
        assert!(findings("crates/verify/src/oracle.rs", src).is_empty());
    }

    #[test]
    fn command_only_built_by_context() {
        let ok = "impl Context { fn send(&mut self) { self.commands.push(Command::Send { to, msg }); } }";
        assert!(findings("crates/simnet/src/actor.rs", ok).is_empty());
        let bad = "fn forge() -> C { Command::SetTimer { delay, tag } }";
        let f = findings("crates/core/src/stack.rs", bad);
        assert_eq!(f.len(), 1);
        assert!(f[0].detail.contains("Command::SetTimer"));
    }

    #[test]
    fn runtime_consuming_commands_is_fine() {
        let src = "fn step(c: C) { match c { Command::Send { to, msg } => go(to, msg), \
                   Command::Multicast { to, msg } => fan(to, msg), Command::SetTimer { .. } => {} } }";
        assert!(findings("crates/simnet/src/sim.rs", src).is_empty());
    }

    #[test]
    fn transport_outside_runtimes_flagged() {
        let src = "use causal_simnet::Transport;\n";
        let f = findings("crates/replica/src/counter.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "layering");
        assert!(findings("crates/net/src/node.rs", src).is_empty());
        assert!(findings("crates/simnet/src/runner.rs", src).is_empty());
    }

    #[test]
    fn transport_word_boundary_and_masking() {
        // TransportStats is a different identifier; strings, comments and
        // tests don't count.
        let src = "struct TransportStats;\nfn transport_bypass() {}\n\
                   // Transport in a comment\nconst S: &str = \"Transport\";\n\
                   #[cfg(test)] mod tests { use causal_simnet::Transport; }\n";
        assert!(findings("crates/replica/src/counter.rs", src).is_empty());
    }

    #[test]
    fn variant_in_test_module_is_ignored() {
        let src = "#[cfg(test)] mod tests { fn forge() -> W { StackWire::Heartbeat } }";
        assert!(findings("crates/replica/src/lock.rs", src).is_empty());
    }
}
