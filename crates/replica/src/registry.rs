//! The distributed name service of §5.2: spontaneous updates and queries
//! with **application-level** inconsistency handling.
//!
//! In large groups, tracking dependencies among spontaneously generated
//! messages is expensive, so the name service broadcasts `upd` and `qry`
//! without group-wide ordering constraints and tolerates transient
//! inconsistency: *"the query operation carries sufficient context
//! information in terms of the ordering of upd₁ and upd₂"* — a member
//! answering a query whose context does not match its own update history
//! **discards** it instead of returning a wrong value.
//!
//! The context is a per-name **version**: each registration bumps the
//! name's version (each name is registered by one writer, which chains its
//! own registrations, so versions are well-defined), and a query carries
//! the version its issuer had seen. A member answers only at the exact
//! matching version — any member that would return a different value than
//! the issuer expected detects the mismatch and discards.
//!
//! This trades protocol complexity for asynchronism: no total order is
//! paid for, and when inconsistencies are infrequent almost every query is
//! answered immediately.

use causal_clocks::MsgId;
use causal_core::delivery::Delivered;
use causal_core::stack::{App, Emitter};
use causal_core::statemachine::OpClass;
use std::collections::HashMap;

/// The context a query carries: the version of the queried name its
/// issuer had observed when issuing (0 = never bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QryContext {
    /// Version of the name at the issuer, at issue time.
    pub version_seen: u64,
}

/// One name binding with its version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binding {
    /// How many registrations of this name this member has applied.
    pub version: u64,
    /// The current value.
    pub value: String,
}

/// Name-service operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryOp {
    /// Register or overwrite a name binding (spontaneous w.r.t. other
    /// writers; each writer chains its own registrations of a name).
    Upd {
        /// The name.
        key: String,
        /// The value bound to it.
        value: String,
    },
    /// Resolve a name, carrying issue-time context.
    Qry {
        /// The name to resolve.
        key: String,
        /// Issue-time context for the inconsistency check.
        context: QryContext,
    },
}

/// The outcome of one query at one member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QryOutcome {
    /// The context matched: the member returned this binding (or `None`
    /// for a name never bound, when the issuer had also seen version 0).
    Answered(Option<String>),
    /// The context mismatched: the member discarded the query (the §5.2
    /// rule), reporting how far its history had diverged.
    Discarded {
        /// The name's version at this member when the query arrived.
        member_version: u64,
        /// The version the issuer had seen at issue time.
        issuer_version: u64,
    },
}

/// A name-service replica as an [`App`].
///
/// Updates apply unconditionally (bumping the name's version); queries
/// are answered only when their version context matches, and discarded
/// otherwise.
#[derive(Debug, Clone, Default)]
pub struct RegistryReplica {
    bindings: HashMap<String, Binding>,
    outcomes: Vec<(MsgId, QryOutcome)>,
}

impl RegistryReplica {
    /// Creates an empty registry.
    pub fn new() -> Self {
        RegistryReplica::default()
    }

    /// Resolves `key` locally (no consistency guarantee).
    pub fn resolve(&self, key: &str) -> Option<&str> {
        self.bindings.get(key).map(|b| b.value.as_str())
    }

    /// The local version of `key` (0 if never bound) — the context a
    /// query issued *by this member now* would carry.
    pub fn version_of(&self, key: &str) -> u64 {
        self.bindings.get(key).map_or(0, |b| b.version)
    }

    /// Every query processed, with its outcome at this member.
    pub fn outcomes(&self) -> &[(MsgId, QryOutcome)] {
        &self.outcomes
    }

    /// Queries answered at this member.
    pub fn answered(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, QryOutcome::Answered(_)))
            .count()
    }

    /// Queries discarded at this member.
    pub fn discarded(&self) -> usize {
        self.outcomes.len() - self.answered()
    }

    /// The current binding table (for convergence checks).
    pub fn bindings(&self) -> &HashMap<String, Binding> {
        &self.bindings
    }
}

impl App for RegistryReplica {
    type Op = RegistryOp;

    fn on_deliver(&mut self, env: Delivered<'_, RegistryOp>, _out: &mut Emitter<RegistryOp>) {
        match env.payload {
            RegistryOp::Upd { key, value } => {
                let binding = self.bindings.entry(key.clone()).or_insert(Binding {
                    version: 0,
                    value: String::new(),
                });
                binding.version += 1;
                binding.value = value.clone();
            }
            RegistryOp::Qry { key, context } => {
                let member_version = self.version_of(key);
                let outcome = if context.version_seen == member_version {
                    QryOutcome::Answered(self.resolve(key).map(String::from))
                } else {
                    QryOutcome::Discarded {
                        member_version,
                        issuer_version: context.version_seen,
                    }
                };
                self.outcomes.push((env.id, outcome));
            }
        }
    }

    fn classify(&self, op: &RegistryOp) -> OpClass {
        // Queries are mutually commutative (§5.2); updates are not.
        match op {
            RegistryOp::Qry { .. } => OpClass::Commutative,
            RegistryOp::Upd { .. } => OpClass::NonCommutative,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_clocks::ProcessId;
    use causal_core::osend::{OSender, OccursAfter};

    fn upd(key: &str, value: &str) -> RegistryOp {
        RegistryOp::Upd {
            key: key.into(),
            value: value.into(),
        }
    }

    fn qry(key: &str, version_seen: u64) -> RegistryOp {
        RegistryOp::Qry {
            key: key.into(),
            context: QryContext { version_seen },
        }
    }

    fn deliver(replica: &mut RegistryReplica, tx: &mut OSender, op: RegistryOp) {
        let env = tx.osend(op, OccursAfter::none());
        let mut out = Emitter::new();
        replica.on_deliver(Delivered::from_graph(&env), &mut out);
    }

    #[test]
    fn updates_bind_names_and_bump_versions() {
        let mut tx = OSender::new(ProcessId::new(0));
        let mut r = RegistryReplica::new();
        deliver(&mut r, &mut tx, upd("printer", "host-a"));
        assert_eq!(r.resolve("printer"), Some("host-a"));
        assert_eq!(r.version_of("printer"), 1);
        deliver(&mut r, &mut tx, upd("printer", "host-b"));
        assert_eq!(r.resolve("printer"), Some("host-b"));
        assert_eq!(r.version_of("printer"), 2);
    }

    #[test]
    fn matching_context_is_answered() {
        let mut tx = OSender::new(ProcessId::new(0));
        let mut r = RegistryReplica::new();
        deliver(&mut r, &mut tx, upd("svc", "v1"));
        deliver(&mut r, &mut tx, qry("svc", 1));
        assert_eq!(r.answered(), 1);
        assert_eq!(r.outcomes()[0].1, QryOutcome::Answered(Some("v1".into())));
    }

    #[test]
    fn stale_member_discards() {
        // The issuer saw version 2 but this member only applied version 1:
        // answering would return a stale value; discard.
        let mut tx = OSender::new(ProcessId::new(0));
        let mut r = RegistryReplica::new();
        deliver(&mut r, &mut tx, upd("svc", "v1"));
        deliver(&mut r, &mut tx, qry("svc", 2));
        assert_eq!(r.discarded(), 1);
        assert_eq!(
            r.outcomes()[0].1,
            QryOutcome::Discarded {
                member_version: 1,
                issuer_version: 2
            }
        );
    }

    #[test]
    fn ahead_member_discards_too() {
        // The member has already applied an update the issuer had not
        // seen — its answer would not be the one the issuer asked about.
        let mut tx = OSender::new(ProcessId::new(0));
        let mut r = RegistryReplica::new();
        deliver(&mut r, &mut tx, upd("svc", "v1"));
        deliver(&mut r, &mut tx, upd("svc", "v2"));
        deliver(&mut r, &mut tx, qry("svc", 1));
        assert_eq!(r.discarded(), 1);
    }

    #[test]
    fn unbound_name_answered_at_version_zero() {
        let mut tx = OSender::new(ProcessId::new(0));
        let mut r = RegistryReplica::new();
        deliver(&mut r, &mut tx, qry("ghost", 0));
        assert_eq!(r.outcomes()[0].1, QryOutcome::Answered(None));
    }

    #[test]
    fn answered_queries_agree_across_members() {
        // Per-key versions make the check sound: members answering the
        // same query necessarily return the same value, because a key's
        // updates are chained by their single writer.
        let mut writer = OSender::new(ProcessId::new(0));
        let u1 = writer.osend(upd("a", "x1"), OccursAfter::none());
        let u2 = writer.osend(upd("a", "x2"), OccursAfter::message(u1.id));
        let q = writer.osend(qry("a", 2), OccursAfter::none());
        let mut out = Emitter::new();

        // Member 1 applied both updates in order; member 2 as well (causal
        // delivery forces the chain); both answer identically.
        let mut m1 = RegistryReplica::new();
        m1.on_deliver(Delivered::from_graph(&u1), &mut out);
        m1.on_deliver(Delivered::from_graph(&u2), &mut out);
        m1.on_deliver(Delivered::from_graph(&q), &mut out);
        let mut m2 = RegistryReplica::new();
        m2.on_deliver(Delivered::from_graph(&u1), &mut out);
        m2.on_deliver(Delivered::from_graph(&u2), &mut out);
        m2.on_deliver(Delivered::from_graph(&q), &mut out);
        assert_eq!(m1.outcomes(), m2.outcomes());
        assert_eq!(m1.outcomes()[0].1, QryOutcome::Answered(Some("x2".into())));

        // A member that has applied only u1 discards instead of answering
        // "x1" (which would be wrong for this issuer).
        let mut m3 = RegistryReplica::new();
        m3.on_deliver(Delivered::from_graph(&u1), &mut out);
        m3.on_deliver(Delivered::from_graph(&q), &mut out);
        assert_eq!(m3.discarded(), 1);
    }
}
