//! The client front-end manager of §6.1.
//!
//! The paper's base replicated-data-access protocol puts a *front-end
//! manager* at each client: it "keeps track of the occurrence of
//! commutative and non-commutative operations, and generates message
//! labels along with the ordering". Its code skeleton (§6.1) is reproduced
//! here verbatim as [`FrontEndManager::submit`]:
//!
//! ```text
//! if (operation is non-commutative)
//!     if ({Cid} = ∅) OSend(rqst, RPC-GRP, Occurs-After(Ncid - 1));
//!     else           OSend(rqst, RPC-GRP, Occurs-After(∧{Cid}));
//!     {Cid} := ∅;
//! if (operation is commutative)
//!     OSend(rqst, RPC-GRP, Occurs-After(Ncid - 1));
//!     insert id from Msg in {Cid}.
//! ```
//!
//! The resulting relation is exactly the processing-cycle structure
//! `Ncid(r-1) → ‖{Cid}(r) → Ncid(r)`, so every non-commutative request is
//! a stable point at every replica.

use causal_clocks::MsgId;
use causal_core::osend::{GraphEnvelope, OSender, OccursAfter};
use causal_core::statemachine::OpClass;

/// Per-client ordering generator implementing the §6.1 skeleton.
///
/// # Examples
///
/// ```
/// use causal_clocks::ProcessId;
/// use causal_core::osend::OSender;
/// use causal_core::statemachine::OpClass;
/// use causal_replica::frontend::FrontEndManager;
///
/// let mut tx = OSender::new(ProcessId::new(0));
/// let mut fe = FrontEndManager::new();
///
/// let nc0 = fe.submit(&mut tx, "set", OpClass::NonCommutative);
/// let c1 = fe.submit(&mut tx, "inc", OpClass::Commutative);
/// let c2 = fe.submit(&mut tx, "dec", OpClass::Commutative);
/// let nc1 = fe.submit(&mut tx, "read", OpClass::NonCommutative);
///
/// assert!(nc0.deps.is_empty());
/// assert_eq!(*c1.deps, [nc0.id]);        // ordered after last nc
/// assert_eq!(*c2.deps, [nc0.id]);        // concurrent with c1
/// assert_eq!(*nc1.deps, [c1.id, c2.id]); // AND over the open set
/// ```
#[derive(Debug, Clone, Default)]
pub struct FrontEndManager {
    last_nc: Option<MsgId>,
    open_cids: Vec<MsgId>,
}

impl FrontEndManager {
    /// Creates a manager with no requests issued.
    pub fn new() -> Self {
        FrontEndManager::default()
    }

    /// The ordering predicate the next request of `class` would carry,
    /// without submitting anything.
    pub fn ordering_for(&self, class: OpClass) -> OccursAfter {
        match class {
            OpClass::NonCommutative if !self.open_cids.is_empty() => {
                OccursAfter::all(self.open_cids.iter().copied())
            }
            _ => match self.last_nc {
                Some(nc) => OccursAfter::message(nc),
                None => OccursAfter::none(),
            },
        }
    }

    /// Submits one request through `sender`, generating the §6.1 ordering
    /// and updating the `Ncid`/`{Cid}` bookkeeping.
    pub fn submit<P>(
        &mut self,
        sender: &mut OSender,
        payload: P,
        class: OpClass,
    ) -> GraphEnvelope<P> {
        let after = self.ordering_for(class);
        let env = sender.osend(payload, after);
        self.record(env.id, class);
        env
    }

    /// Records an externally submitted request (when the caller performed
    /// the `OSend` itself, e.g. through a
    /// [`CausalNode`](causal_core::stack::CausalNode)).
    pub fn record(&mut self, id: MsgId, class: OpClass) {
        match class {
            OpClass::NonCommutative => {
                self.last_nc = Some(id);
                self.open_cids.clear();
            }
            OpClass::Commutative => self.open_cids.push(id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use causal_clocks::ProcessId;
    use causal_core::stable::StablePointDetector;
    use causal_verify::check;

    fn manager_and_sender() -> (FrontEndManager, OSender) {
        (FrontEndManager::new(), OSender::new(ProcessId::new(0)))
    }

    #[test]
    fn first_request_unconstrained() {
        let (mut fe, mut tx) = manager_and_sender();
        let env = fe.submit(&mut tx, (), OpClass::NonCommutative);
        assert!(env.deps.is_empty());
        let next = OccursAfter::message(env.id);
        assert_eq!(fe.ordering_for(OpClass::Commutative), next);
    }

    #[test]
    fn commutative_requests_stay_concurrent() {
        let (mut fe, mut tx) = manager_and_sender();
        let nc = fe.submit(&mut tx, (), OpClass::NonCommutative);
        let c1 = fe.submit(&mut tx, (), OpClass::Commutative);
        let c2 = fe.submit(&mut tx, (), OpClass::Commutative);
        assert_eq!(*c1.deps, [nc.id]);
        assert_eq!(*c2.deps, [nc.id]);
        let closing = OccursAfter::all([c1.id, c2.id]);
        assert_eq!(fe.ordering_for(OpClass::NonCommutative), closing);
    }

    #[test]
    fn nc_after_empty_cid_set_orders_on_previous_nc() {
        let (mut fe, mut tx) = manager_and_sender();
        let nc0 = fe.submit(&mut tx, (), OpClass::NonCommutative);
        let nc1 = fe.submit(&mut tx, (), OpClass::NonCommutative);
        assert_eq!(*nc1.deps, [nc0.id]);
        let next = OccursAfter::message(nc1.id);
        assert_eq!(fe.ordering_for(OpClass::NonCommutative), next);
    }

    #[test]
    fn nc_closes_the_open_cid_set() {
        let (mut fe, mut tx) = manager_and_sender();
        fe.submit(&mut tx, (), OpClass::NonCommutative);
        let c1 = fe.submit(&mut tx, (), OpClass::Commutative);
        let c2 = fe.submit(&mut tx, (), OpClass::Commutative);
        let nc = fe.submit(&mut tx, (), OpClass::NonCommutative);
        let mut want = [c1.id, c2.id];
        want.sort_unstable();
        assert_eq!(*nc.deps, want);
        let next = OccursAfter::message(nc.id);
        assert_eq!(fe.ordering_for(OpClass::NonCommutative), next);
    }

    #[test]
    fn ordering_for_is_pure() {
        let (mut fe, mut tx) = manager_and_sender();
        fe.submit(&mut tx, (), OpClass::NonCommutative);
        let before = fe.ordering_for(OpClass::Commutative);
        let again = fe.ordering_for(OpClass::Commutative);
        assert_eq!(before, again);
    }

    /// The generated relation makes every nc a stable point at every
    /// replica — the protocol's purpose.
    #[test]
    fn generated_cycles_produce_reproducible_stable_points() {
        let (mut fe, mut tx) = manager_and_sender();
        let mut envs = Vec::new();
        for cycle in 0..3 {
            envs.push((fe.submit(&mut tx, (), OpClass::NonCommutative), true));
            for _ in 0..cycle + 1 {
                envs.push((fe.submit(&mut tx, (), OpClass::Commutative), false));
            }
        }
        envs.push((fe.submit(&mut tx, (), OpClass::NonCommutative), true));

        // Two replicas process interiors in opposite orders.
        let forward: Vec<_> = envs
            .iter()
            .map(|(e, s)| causal_core::stable::LogEntry::new(e.id, e.deps.to_vec(), *s))
            .collect();
        let mut reversed = Vec::new();
        let mut i = 0;
        while i < envs.len() {
            if envs[i].1 {
                reversed.push(forward[i].clone());
                i += 1;
            } else {
                let mut run = Vec::new();
                while i < envs.len() && !envs[i].1 {
                    run.push(forward[i].clone());
                    i += 1;
                }
                run.reverse();
                reversed.extend(run);
            }
        }
        assert!(check::stable_points_consistent(&[forward.clone(), reversed]).is_ok());

        let mut det = StablePointDetector::new();
        let points: Vec<_> = forward
            .iter()
            .filter_map(|e| det.on_deliver(e.id, &e.deps, e.sync_candidate))
            .collect();
        assert_eq!(points.len(), 4); // every nc is a stable point
    }
}
