//! Bad fixture for `bounded-growth` on `IdWindow` fields: a
//! ReliableBroadcast whose `seen` window is only ever inserted into
//! (no `compact`, `advance` or `remove` anywhere) and whose `gated`
//! window is only ever offered to (its parked ids are never popped),
//! beside an `outgoing` window that an acknowledgement retires and a
//! `released` gate that `pop_next` drains on compaction. Loaded at the real
//! reliability-layer path so the pass's declared struct and root sets
//! bind to it.

pub struct ReliableBroadcast<E> {
    outgoing: IdWindow<E>,
    seen: IdWindow<()>,
    gated: IdWindow<E>,
    released: IdWindow<E>,
}

impl<E> ReliableBroadcast<E> {
    pub fn broadcast(&mut self, id: MsgId, env: E) {
        self.seen.insert(id, ());
        self.outgoing.insert(id, env);
    }

    pub fn on_data(&mut self, id: MsgId) -> bool {
        self.seen.insert(id, ()).is_none()
    }

    // Parks what arrives ahead of its predecessor and never releases it.
    pub fn gate(&mut self, id: MsgId, env: E) -> bool {
        matches!(self.gated.offer(id, env), Offer::Next(_))
    }

    pub fn release(&mut self, id: MsgId, env: E) {
        if let Offer::Next(_) = self.released.offer(id, env) {
            while self.released.pop_next(id.origin()).is_some() {}
        }
    }

    pub fn on_data_at(&mut self, id: MsgId, env: E) -> bool {
        self.release(id, env);
        self.gate(id, env) && self.on_data(id)
    }

    pub fn take_acks(&mut self) {}

    pub fn on_ack(&mut self, id: MsgId) {
        self.outgoing.remove(id);
    }

    pub fn remove_peer(&mut self, peer: ProcessId) {
        let _ = peer;
    }

    // Forgets to raise `seen`'s floors: the stable prefix is never
    // retired. It does release what `released` parked.
    pub fn compact(&mut self, stable: &VectorClock) {
        for (origin, _) in stable.iter() {
            while self.released.pop_next(origin).is_some() {}
        }
    }
}
