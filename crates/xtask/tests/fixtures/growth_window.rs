//! Bad fixture for `bounded-growth` on `IdWindow` fields: a
//! ReliableBroadcast whose `seen` window is only ever inserted into
//! (no `compact`, `advance` or `remove` anywhere), beside an `outgoing`
//! window that an acknowledgement retires. Loaded at the real
//! reliability-layer path so the pass's declared struct and root sets
//! bind to it.

pub struct ReliableBroadcast<E> {
    outgoing: IdWindow<E>,
    seen: IdWindow<()>,
}

impl<E> ReliableBroadcast<E> {
    pub fn broadcast(&mut self, id: MsgId, env: E) {
        self.seen.insert(id, ());
        self.outgoing.insert(id, env);
    }

    pub fn on_data(&mut self, id: MsgId) -> bool {
        self.seen.insert(id, ()).is_none()
    }

    pub fn on_data_at(&mut self, id: MsgId) -> bool {
        self.on_data(id)
    }

    pub fn take_acks(&mut self) {}

    pub fn on_ack(&mut self, id: MsgId) {
        self.outgoing.remove(id);
    }

    pub fn remove_peer(&mut self, peer: ProcessId) {
        let _ = peer;
    }

    // Forgets to raise `seen`'s floors: the stable prefix is never
    // retired.
    pub fn compact(&mut self, stable: &VectorClock) {
        let _ = stable;
    }
}
