//! Bad fixture for `bounded-growth`: a PcEngine whose long-lived state
//! violates the rule three ways — `links` and `watermark` only ever
//! grow, and `gate` shrinks only in a cleanup function nothing on a
//! declared GC root ever calls. Loaded at the real engine path so the
//! pass's declared struct and root sets bind to it.

pub struct PcEngine {
    links: BTreeMap<ProcessId, Link>,
    watermark: BTreeMap<ProcessId, u64>,
    gate: BTreeMap<ProcessId, u64>,
}

impl PcEngine {
    pub fn ingest(&mut self, origin: ProcessId, seq: u64) {
        self.links.insert(origin, Link::new(origin));
        self.watermark.insert(origin, seq);
        self.gate.insert(origin, seq);
    }

    pub fn on_members(&mut self, members: &[ProcessId]) {
        for m in members {
            self.watermark.insert(*m, 0);
        }
    }

    pub fn on_link_frame_into(&mut self, from: ProcessId) {
        self.watermark.insert(from, 0);
    }

    // Never called from ingest, on_members or on_link_frame_into: the
    // shrink exists but is unreachable from every declared GC root.
    pub fn cleanup(&mut self) {
        self.gate.clear();
    }
}
