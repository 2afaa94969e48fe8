// Known-bad: a copy lane tracking its in-flight tickets in a hash map
// and draining completions in hash order — the completion order would
// leak into adoption stalls and, through the evict-to-fit pass, into
// which speculative stages survive a round.
use std::collections::HashMap;

pub struct Lane {
    inflight: HashMap<u64, u64>,
}

impl Lane {
    pub fn drain_completed(&mut self, at: u64, out: &mut Vec<u64>) {
        for (id, done) in self.inflight.drain() {
            if done <= at {
                out.push(id); // hash order escapes into the completion stream
            }
        }
    }

    pub fn pending_ids(&self) -> Vec<u64> {
        self.inflight.keys().copied().collect()
    }
}
