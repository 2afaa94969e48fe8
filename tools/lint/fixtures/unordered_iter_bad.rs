// Known-bad: the executor drains its in-flight map in hash order and
// lets that order reach a stats counter — the bug class the equivalence
// suites can only see once a pinned number moves.
use std::collections::{BinaryHeap, HashMap};

pub struct Pending {
    lines: HashMap<u64, u32>,
}

impl Pending {
    pub fn flush(&mut self, out: &mut Vec<u64>) {
        for (addr, _) in self.lines.drain() {
            out.push(addr); // hash order escapes into `out`
        }
    }

    pub fn waiters(&self) -> Vec<u32> {
        self.lines.values().copied().collect()
    }

    pub fn heap_order(&self) -> Vec<u32> {
        // A heap's internal layout depends on insertion order: hash
        // order leaks through `into_vec`.
        let heap: BinaryHeap<u32> = self.lines.values().copied().collect();
        heap.into_vec()
    }
}
