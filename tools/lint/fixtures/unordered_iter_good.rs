// Known-good: point lookups are always fine; iteration is fine when the
// result is explicitly sorted, or collected into an ordered container,
// before the order can escape.
use std::collections::{BTreeMap, HashMap};

pub struct Pending {
    lines: HashMap<u64, u32>,
}

impl Pending {
    pub fn lookup(&self, addr: u64) -> Option<u32> {
        self.lines.get(&addr).copied()
    }

    pub fn flush_sorted(&mut self, out: &mut Vec<u64>) {
        let mut addrs: Vec<u64> = self.lines.keys().copied().collect();
        addrs.sort_unstable();
        out.extend(addrs);
        self.lines.clear();
    }

    pub fn waiters_by_addr(&self) -> Vec<u32> {
        let by_addr: BTreeMap<u64, u32> = self.lines.iter().map(|(&a, &w)| (a, w)).collect();
        by_addr.into_values().collect()
    }
}
