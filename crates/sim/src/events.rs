//! A deterministic discrete-event queue.
//!
//! The executor in `emogi-runtime` drives the whole machine from one of
//! these. Ties are broken by insertion order so simulations are
//! bit-reproducible regardless of the event payload type.

use crate::time::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry carries its event; only `(at, seq)` orders it, so the
/// payload type needs no ordering (nor `Copy`).
#[derive(Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    /// Reversed: `BinaryHeap` is a max-heap and the earliest entry pops
    /// first.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Min-heap of timestamped events with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    #[inline]
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, ev: event });
    }

    /// Remove and return the earliest event (FIFO among equal timestamps).
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|e| (e.at, e.ev))
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(5, i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    /// Random interleaved pushes and pops against the definition: a pop
    /// returns the pending event that is first in a stable sort by
    /// `(at, push order)`. The payload is neither `Copy` nor `Ord`.
    #[test]
    fn random_interleaving_equals_a_stable_sort() {
        #[derive(Debug, PartialEq)]
        struct Payload(String);
        let mut rng = StdRng::seed_from_u64(20260928);
        let mut q = EventQueue::new();
        let mut pending: Vec<(Time, u64)> = Vec::new();
        let mut pushed = 0u64;
        for _ in 0..20_000 {
            if pending.is_empty() || rng.gen_bool(0.55) {
                // Few distinct times, so ties are the common case.
                let at = rng.gen_range(0..64u64);
                q.push(at, Payload(pushed.to_string()));
                pending.push((at, pushed));
                pushed += 1;
            } else {
                let first = *pending.iter().min().expect("non-empty");
                pending.retain(|&p| p != first);
                assert_eq!(q.pop(), Some((first.0, Payload(first.1.to_string()))));
            }
            assert_eq!(q.len(), pending.len());
        }
        pending.sort_unstable();
        for (at, id) in pending {
            assert_eq!(q.pop(), Some((at, Payload(id.to_string()))));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(10, 1);
        q.push(5, 0);
        assert_eq!(q.pop(), Some((5, 0)));
        q.push(7, 2);
        assert_eq!(q.pop(), Some((7, 2)));
        assert_eq!(q.pop(), Some((10, 1)));
    }
}
