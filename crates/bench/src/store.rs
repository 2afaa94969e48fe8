//! Lazy, cached dataset generation shared across experiments.

use emogi_graph::{Dataset, DatasetKey};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One slot per `(dataset, scale)`; the slot outlives the map lock so two
/// datasets can generate at once while a second asker of the same one
/// waits for the first.
type Slot = Arc<OnceLock<Arc<Dataset>>>;

/// Every dataset generated by this process. Generation is a pure function
/// of `(key, scale)`, so every [`DatasetStore`] — one per [`Context`], one
/// `Context` per test — shares it.
///
/// [`Context`]: crate::Context
static GENERATED: Mutex<BTreeMap<(DatasetKey, usize), Slot>> = Mutex::new(BTreeMap::new());

/// Generates each Table 2 dataset at most once per process and scale.
#[derive(Debug, Clone)]
pub struct DatasetStore {
    scale: usize,
}

impl DatasetStore {
    pub fn new(scale: usize) -> Self {
        Self { scale }
    }

    pub fn scale(&self) -> usize {
        self.scale
    }

    /// Fetch (generating on first use) one dataset.
    pub fn get(&self, key: DatasetKey) -> Arc<Dataset> {
        let slot = {
            let mut generated = GENERATED
                .lock()
                .expect("nothing panics while holding the map lock");
            Arc::clone(generated.entry((key, self.scale)).or_default())
        };
        Arc::clone(slot.get_or_init(|| Arc::new(key.spec().generate_scaled(self.scale))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_generates_once_and_shares() {
        // Across stores and threads: the cache is the process's.
        let a = DatasetStore::new(64).get(DatasetKey::Gu);
        let b = std::thread::spawn(|| DatasetStore::new(64).get(DatasetKey::Gu))
            .join()
            .expect("generation does not panic");
        assert!(Arc::ptr_eq(&a, &b), "second fetch must reuse the first");
    }

    #[test]
    fn scale_divisor_shrinks_graphs() {
        let big = DatasetStore::new(32).get(DatasetKey::Gu);
        let small = DatasetStore::new(64).get(DatasetKey::Gu);
        assert!(small.graph.num_vertices() < big.graph.num_vertices());
    }
}
