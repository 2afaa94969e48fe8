//! The one keyed results container every `measure` returns.

use std::fmt::Debug;

/// An experiment's measurements in table-row order, each under the key
/// (program, engine, scenario × mode, ...) its row is looked up by.
#[derive(Debug, Clone)]
pub struct Results<K, M> {
    pub rows: Vec<(K, M)>,
}

impl<K: Copy + PartialEq + Debug, M> Results<K, M> {
    /// Look up one measurement; panics naming the missing key *and* the
    /// keys that were measured, so a failed lookup is diagnosable at a
    /// glance.
    pub fn get(&self, key: K) -> &M {
        match self.rows.iter().find(|(k, _)| *k == key) {
            Some((_, m)) => m,
            None => {
                let have: Vec<K> = self.rows.iter().map(|&(k, _)| k).collect();
                panic!("no measurement for {key:?}; measured: {have:?}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(
        expected = r#"no measurement for ("cc", "hub"); measured: [("cc", "original")]"#
    )]
    fn missing_key_lookup_names_the_key_and_the_measured_keys() {
        let r = Results {
            rows: vec![(("cc", "original"), 1u64)],
        };
        let _ = r.get(("cc", "hub"));
    }
}
