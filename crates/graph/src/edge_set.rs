//! The [`crate::ClusterGraph`]'s set of cluster-level non-matching edges:
//! one open-addressing table of unordered `(slot, slot)` keys.
//!
//! Linear probing over a power-of-two `Vec<u64>` kept at most half full,
//! Fibonacci hashing. Insert-only: the graph never needs a key gone (see
//! its module docs), so there is no deletion to get right.

/// Free-cell marker. Never a key: a key's high half is the smaller id of
/// two distinct ids, so it is below `u32::MAX`.
const EMPTY: u64 = u64::MAX;
const MIN_CAPACITY: usize = 16;

/// Set of unordered pairs of distinct `u32`s.
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeSet {
    /// Empty until the first insert, then a power of two ≥ 2 × `len`.
    table: Vec<u64>,
    len: usize,
    /// `64 - log2(table.len())`: a hash's top bits are its home cell.
    shift: u32,
}

fn key(a: u32, b: u32) -> u64 {
    debug_assert_ne!(a, b, "an edge joins two distinct slots");
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    (u64::from(lo) << 32) | u64::from(hi)
}

impl EdgeSet {
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The cell holding `key`, or the free cell its probe sequence ends at.
    /// The table must be allocated.
    fn probe(&self, key: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut i = self.home(key);
        loop {
            let cell = self.table[i];
            if cell == key || cell == EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    pub(crate) fn contains(&self, a: u32, b: u32) -> bool {
        !self.table.is_empty() && self.table[self.probe(key(a, b))] != EMPTY
    }

    /// Adds the pair; `false` when it was already present.
    pub(crate) fn insert(&mut self, a: u32, b: u32) -> bool {
        if (self.len + 1) * 2 > self.table.len() {
            self.grow();
        }
        let key = key(a, b);
        let i = self.probe(key);
        if self.table[i] == key {
            return false;
        }
        self.table[i] = key;
        self.len += 1;
        true
    }

    fn grow(&mut self) {
        let capacity = (self.table.len() * 2).max(MIN_CAPACITY);
        let old = std::mem::replace(&mut self.table, vec![EMPTY; capacity]);
        self.shift = 64 - capacity.trailing_zeros();
        for key in old.into_iter().filter(|&k| k != EMPTY) {
            let i = self.probe(key);
            self.table[i] = key;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn empty_set_holds_nothing() {
        let s = EdgeSet::default();
        assert!(!s.contains(0, 1));
        assert!(!s.contains(1, 0));
    }

    #[test]
    fn pairs_are_unordered() {
        let mut s = EdgeSet::default();
        assert!(s.insert(3, 1));
        assert!(!s.insert(1, 3));
        assert!(s.contains(1, 3) && s.contains(3, 1));
        assert!(!s.contains(1, 2));
    }

    #[test]
    fn extreme_ids_are_not_the_free_marker() {
        let mut s = EdgeSet::default();
        assert!(s.insert(u32::MAX, u32::MAX - 1));
        assert!(s.contains(u32::MAX - 1, u32::MAX));
        assert!(s.insert(0, u32::MAX));
        assert!(s.contains(0, u32::MAX));
        assert!(!s.contains(0, u32::MAX - 1));
    }

    proptest! {
        /// Any insert sequence behaves like a `BTreeSet` of normalized
        /// pairs, across growth and probe runs that wrap around the table
        /// end.
        #[test]
        fn behaves_like_a_set(
            ops in proptest::collection::vec((0u32..24, 0u32..24), 0..400),
        ) {
            let mut fast = EdgeSet::default();
            let mut slow = BTreeSet::new();
            for (a, b) in ops {
                if a == b {
                    continue;
                }
                prop_assert_eq!(fast.insert(a, b), slow.insert((a.min(b), a.max(b))));
                prop_assert_eq!(fast.len, slow.len());
                for x in 0..24u32 {
                    for y in (x + 1)..24 {
                        prop_assert_eq!(fast.contains(x, y), slow.contains(&(x, y)));
                    }
                }
            }
        }
    }
}
