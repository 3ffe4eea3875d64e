//! The [`crate::ClusterGraph`]'s slot-pair table: one open-addressing map
//! from unordered `(slot, slot)` keys to a `u64` value (an edge marker or a
//! pending list; the graph gives the values their meaning).
//!
//! Linear probing over a power-of-two key array kept at most half full,
//! Fibonacci hashing. The values sit in a parallel array, so a probe reads
//! keys only and a miss never touches a value. Insert-or-overwrite only:
//! the graph never needs a key gone (see its module docs), so there is no
//! deletion to get right. An absent key reads as [`VACANT`].

/// The value of every key never written. The graph never stores it.
pub(crate) const VACANT: u64 = u64::MAX;
/// Free-cell marker. Never a key: a key's high half is the smaller id of
/// two distinct ids, so it is below `u32::MAX`.
const EMPTY: u64 = u64::MAX;
const MIN_CAPACITY: usize = 16;

/// Map from unordered pairs of distinct `u32`s to `u64`s.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotPairMap {
    /// Empty until the first insert, then a power of two ≥ 2 × `len`.
    keys: Vec<u64>,
    /// `values[i]` belongs to `keys[i]`.
    values: Vec<u64>,
    len: usize,
    /// `64 - log2(keys.len())`: a hash's top bits are its home cell.
    shift: u32,
}

fn key(a: u32, b: u32) -> u64 {
    debug_assert_ne!(a, b, "a key joins two distinct slots");
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    (u64::from(lo) << 32) | u64::from(hi)
}

impl SlotPairMap {
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The cell holding `key`, or the free cell its probe sequence ends at.
    /// The table must be allocated.
    fn probe(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = self.home(key);
        loop {
            let cell = self.keys[i];
            if cell == key || cell == EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The value under `{a, b}`, or [`VACANT`].
    pub(crate) fn get(&self, a: u32, b: u32) -> u64 {
        if self.keys.is_empty() {
            return VACANT;
        }
        let i = self.probe(key(a, b));
        if self.keys[i] == EMPTY {
            VACANT
        } else {
            self.values[i]
        }
    }

    /// The value cell of `{a, b}`, holding [`VACANT`] when the key is new;
    /// the caller writes through it.
    pub(crate) fn entry(&mut self, a: u32, b: u32) -> &mut u64 {
        if (self.len + 1) * 2 > self.keys.len() {
            self.grow();
        }
        let key = key(a, b);
        let i = self.probe(key);
        if self.keys[i] == EMPTY {
            self.keys[i] = key;
            self.values[i] = VACANT;
            self.len += 1;
        }
        &mut self.values[i]
    }

    fn grow(&mut self) {
        let capacity = (self.keys.len() * 2).max(MIN_CAPACITY);
        let keys = std::mem::replace(&mut self.keys, vec![EMPTY; capacity]);
        let values = std::mem::replace(&mut self.values, vec![VACANT; capacity]);
        self.shift = 64 - capacity.trailing_zeros();
        for (key, value) in keys.into_iter().zip(values).filter(|&(k, _)| k != EMPTY) {
            let i = self.probe(key);
            self.keys[i] = key;
            self.values[i] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn empty_set_holds_nothing() {
        let s = SlotPairMap::default();
        assert_eq!(s.get(0, 1), VACANT);
        assert_eq!(s.get(1, 0), VACANT);
    }

    #[test]
    fn pairs_are_unordered() {
        let mut s = SlotPairMap::default();
        *s.entry(3, 1) = 7;
        assert_eq!(*s.entry(1, 3), 7);
        assert_eq!((s.get(1, 3), s.get(3, 1)), (7, 7));
        assert_eq!(s.get(1, 2), VACANT);
    }

    #[test]
    fn extreme_ids_are_not_the_free_marker() {
        let mut s = SlotPairMap::default();
        *s.entry(u32::MAX, u32::MAX - 1) = 1;
        assert_eq!(s.get(u32::MAX - 1, u32::MAX), 1);
        *s.entry(0, u32::MAX) = 2;
        assert_eq!(s.get(0, u32::MAX), 2);
        assert_eq!(s.get(0, u32::MAX - 1), VACANT);
    }

    proptest! {
        /// Any sequence of sets and overwrites behaves like a `BTreeMap` of
        /// normalized pairs, across growth and probe runs that wrap around
        /// the table end.
        #[test]
        fn behaves_like_a_map(
            ops in proptest::collection::vec((0u32..24, 0u32..24, 0u64..4), 0..400),
        ) {
            let mut fast = SlotPairMap::default();
            let mut slow = BTreeMap::new();
            for (a, b, value) in ops {
                if a == b {
                    continue;
                }
                let cell = fast.entry(a, b);
                let old = slow.insert((a.min(b), a.max(b)), value);
                prop_assert_eq!(*cell, old.unwrap_or(VACANT));
                *cell = value;
                prop_assert_eq!(fast.len, slow.len());
                for x in 0..24u32 {
                    for y in (x + 1)..24 {
                        prop_assert_eq!(fast.get(x, y), slow.get(&(x, y)).copied().unwrap_or(VACANT));
                    }
                }
            }
        }
    }
}
