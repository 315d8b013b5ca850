//! A dependency-free open-addressed hash map keyed by `u64`, used in place
//! of `std::collections::HashMap`.
//!
//! `std`'s map defaults to SipHash-1-3, a keyed hash designed to resist
//! collision flooding from untrusted input. Simulated line addresses are
//! not untrusted input, and the SipHash rounds dominated the lookups that
//! run on *every* simulated access (see DESIGN.md §6). `LineMap` instead
//! uses Fibonacci (golden-ratio) integer hashing with linear probing over a
//! power-of-two table — the same design point as the well-known
//! `FxHashMap`, specialised to `u64` keys.
//!
//! **Which table for which keys.** Fibonacci hashing scatters consecutive
//! keys over the whole table, so a walk over neighbouring lines is a walk
//! over random host cache lines: two misses per new key (key array, value
//! array) that no prefetcher sees. That is the price of hashing, and it is
//! only worth paying where keys are few and sparse. The rule:
//!
//! * **hashed (`LineMap`) for sparse, small maps** — the runner's flags and
//!   waiters, the checker's per-line history and shadow memory, the model
//!   checker's state index, the page index inside `PagedLines`;
//! * **paged ([`crate::paged::PagedLines`]) for line-dense footprints** —
//!   the directory, the memory-side-cache tags, the hot-line profile: one
//!   entry per line (or set) a workload touches, walked mostly in order.
//!
//! Determinism: iteration order of the table depends on insertion history,
//! exactly like `HashMap` (minus the per-process random seed). `LineMap`
//! deliberately exposes no iterator; callers that need to walk entries use
//! [`LineMap::sorted_keys`], which is order-stable by construction. This is
//! what makes the replacement behaviour-identical; the crate's `clippy.toml`
//! bans the std map itself. The one slot-order walk,
//! `LineMap::for_each_unordered`, serves `PagedLines`' order-free
//! reduction and nothing else.
//!
//! One key value is reserved: `u64::MAX` marks an empty slot. Line
//! addresses are physical addresses shifted right by 6, so the sentinel is
//! unreachable in practice; it is `debug_assert`ed at the API boundary.

/// Reserved key marking an empty slot.
const EMPTY: u64 = u64::MAX;

/// 2^64 / φ, the Fibonacci hashing multiplier.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Open-addressed `u64 -> V` map with Fibonacci hashing and linear probing.
///
/// Values must implement [`Default`] so vacated and never-used slots can
/// hold an inert placeholder without `unsafe` uninitialised storage.
#[derive(Debug, Clone)]
pub struct LineMap<V> {
    /// Slot keys; `EMPTY` marks a free slot. Separate from `vals` so the
    /// probe loop only touches this dense array.
    keys: Vec<u64>,
    vals: Vec<V>,
    len: usize,
}

impl<V: Default> Default for LineMap<V> {
    fn default() -> Self {
        LineMap::new()
    }
}

impl<V: Default> LineMap<V> {
    /// An empty map. Allocates nothing until the first insert.
    pub fn new() -> Self {
        LineMap {
            keys: Vec::new(),
            vals: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot index for `key` at the current capacity.
    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        // Fibonacci hashing: the high bits of key*φ are well mixed even for
        // sequential keys — no clustering, and no locality either: line-
        // dense tables use `PagedLines` (module docs).
        let h = key.wrapping_mul(PHI);
        (h >> (64 - self.keys.len().trailing_zeros())) as usize
    }

    /// Find the slot holding `key`, or the empty slot where it would go.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let mask = self.keys.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            let k = self.keys[i];
            if k == key || k == EMPTY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Shared-reference lookup.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        debug_assert_ne!(key, EMPTY, "u64::MAX is reserved");
        if self.keys.is_empty() {
            return None;
        }
        let i = self.probe(key);
        (self.keys[i] == key).then(|| &self.vals[i])
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        debug_assert_ne!(key, EMPTY, "u64::MAX is reserved");
        if self.keys.is_empty() {
            return None;
        }
        let i = self.probe(key);
        if self.keys[i] == key {
            Some(&mut self.vals[i])
        } else {
            None
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Insert `val` under `key`, returning the previous value if any.
    pub fn insert(&mut self, key: u64, val: V) -> Option<V> {
        let slot = self.entry_slot(key);
        let prev = std::mem::replace(&mut self.vals[slot], val);
        if self.keys[slot] == key {
            Some(prev)
        } else {
            self.keys[slot] = key;
            self.len += 1;
            None
        }
    }

    /// Mutable reference to the value under `key`, inserting
    /// `V::default()` first if absent (the `entry(k).or_default()` idiom).
    #[inline]
    pub fn get_or_insert_default(&mut self, key: u64) -> &mut V {
        let slot = self.entry_slot(key);
        if self.keys[slot] != key {
            self.keys[slot] = key;
            self.vals[slot] = V::default();
            self.len += 1;
        }
        &mut self.vals[slot]
    }

    /// Slot where `key` lives or should be inserted, growing first if the
    /// insert could push load factor past 3/4.
    #[inline]
    fn entry_slot(&mut self, key: u64) -> usize {
        debug_assert_ne!(key, EMPTY, "u64::MAX is reserved");
        if self.keys.is_empty() || (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        self.probe(key)
    }

    /// Remove `key`, returning its value if present. Uses backward-shift
    /// deletion so no tombstones accumulate.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        debug_assert_ne!(key, EMPTY, "u64::MAX is reserved");
        if self.keys.is_empty() {
            return None;
        }
        let mask = self.keys.len() - 1;
        let mut hole = self.probe(key);
        if self.keys[hole] != key {
            return None;
        }
        let out = std::mem::take(&mut self.vals[hole]);
        self.keys[hole] = EMPTY;
        self.len -= 1;
        // Backward-shift: re-seat any displaced entries in the run after
        // the hole so future probes still find them.
        let mut i = (hole + 1) & mask;
        while self.keys[i] != EMPTY {
            let home = self.slot_of(self.keys[i]);
            // `i` wants to be at `home`; move it into the hole if the hole
            // lies cyclically between home and i.
            let between = if hole <= i {
                home <= hole || home > i
            } else {
                home <= hole && home > i
            };
            if between {
                self.keys[hole] = self.keys[i];
                self.vals.swap(hole, i);
                self.keys[i] = EMPTY;
                self.vals[i] = V::default();
                hole = i;
            }
            i = (i + 1) & mask;
        }
        Some(out)
    }

    /// Drop all entries, keeping capacity. Free on an empty map; otherwise
    /// one pass over the keys, resetting values only in occupied slots
    /// (a free slot already holds `V::default()`: `grow` fills with it and
    /// `remove` leaves it behind).
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        for (k, v) in self.keys.iter_mut().zip(&mut self.vals) {
            if *k != EMPTY {
                *k = EMPTY;
                *v = V::default();
            }
        }
        self.len = 0;
    }

    /// All keys in ascending order. This is the only way to walk a
    /// `LineMap`, so entry order can never leak into observable output.
    pub fn sorted_keys(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self.keys.iter().copied().filter(|&k| k != EMPTY).collect();
        out.sort_unstable();
        out
    }

    /// Hand every `(key, &value)` to `f` in slot order, which depends on
    /// the insertion history. Only for
    /// [`crate::paged::PagedLines::for_each_unordered`].
    pub(crate) fn for_each_unordered(&self, mut f: impl FnMut(u64, &V)) {
        for (&k, v) in self.keys.iter().zip(&self.vals) {
            if k != EMPTY {
                f(k, v);
            }
        }
    }

    /// Double (or initially allocate) the table and re-seat every entry.
    fn grow(&mut self) {
        let new_cap = (self.keys.len() * 2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_vals = std::mem::take(&mut self.vals);
        self.vals = Vec::with_capacity(new_cap);
        self.vals.resize_with(new_cap, V::default);
        let mask = new_cap - 1;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k == EMPTY {
                continue;
            }
            let mut i = self.slot_of(k);
            while self.keys[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.vals[i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_lookups() {
        let m: LineMap<u64> = LineMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(7), None);
        assert!(!m.contains_key(7));
    }

    #[test]
    fn insert_get_overwrite() {
        let mut m = LineMap::new();
        assert_eq!(m.insert(1, 10u64), None);
        assert_eq!(m.insert(2, 20), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.get(1), Some(&11));
        assert_eq!(m.get(2), Some(&20));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn get_or_insert_default_is_entry_or_default() {
        let mut m: LineMap<u64> = LineMap::new();
        *m.get_or_insert_default(5) += 3;
        *m.get_or_insert_default(5) += 4;
        assert_eq!(m.get(5), Some(&7));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn remove_and_backward_shift() {
        let mut m = LineMap::new();
        for k in 0..100u64 {
            m.insert(k, k * 2);
        }
        for k in (0..100).step_by(2) {
            assert_eq!(m.remove(k), Some(k * 2), "remove {k}");
        }
        assert_eq!(m.len(), 50);
        for k in 0..100u64 {
            if k % 2 == 0 {
                assert_eq!(m.get(k), None, "{k} should be gone");
            } else {
                assert_eq!(m.get(k), Some(&(k * 2)), "{k} should survive");
            }
        }
        assert_eq!(m.remove(98), None);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut m = LineMap::new();
        // Sequential line addresses, the common case.
        for k in 0..10_000u64 {
            m.insert(k, k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k), Some(&k));
        }
    }

    #[test]
    fn clear_keeps_capacity_and_empties() {
        let mut m = LineMap::new();
        m.insert(1, 1u64);
        m.insert(2, 2);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(1), None);
        m.insert(3, 3);
        assert_eq!(m.get(3), Some(&3));
    }

    #[test]
    fn clear_of_a_grown_map_drops_values_and_leaves_a_fresh_table() {
        use std::rc::Rc;
        let token = Rc::new(());
        let mut m: LineMap<Vec<Rc<()>>> = LineMap::new();
        m.clear(); // nothing allocated yet
        assert_eq!(m.keys.len(), 0);
        for k in 0..3500u64 {
            m.insert(k * 64, vec![token.clone()]);
        }
        // Leave holes and shifted runs behind, as the directory does.
        for k in (0..3500u64).step_by(7) {
            m.remove(k * 64);
        }
        let slots = m.keys.len();
        assert!(slots >= 4096);
        assert_eq!(Rc::strong_count(&token), 1 + m.len());

        m.clear();
        assert_eq!(m.len(), 0);
        assert_eq!(m.keys.len(), slots, "capacity kept");
        assert_eq!(Rc::strong_count(&token), 1, "heap values dropped");
        assert!((0..3500u64).all(|k| !m.contains_key(k * 64)));
        assert!(m.vals.iter().all(Vec::is_empty), "free slots hold defaults");
        m.clear(); // second clear in a row
        assert_eq!((m.len(), m.keys.len()), (0, slots));

        // Refilled, it reads like a map that was never used before.
        let mut fresh: LineMap<Vec<Rc<()>>> = LineMap::new();
        for k in (0..500u64).rev() {
            m.insert(k * 3, vec![token.clone(); (k % 3) as usize]);
            fresh.insert(k * 3, vec![token.clone(); (k % 3) as usize]);
        }
        assert_eq!(m.sorted_keys(), fresh.sorted_keys());
        for k in fresh.sorted_keys() {
            assert_eq!(m.get(k).map(Vec::len), fresh.get(k).map(Vec::len));
        }
    }

    #[test]
    fn sorted_keys_is_sorted_regardless_of_insertion_order() {
        let mut m = LineMap::new();
        for k in [9u64, 3, 7, 1, 1 << 40, 5] {
            m.insert(k, ());
        }
        assert_eq!(m.sorted_keys(), vec![1, 3, 5, 7, 9, 1 << 40]);
    }

    #[test]
    fn colliding_run_survives_mid_run_removal() {
        // Dense sequential keys produce probe runs once load rises; delete
        // from the middle of runs and verify every survivor stays findable.
        let mut m = LineMap::new();
        for k in 0..48u64 {
            m.insert(k, k + 1);
        }
        for k in 10..20u64 {
            m.remove(k);
        }
        for k in 0..48u64 {
            let expect = if (10..20).contains(&k) {
                None
            } else {
                Some(k + 1)
            };
            assert_eq!(m.get(k).copied(), expect, "key {k}");
        }
    }

    #[test]
    #[expect(clippy::disallowed_types, reason = "std map as the reference model")]
    fn matches_std_hashmap_on_random_workload() {
        // Deterministic xorshift exercise mixing inserts/removes/lookups.
        let mut model = std::collections::HashMap::new();
        let mut m = LineMap::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 512; // small keyspace to force collisions/overwrites
            match x % 3 {
                0 => {
                    assert_eq!(m.insert(key, x), model.insert(key, x));
                }
                1 => {
                    assert_eq!(m.remove(key), model.remove(&key));
                }
                _ => {
                    assert_eq!(m.get(key), model.get(&key));
                }
            }
            assert_eq!(m.len(), model.len());
        }
    }
}
