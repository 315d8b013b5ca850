//! Set-associative tag arrays with LRU replacement.
//!
//! The simulator keeps *real* tag arrays for every L1 and L2 so that
//! capacity and conflict behaviour is genuine. Only tags are stored; data
//! never exists (timing simulation only).
//!
//! Invalidation is handled by versioning rather than eager removal: the
//! coherence layer bumps a per-line version on ownership changes, and a tag
//! hit only counts if the stored version matches (see `mesif`).

use knl_arch::LINE_SHIFT;

/// Result of inserting a line into a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insert {
    /// The line was already present (refreshed LRU).
    Hit,
    /// Inserted into a free way.
    Placed,
    /// Inserted, evicting the returned line address.
    Evicted(u64),
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    /// Line address (full address >> 6), or `u64::MAX` when empty.
    tag: u64,
    /// Version stamp assigned by the caller (coherence epoch).
    version: u32,
    /// LRU stamp; larger = more recent.
    lru: u64,
}

const EMPTY: u64 = u64::MAX;

/// A set-associative tag cache.
#[derive(Debug, Clone)]
pub struct TagCache {
    ways: usize,
    sets: usize,
    slots: Vec<Way>,
    tick: u64,
}

impl TagCache {
    /// Build a cache of `capacity_bytes` with `ways` associativity and 64 B
    /// lines.
    ///
    /// # Panics
    /// Panics unless `capacity_bytes` is a multiple of `ways * 64`.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        let lines = (capacity_bytes >> LINE_SHIFT) as usize;
        assert!(
            ways > 0 && lines.is_multiple_of(ways),
            "capacity must be a multiple of ways*64"
        );
        let sets = lines / ways;
        assert!(
            sets.is_power_of_two(),
            "number of sets must be a power of two, got {sets}"
        );
        TagCache {
            ways,
            sets,
            slots: vec![
                Way {
                    tag: EMPTY,
                    version: 0,
                    lru: 0
                };
                lines
            ],
            tick: 0,
        }
    }

    /// KNL L1D: 32 KB, 8-way.
    pub fn knl_l1() -> Self {
        TagCache::new(32 << 10, 8)
    }

    /// KNL tile L2: 1 MB, 16-way.
    pub fn knl_l2() -> Self {
        TagCache::new(1 << 20, 16)
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    fn set_slots(&mut self, set: usize) -> &mut [Way] {
        let base = set * self.ways;
        &mut self.slots[base..base + self.ways]
    }

    /// Look up `line`; a hit requires a matching `version`. Refreshes LRU on
    /// hit. Returns true on hit.
    pub fn lookup(&mut self, line: u64, version: u32) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        for w in self.set_slots(set) {
            if w.tag == line && w.version == version {
                w.lru = tick;
                return true;
            }
        }
        false
    }

    /// Look up ignoring version (presence of any epoch of the line).
    pub fn present_any_version(&self, line: u64) -> bool {
        let set = self.set_of(line);
        let base = set * self.ways;
        self.slots[base..base + self.ways]
            .iter()
            .any(|w| w.tag == line)
    }

    /// Insert `line` with `version`, evicting the LRU way if needed.
    /// A stale-version copy of the same line is refreshed in place.
    pub fn insert(&mut self, line: u64, version: u32) -> Insert {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let slots = self.set_slots(set);
        // Same line (any version): refresh.
        if let Some(w) = slots.iter_mut().find(|w| w.tag == line) {
            let was_current = w.version == version;
            w.version = version;
            w.lru = tick;
            return if was_current {
                Insert::Hit
            } else {
                Insert::Placed
            };
        }
        // Free way?
        if let Some(w) = slots.iter_mut().find(|w| w.tag == EMPTY) {
            *w = Way {
                tag: line,
                version,
                lru: tick,
            };
            return Insert::Placed;
        }
        // Evict LRU.
        let victim = slots
            .iter_mut()
            .min_by_key(|w| w.lru)
            .expect("non-empty set");
        let evicted = victim.tag;
        *victim = Way {
            tag: line,
            version,
            lru: tick,
        };
        Insert::Evicted(evicted)
    }

    /// Remove `line` if present (e.g. after an external invalidation when the
    /// caller wants the way back immediately).
    pub fn remove(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        for w in self.set_slots(set) {
            if w.tag == line {
                *w = Way {
                    tag: EMPTY,
                    version: 0,
                    lru: 0,
                };
                return true;
            }
        }
        false
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Drop every entry (used between benchmark repetitions).
    pub fn clear(&mut self) {
        for w in &mut self.slots {
            *w = Way {
                tag: EMPTY,
                version: 0,
                lru: 0,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knl_geometries() {
        let l1 = TagCache::knl_l1();
        assert_eq!(l1.capacity_lines(), 512);
        assert_eq!(l1.ways(), 8);
        assert_eq!(l1.num_sets(), 64);
        let l2 = TagCache::knl_l2();
        assert_eq!(l2.capacity_lines(), 16384);
        assert_eq!(l2.ways(), 16);
        assert_eq!(l2.num_sets(), 1024);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = TagCache::new(1024, 2);
        assert!(!c.lookup(5, 0));
        assert_eq!(c.insert(5, 0), Insert::Placed);
        assert!(c.lookup(5, 0));
    }

    #[test]
    fn version_mismatch_is_miss() {
        let mut c = TagCache::new(1024, 2);
        c.insert(5, 0);
        assert!(!c.lookup(5, 1), "stale version must miss");
        assert!(c.present_any_version(5));
        // Re-inserting with the new version refreshes in place (no eviction).
        assert_eq!(c.insert(5, 1), Insert::Placed);
        assert!(c.lookup(5, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2 ways, 8 sets: lines 0, 16, 32 all map to set 0.
        let mut c = TagCache::new(1024, 2);
        assert_eq!(c.num_sets(), 8);
        c.insert(0, 0);
        c.insert(16, 0);
        c.lookup(0, 0); // 0 now more recent than 16
        match c.insert(32, 0) {
            Insert::Evicted(v) => assert_eq!(v, 16),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.lookup(0, 0));
        assert!(!c.lookup(16, 0));
        assert!(c.lookup(32, 0));
    }

    #[test]
    fn insert_same_line_is_hit() {
        let mut c = TagCache::new(1024, 2);
        c.insert(7, 3);
        assert_eq!(c.insert(7, 3), Insert::Hit);
    }

    #[test]
    fn remove_frees_way() {
        let mut c = TagCache::new(1024, 2);
        c.insert(0, 0);
        c.insert(16, 0);
        assert!(c.remove(0));
        assert!(!c.remove(0));
        // Now inserting a third conflicting line does not evict.
        assert_eq!(c.insert(32, 0), Insert::Placed);
        assert!(c.lookup(16, 0));
    }

    #[test]
    fn clear_empties() {
        let mut c = TagCache::new(1024, 2);
        c.insert(1, 0);
        c.clear();
        assert!(!c.lookup(1, 0));
    }

    #[test]
    fn capacity_fills_without_spurious_evictions() {
        let mut c = TagCache::new(64 * 64, 4); // 64 lines, 16 sets
        let mut evictions = 0;
        for i in 0..64u64 {
            if let Insert::Evicted(_) = c.insert(i, 0) {
                evictions += 1;
            }
        }
        assert_eq!(
            evictions, 0,
            "distinct lines filling capacity must not evict"
        );
        // One more round of distinct lines now evicts every time.
        for i in 64..128u64 {
            assert!(matches!(c.insert(i, 0), Insert::Evicted(_)));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_sets_panics() {
        TagCache::new(3 * 64, 1);
    }
}
