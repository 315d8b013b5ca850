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

const EMPTY: u64 = u64::MAX;

/// A set-associative tag cache. A way is one element of each of three
/// parallel arrays, so the scan for a line reads the set's tags and
/// nothing else: 128 B for a 16-way L2 set.
#[derive(Debug, Clone)]
pub struct TagCache {
    ways: usize,
    sets: usize,
    /// Line address (full address >> 6) per way, `EMPTY` when it holds none.
    tags: Vec<u64>,
    /// Version stamp assigned by the caller (coherence epoch); 0 when empty.
    vers: Vec<u32>,
    /// LRU stamp, larger = more recent; 0 when empty.
    lru: Vec<u64>,
    /// One bit per set, set by `insert`: the sets that may differ from the
    /// empty state since the last `clear`. Only `insert` can take a way
    /// out of the empty state (`lookup` and `remove` write only ways whose
    /// tag already matches), so `clear` has nothing to do anywhere else.
    written: Vec<u64>,
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
            tags: vec![EMPTY; lines],
            vers: vec![0; lines],
            lru: vec![0; lines],
            written: vec![0; sets.div_ceil(64)],
            tick: 0,
        }
    }

    /// Capacity of [`TagCache::knl_l1`] in lines (32 KB).
    pub const KNL_L1_LINES: usize = 512;

    /// Capacity of [`TagCache::knl_l2`] in lines (1 MB).
    pub const KNL_L2_LINES: usize = 16384;

    /// KNL L1D: 32 KB, 8-way.
    pub fn knl_l1() -> Self {
        TagCache::new((Self::KNL_L1_LINES as u64) << LINE_SHIFT, 8)
    }

    /// KNL tile L2: 1 MB, 16-way.
    pub fn knl_l2() -> Self {
        TagCache::new((Self::KNL_L2_LINES as u64) << LINE_SHIFT, 16)
    }

    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// Index of the first way of `line`'s set.
    fn base_of(&self, line: u64) -> usize {
        self.set_of(line) * self.ways
    }

    /// The way holding `line` (any version): a set never holds a line
    /// twice, `insert` refreshes in place.
    fn way_of(&self, line: u64) -> Option<usize> {
        let base = self.base_of(line);
        let tags = &self.tags[base..base + self.ways];
        tags.iter().position(|&t| t == line).map(|w| base + w)
    }

    /// Look up `line`; a hit requires a matching `version`. Refreshes LRU on
    /// hit. Returns true on hit.
    pub fn lookup(&mut self, line: u64, version: u32) -> bool {
        self.tick += 1;
        match self.way_of(line) {
            Some(w) if self.vers[w] == version => {
                self.lru[w] = self.tick;
                true
            }
            _ => false,
        }
    }

    /// Look up ignoring version (presence of any epoch of the line).
    pub fn present_any_version(&self, line: u64) -> bool {
        self.way_of(line).is_some()
    }

    /// Insert `line` with `version`, evicting the LRU way if needed.
    /// A stale-version copy of the same line is refreshed in place.
    pub fn insert(&mut self, line: u64, version: u32) -> Insert {
        self.tick += 1;
        let set = self.set_of(line);
        let base = set * self.ways;
        self.written[set / 64] |= 1 << (set % 64);
        // One pass over the set's tags finds the same line (any version)
        // or else the first free way.
        let mut free = None;
        let mut same = None;
        for (w, &t) in self.tags[base..base + self.ways].iter().enumerate() {
            if t == line {
                same = Some(base + w);
                break;
            }
            if t == EMPTY && free.is_none() {
                free = Some(base + w);
            }
        }
        let (w, result) = if let Some(w) = same {
            let was_current = self.vers[w] == version;
            (
                w,
                if was_current {
                    Insert::Hit
                } else {
                    Insert::Placed
                },
            )
        } else if let Some(w) = free {
            (w, Insert::Placed)
        } else {
            // Evict the least recently used way, the first of equals.
            let lru = &self.lru[base..base + self.ways];
            let mut victim = 0;
            for (w, &stamp) in lru.iter().enumerate() {
                if stamp < lru[victim] {
                    victim = w;
                }
            }
            (base + victim, Insert::Evicted(self.tags[base + victim]))
        };
        self.tags[w] = line;
        self.vers[w] = version;
        self.lru[w] = self.tick;
        result
    }

    /// Remove `line` if present (e.g. after an external invalidation when the
    /// caller wants the way back immediately).
    pub fn remove(&mut self, line: u64) -> bool {
        let Some(w) = self.way_of(line) else {
            return false;
        };
        self.tags[w] = EMPTY;
        self.vers[w] = 0;
        self.lru[w] = 0;
        true
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

    /// Empty the cache (used between benchmark repetitions). Costs one pass
    /// over the per-set bitmap plus a rewrite of the sets inserted into
    /// since the previous `clear` — not of the whole arrays, which for the
    /// 96 tag caches of a machine are 11.1 MB (DESIGN.md §6, "Reset cost").
    /// The result is field-for-field what a full wipe leaves: every way
    /// empty with `version` and `lru` zero, `tick` kept.
    pub fn clear(&mut self) {
        for (i, word) in self.written.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let base = (i * 64 + bits.trailing_zeros() as usize) * self.ways;
                self.tags[base..base + self.ways].fill(EMPTY);
                self.vers[base..base + self.ways].fill(0);
                self.lru[base..base + self.ways].fill(0);
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::SplitMixRng;

    #[test]
    fn knl_geometries() {
        let l1 = TagCache::knl_l1();
        assert_eq!(l1.capacity_lines(), 512);
        assert_eq!(l1.capacity_lines(), TagCache::KNL_L1_LINES);
        assert_eq!(l1.ways(), 8);
        assert_eq!(l1.num_sets(), 64);
        let l2 = TagCache::knl_l2();
        assert_eq!(l2.capacity_lines(), 16384);
        assert_eq!(l2.capacity_lines(), TagCache::KNL_L2_LINES);
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
        assert_eq!(c.insert(32, 0), Insert::Evicted(16));
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

    /// The array-of-ways tag cache [`TagCache`] replaced, kept as the
    /// oracle: one 24-byte record per way, a set scanned once per question
    /// (same line? free way? least recent?).
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Slot {
        tag: u64,
        version: u32,
        lru: u64,
    }

    const EMPTY_SLOT: Slot = Slot {
        tag: EMPTY,
        version: 0,
        lru: 0,
    };

    struct Oracle {
        ways: usize,
        sets: usize,
        slots: Vec<Slot>,
        tick: u64,
    }

    impl Oracle {
        fn like(c: &TagCache) -> Oracle {
            Oracle {
                ways: c.ways,
                sets: c.sets,
                slots: vec![EMPTY_SLOT; c.capacity_lines()],
                tick: c.tick,
            }
        }

        fn set_slots(&mut self, line: u64) -> &mut [Slot] {
            let base = ((line as usize) & (self.sets - 1)) * self.ways;
            &mut self.slots[base..base + self.ways]
        }

        fn lookup(&mut self, line: u64, version: u32) -> bool {
            self.tick += 1;
            let tick = self.tick;
            for w in self.set_slots(line) {
                if w.tag == line && w.version == version {
                    w.lru = tick;
                    return true;
                }
            }
            false
        }

        fn insert(&mut self, line: u64, version: u32) -> Insert {
            self.tick += 1;
            let fresh = Slot {
                tag: line,
                version,
                lru: self.tick,
            };
            let slots = self.set_slots(line);
            if let Some(w) = slots.iter_mut().find(|w| w.tag == line) {
                let was_current = w.version == version;
                *w = fresh;
                return if was_current {
                    Insert::Hit
                } else {
                    Insert::Placed
                };
            }
            if let Some(w) = slots.iter_mut().find(|w| w.tag == EMPTY) {
                *w = fresh;
                return Insert::Placed;
            }
            let victim = slots
                .iter_mut()
                .min_by_key(|w| w.lru)
                .expect("non-empty set");
            let evicted = victim.tag;
            *victim = fresh;
            Insert::Evicted(evicted)
        }

        fn remove(&mut self, line: u64) -> bool {
            for w in self.set_slots(line) {
                if w.tag == line {
                    *w = EMPTY_SLOT;
                    return true;
                }
            }
            false
        }

        fn fields(&self) -> (Vec<(u64, u32, u64)>, u64) {
            let ways = self.slots.iter().map(|w| (w.tag, w.version, w.lru));
            (ways.collect(), self.tick)
        }
    }

    /// Every field `clear` promises to leave as a full wipe would, way by
    /// way in the oracle's layout.
    fn fields(c: &TagCache) -> (Vec<(u64, u32, u64)>, u64) {
        let ways = (c.tags.iter().zip(&c.vers).zip(&c.lru)).map(|((&t, &v), &l)| (t, v, l));
        (ways.collect(), c.tick)
    }

    fn written_sets(c: &TagCache) -> usize {
        c.written.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[derive(Debug, PartialEq)]
    enum Outcome {
        Inserted(Insert),
        Found(bool),
        /// A removal and the insert of a conflicting line after it.
        Refilled(bool, Insert),
    }

    /// Drive `cache` and the oracle with one seeded random stream of
    /// inserts, lookups, removals and removal-then-insert pairs (versions
    /// 0..3, so stale copies and in-place refreshes occur) over lines drawn
    /// by `draw`: results must be equal at every step. After each of three
    /// rounds `clear()` the cache and wipe every slot of the oracle: fields
    /// must be equal then. Returns how many sets a round had written before
    /// its clear.
    fn clear_matches_full_wipe(
        cache: TagCache,
        seed: u64,
        steps: usize,
        draw: impl Fn(&mut SplitMixRng) -> u64,
    ) -> usize {
        let (mut a, mut b) = (cache.clone(), Oracle::like(&cache));
        let sets = cache.num_sets() as u64;
        let mut rng = SplitMixRng::seed_from_u64(seed);
        let mut written = 0;
        for round in 0..3 {
            for i in 0..steps {
                let (line, version) = (draw(&mut rng), rng.range_u32(0, 3));
                let op = rng.range_u32(0, 4);
                // The line `Refilled` inserts: same set, not `line`.
                let other = line + sets * rng.range_u64(1, 4);
                macro_rules! run {
                    ($c:expr) => {
                        match op {
                            0 => Outcome::Found($c.lookup(line, version)),
                            1 => Outcome::Found($c.remove(line)),
                            2 => Outcome::Refilled($c.remove(line), $c.insert(other, version)),
                            _ => Outcome::Inserted($c.insert(line, version)),
                        }
                    };
                }
                assert_eq!(run!(a), run!(b), "round {round} step {i}");
            }
            assert_eq!(fields(&a), b.fields(), "before clear {round}");
            written = written_sets(&a);
            a.clear();
            b.slots.fill(EMPTY_SLOT);
            assert_eq!(fields(&a), b.fields(), "after clear {round}");
            assert_eq!(written_sets(&a), 0);
        }
        written
    }

    #[test]
    fn seventeen_conflicting_lines_in_a_sixteen_way_set() {
        let mut a = TagCache::knl_l2();
        let mut b = Oracle::like(&a);
        let sets = a.num_sets() as u64;
        let line = |k: u64| 5 + k * sets;
        for k in 0..16 {
            assert_eq!(a.insert(line(k), 0), Insert::Placed);
            b.insert(line(k), 0);
        }
        // Touch all but line 3, stale-refresh line 9: 3 is least recent.
        for k in (0..16).filter(|&k| k != 3) {
            assert_eq!(a.lookup(line(k), 0), b.lookup(line(k), 0));
        }
        assert_eq!(a.insert(line(9), 2), Insert::Placed);
        b.insert(line(9), 2);
        assert_eq!(a.insert(line(16), 0), Insert::Evicted(line(3)));
        assert_eq!(b.insert(line(16), 0), Insert::Evicted(line(3)));
        assert_eq!(fields(&a), b.fields());
        // A removal frees way 7; the next conflicting line lands there,
        // not on the least recent way.
        assert!(a.remove(line(7)) && b.remove(line(7)));
        assert_eq!(a.insert(line(17), 1), Insert::Placed);
        assert_eq!(b.insert(line(17), 1), Insert::Placed);
        assert_eq!(a.tags[a.base_of(line(17)) + 7], line(17));
        assert_eq!(fields(&a), b.fields());
        // Equal stamps (a wiped-then-refilled set never has them, a fresh
        // oracle can): the first of the least recent goes.
        for w in a.base_of(line(0))..a.base_of(line(0)) + 16 {
            a.lru[w] = 1;
            b.slots[w].lru = 1;
        }
        assert_eq!(a.insert(line(18), 0), b.insert(line(18), 0));
        assert_eq!(fields(&a), b.fields());
    }

    #[test]
    fn clear_is_a_full_wipe_when_every_set_was_written() {
        for (cache, seed) in [(TagCache::knl_l1(), 0xC1EA_0001), (TagCache::knl_l2(), 2)] {
            let (sets, lines) = (cache.num_sets(), cache.capacity_lines());
            let written = clear_matches_full_wipe(cache, seed, 4 * lines, |r| {
                r.range_u64(0, 4 * lines as u64)
            });
            assert_eq!(written, sets);
        }
    }

    #[test]
    fn clear_is_a_full_wipe_when_few_sets_were_written() {
        for (cache, seed) in [(TagCache::knl_l1(), 3), (TagCache::knl_l2(), 0xC1EA_0004)] {
            // 3 sets, twice as many lines as their ways hold: evictions,
            // stale versions and removals all inside a corner of the array.
            let (sets, ways) = (cache.num_sets() as u64, cache.ways() as u64);
            let written = clear_matches_full_wipe(cache, seed, 2000, |r| {
                r.range_u64(0, 3) + sets * r.range_u64(0, 2 * ways)
            });
            assert_eq!(written, 3);
        }
    }

    #[test]
    fn clear_of_a_clean_cache_changes_nothing() {
        let mut c = TagCache::knl_l1();
        let fresh = fields(&c);
        c.clear();
        assert_eq!(fields(&c), fresh, "never written");
        // Lookups and removals that miss advance `tick` but write no way.
        assert!(!c.lookup(9, 0));
        assert!(!c.remove(9));
        assert_eq!(written_sets(&c), 0);
        c.insert(9, 1);
        c.insert(9 + 64, 1);
        assert_eq!(written_sets(&c), 1);
        c.clear();
        let once = fields(&c);
        assert_eq!(once.0, fresh.0);
        assert_eq!(once.1, 3, "tick is kept");
        c.clear();
        assert_eq!(fields(&c), once, "second clear in a row");
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
