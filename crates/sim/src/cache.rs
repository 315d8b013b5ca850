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
use std::cell::RefCell;

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

/// Spare storage a thread keeps for its next first fills: at most one
/// machine's worth (64 L1s and 32 L2s).
const SPARES: usize = 96;

thread_local! {
    /// The storage of this thread's dropped caches, each wiped to the
    /// empty state. Sweeps build a machine per point; were a dropped
    /// cache's storage freed, glibc would hand a block this large back to
    /// the OS (it trims a heap top and maps large requests anew), and the
    /// next machine's first fill would fault every page of it in again.
    static SPARE: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

/// A set-associative tag cache. It owns no heap until its first `insert`,
/// which takes all of its storage at once (20 B a way, half a word more a
/// set when the associativity is odd); before that every question is
/// answered as by an allocated empty cache. Empty storage is all zeros, so
/// a fresh allocation is written nowhere but where the cache fills. A
/// set's tags are contiguous and apart from its other fields, so the scan
/// for a line reads the set's tags and nothing else: 128 B for a 16-way L2
/// set.
#[derive(Debug, Clone)]
pub struct TagCache {
    ways: usize,
    sets: usize,
    /// Words of a set's block in `store`: `2 * ways + ways.div_ceil(2)`.
    stride: usize,
    /// Empty until the first `insert`. Then one block of `stride` words
    /// per set, in set order, holding
    /// * a tag per way: the complement of the line address (full address
    ///   >> 6), so that `EMPTY`, the tag of a way that holds none, is 0;
    /// * an LRU stamp per way, larger = more recent; 0 when empty;
    /// * a version stamp per way (the coherence epoch the caller assigned;
    ///   0 when empty), two 32-bit stamps a word, an even way in the low
    ///   half;
    ///
    /// and after the blocks one bit per set, set by `insert`: the sets that
    /// may differ from the empty state since the last `clear`. Only
    /// `insert` can take a way out of the empty state (`lookup` and
    /// `remove` write only ways whose tag already matches), so `clear` has
    /// nothing to do anywhere else.
    store: Vec<u64>,
    tick: u64,
}

impl TagCache {
    /// Build a cache of `capacity_bytes` with `ways` associativity and 64 B
    /// lines. Allocates nothing: the first `insert` takes the storage.
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
            stride: 2 * ways + ways.div_ceil(2),
            store: Vec::new(),
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

    /// Where `line`'s set's block starts in `store`.
    fn block_of(&self, line: u64) -> usize {
        self.set_of(line) * self.stride
    }

    /// Where the per-set bitmap starts in `store`.
    fn written_at(&self) -> usize {
        self.sets * self.stride
    }

    /// `line`'s set as its tags, LRU stamps and version words; None before
    /// the first `insert`.
    fn set_mut(&mut self, line: u64) -> Option<Set<'_>> {
        let (ways, at) = (self.ways, self.block_of(line));
        let block = self.store.get_mut(at..at + self.stride)?;
        Some(Set::new(block, ways))
    }

    /// Look up `line`; a hit requires a matching `version`. Refreshes LRU on
    /// hit. Returns true on hit.
    #[inline]
    pub fn lookup(&mut self, line: u64, version: u32) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let Some(set) = self.set_mut(line) else {
            return false;
        };
        match set.way_of(line) {
            Some(w) if set.version(w) == version => {
                set.lru[w] = tick;
                true
            }
            _ => false,
        }
    }

    /// Look up ignoring version (presence of any epoch of the line).
    #[inline]
    pub fn present_any_version(&self, line: u64) -> bool {
        let at = self.block_of(line);
        let tags = self.store.get(at..at + self.ways);
        tags.is_some_and(|tags| tags.contains(&!line))
    }

    /// Insert `line` with `version`, evicting the LRU way if needed.
    /// A stale-version copy of the same line is refreshed in place. The
    /// first call takes the cache's storage, every way empty: a dropped
    /// cache's of the same length if this thread kept one, else one
    /// zeroed allocation.
    #[inline]
    pub fn insert(&mut self, line: u64, version: u32) -> Insert {
        if self.store.is_empty() {
            let len = self.written_at() + self.sets.div_ceil(64);
            let spare = SPARE.with_borrow_mut(|spare| {
                let i = spare.iter().position(|s| s.len() == len)?;
                Some(spare.swap_remove(i))
            });
            self.store = spare.unwrap_or_else(|| vec![0; len]);
        }
        self.tick += 1;
        let (tick, set, at) = (self.tick, self.set_of(line), self.block_of(line));
        let written = self.written_at() + set / 64;
        self.store[written] |= 1 << (set % 64);
        let set = Set::new(&mut self.store[at..at + self.stride], self.ways);
        // One pass over the set's tags finds the same line (any version)
        // or else the first free way.
        let mut free = None;
        let mut same = None;
        for (w, &t) in set.tags.iter().enumerate() {
            if t == !line {
                same = Some(w);
                break;
            }
            if t == !EMPTY && free.is_none() {
                free = Some(w);
            }
        }
        let (w, result) = if let Some(w) = same {
            let was_current = set.version(w) == version;
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
            let mut victim = 0;
            for (w, &stamp) in set.lru.iter().enumerate() {
                if stamp < set.lru[victim] {
                    victim = w;
                }
            }
            (victim, Insert::Evicted(!set.tags[victim]))
        };
        set.put(w, line, version, tick);
        result
    }

    /// Remove `line` if present (e.g. after an external invalidation when the
    /// caller wants the way back immediately).
    #[inline]
    pub fn remove(&mut self, line: u64) -> bool {
        let Some(set) = self.set_mut(line) else {
            return false;
        };
        let Some(w) = set.way_of(line) else {
            return false;
        };
        set.put(w, EMPTY, 0, 0);
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
    /// since the previous `clear` — not of the whole storage, 320 KiB for
    /// an L2 (DESIGN.md §6, "Reset cost") — and nothing at all before the
    /// first `insert`. The result is field-for-field what a full wipe
    /// leaves: every way empty with `version` and `lru` zero, `tick` kept.
    pub fn clear(&mut self) {
        let stride = self.stride;
        let written = self.written_at().min(self.store.len());
        let (blocks, bitmap) = self.store.split_at_mut(written);
        for (i, word) in bitmap.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let at = (i * 64 + bits.trailing_zeros() as usize) * stride;
                blocks[at..at + stride].fill(0);
                bits &= bits - 1;
            }
        }
    }
}

/// One set's block of a filled [`TagCache`].
struct Set<'a> {
    /// Complemented line addresses, `!EMPTY` where a way holds none.
    tags: &'a mut [u64],
    lru: &'a mut [u64],
    /// Two 32-bit versions a word, an even way in the low half.
    vers: &'a mut [u64],
}

impl<'a> Set<'a> {
    fn new(block: &'a mut [u64], ways: usize) -> Self {
        let (tags, rest) = block.split_at_mut(ways);
        let (lru, vers) = rest.split_at_mut(ways);
        Set { tags, lru, vers }
    }

    /// The way holding `line` (any version): a set never holds a line
    /// twice, `insert` refreshes in place.
    fn way_of(&self, line: u64) -> Option<usize> {
        self.tags.iter().position(|&t| t == !line)
    }

    fn version(&self, w: usize) -> u32 {
        (self.vers[w / 2] >> (w % 2 * 32)) as u32
    }

    /// Write way `w`: its tag, version and LRU stamp.
    fn put(self, w: usize, tag: u64, version: u32, lru: u64) {
        let shift = w % 2 * 32;
        let word = &mut self.vers[w / 2];
        *word = *word & !(u64::from(u32::MAX) << shift) | u64::from(version) << shift;
        self.tags[w] = !tag;
        self.lru[w] = lru;
    }
}

impl Drop for TagCache {
    /// Wipe the storage (`clear`, so it costs what was written) and keep
    /// it for this thread's next first fill, unless the thread already
    /// keeps `SPARES` or is exiting.
    fn drop(&mut self) {
        if self.store.is_empty() {
            return;
        }
        self.clear();
        let store = std::mem::take(&mut self.store);
        let _ = SPARE.try_with(|spare| {
            let mut spare = spare.borrow_mut();
            if spare.len() < SPARES {
                spare.push(store);
            }
        });
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

        fn present_any_version(&mut self, line: u64) -> bool {
            self.set_slots(line).iter().any(|w| w.tag == line)
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
    /// way in the oracle's layout; a never-filled cache reads as empty ways.
    fn fields(c: &TagCache) -> (Vec<(u64, u32, u64)>, u64) {
        let way = |i: usize| {
            let (at, w) = ((i / c.ways) * c.stride, i % c.ways);
            let version = |w: usize| (c.store[at + 2 * c.ways + w / 2] >> (w % 2 * 32)) as u32;
            match c.allocated() {
                true => (!c.store[at + w], version(w), c.store[at + c.ways + w]),
                false => (EMPTY, 0, 0),
            }
        };
        ((0..c.capacity_lines()).map(way).collect(), c.tick)
    }

    fn written_sets(c: &TagCache) -> usize {
        let bitmap = c.store.get(c.written_at()..).unwrap_or_default();
        bitmap.iter().map(|w| w.count_ones() as usize).sum()
    }

    impl TagCache {
        /// Whether the cache owns heap storage.
        fn allocated(&self) -> bool {
            self.store.capacity() > 0
        }
    }

    #[derive(Debug, PartialEq)]
    enum Outcome {
        Inserted(Insert),
        Found(bool),
        /// A removal and the insert of a conflicting line after it.
        Refilled(bool, Insert),
    }

    /// Drive a never-filled `cache` and the oracle with one seeded random
    /// stream: first lookups, removals, presence questions and a `clear`
    /// that must all answer as the empty oracle does and allocate nothing,
    /// then inserts, lookups, removals and removal-then-insert pairs
    /// (versions 0..3, so stale copies and in-place refreshes occur) over
    /// lines drawn by `draw`: results must be equal at every step. After
    /// each of three rounds `clear()` the cache and wipe every slot of the
    /// oracle: fields must be equal then. Returns how many sets a round had
    /// written before its clear.
    fn clear_matches_full_wipe(
        cache: TagCache,
        seed: u64,
        steps: usize,
        draw: impl Fn(&mut SplitMixRng) -> u64,
    ) -> usize {
        assert!(!cache.allocated());
        let (mut a, mut b) = (cache.clone(), Oracle::like(&cache));
        let sets = cache.num_sets() as u64;
        let mut rng = SplitMixRng::seed_from_u64(seed);
        for i in 0..64 {
            let (line, version) = (draw(&mut rng), rng.range_u32(0, 3));
            assert_eq!(a.lookup(line, version), b.lookup(line, version));
            assert_eq!(a.remove(line), b.remove(line), "never filled, step {i}");
            assert_eq!(a.present_any_version(line), b.present_any_version(line));
        }
        a.clear();
        assert!(!a.allocated());
        assert_eq!(fields(&a), b.fields(), "never filled");
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
            assert!(a.allocated());
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
        assert_eq!(!a.store[a.block_of(line(17)) + 7], line(17));
        assert_eq!(fields(&a), b.fields());
        // Equal stamps (a wiped-then-refilled set never has them, a fresh
        // oracle can): the first of the least recent goes.
        let (at, base) = (a.block_of(line(0)), a.set_of(line(0)) * 16);
        for w in 0..16 {
            a.store[at + 16 + w] = 1;
            b.slots[base + w].lru = 1;
        }
        assert_eq!(a.insert(line(18), 0), b.insert(line(18), 0));
        assert_eq!(fields(&a), b.fields());
    }

    #[test]
    fn clear_is_a_full_wipe_when_every_set_was_written() {
        // Three ways: a set's last version word is half padding.
        let odd = TagCache::new(24 * 64, 3);
        for (cache, seed) in [
            (TagCache::knl_l1(), 0xC1EA_0001),
            (TagCache::knl_l2(), 2),
            (odd, 5),
        ] {
            let (sets, lines) = (cache.num_sets(), cache.capacity_lines());
            let written = clear_matches_full_wipe(cache, seed, 4 * lines, |r| {
                r.range_u64(0, 4 * lines as u64)
            });
            assert_eq!(written, sets);
        }
    }

    #[test]
    fn clear_is_a_full_wipe_when_few_sets_were_written() {
        let odd = TagCache::new(24 * 64, 3);
        for (cache, seed) in [
            (TagCache::knl_l1(), 3),
            (TagCache::knl_l2(), 0xC1EA_0004),
            (odd, 6),
        ] {
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
        // Lookups and removals that miss advance `tick` but write no way,
        // and take nothing from the heap.
        assert!(!c.lookup(9, 0));
        assert!(!c.remove(9));
        assert!(!c.present_any_version(9));
        assert_eq!(written_sets(&c), 0);
        assert!(!c.allocated(), "no insert, no storage");
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
    fn a_dropped_cache_refills_the_next_one_empty() {
        let mut a = TagCache::knl_l2();
        let mut rng = SplitMixRng::seed_from_u64(7);
        for _ in 0..50_000 {
            a.insert(rng.range_u64(0, 1 << 20), rng.range_u32(0, 3));
        }
        let storage = a.store.as_ptr();
        drop(a);
        // An L1 is not offered the L2's storage; the next L2 is, and it
        // reads as never written.
        let mut l1 = TagCache::knl_l1();
        l1.insert(5, 1);
        assert_ne!(l1.store.as_ptr(), storage);
        let mut b = TagCache::knl_l2();
        let mut o = Oracle::like(&b);
        assert_eq!(b.insert(5, 1), o.insert(5, 1));
        assert_eq!(b.store.as_ptr(), storage);
        assert_eq!(fields(&b), o.fields());
        assert_eq!(written_sets(&b), 1);
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
