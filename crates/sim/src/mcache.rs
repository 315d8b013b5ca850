//! The MCDRAM memory-side cache of the cache and hybrid modes (§II-C).
//!
//! "It is a direct mapped memory based on physical addresses with 64 B
//! lines. [...] It is a 'memory-side' cache and acts like a high-bandwidth
//! buffer on the memory side. MCDRAM as cache is inclusive of all modified
//! lines in L2 (write-backs are made directly to MCDRAM). Before a line is
//! evicted from MCDRAM, there is a snoop to check if a modified copy exists
//! in L2."
//!
//! The tag store is keyed by set index and sized to the sets touched, not
//! to the simulated capacity (4 Mi sets at the default scale). It is a
//! [`PagedLines`]: the lookup runs on *every* simulated memory access in
//! cache/hybrid modes, streams walk the sets in order, and so eight
//! consecutive sets share one page of host memory (DESIGN.md §6,
//! "Host-memory locality"). The table is never iterated.

use crate::paged::PagedLines;
use knl_arch::Reducer;

/// Outcome of a lookup/fill on the memory-side cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McacheOutcome {
    /// The requested line was present.
    Hit,
    /// Miss; the victim set was empty (cold fill).
    MissCold,
    /// Miss; a clean line was replaced.
    MissCleanEvict {
        /// Line address of the victim (for the L2 snoop check).
        victim_line: u64,
    },
    /// Miss; a dirty line was replaced and must be written back to DDR.
    MissDirtyEvict {
        /// Line address of the dirty victim to write back.
        victim_line: u64,
    },
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    line: u64,
    dirty: bool,
}

/// Direct-mapped memory-side cache over physical line addresses.
///
/// # Disabled-cache contract
///
/// A cache built with less than a line of capacity (the flat mode) has no
/// sets, so a set index cannot even be computed for it. Callers must only
/// [`MemorySideCache::access`] it for a line whose `knl_arch::Backing`
/// names a memory-side-cache EDC, which the address map hands out exactly
/// when [`MemorySideCache::enabled`] — what the `engine/serve.rs` call
/// sites do. Calling `access` while disabled is a caller bug and panics,
/// naming it. The read-only [`MemorySideCache::contains`] probe is total
/// and simply reports `false` when disabled.
#[derive(Debug, Clone)]
pub struct MemorySideCache {
    /// `line mod sets` for the number of 64 B sets (= capacity in lines);
    /// `None` disables the cache.
    sets: Option<Reducer>,
    tags: PagedLines<Entry>,
    /// Lifetime hit count (see [`MemorySideCache::reset_stats`]).
    pub hits: u64,
    /// Lifetime miss count.
    pub misses: u64,
}

impl MemorySideCache {
    /// Build with `capacity_bytes` of MCDRAM operating as cache.
    pub fn new(capacity_bytes: u64) -> Self {
        let sets = capacity_bytes >> knl_arch::LINE_SHIFT;
        MemorySideCache {
            sets: (sets > 0).then(|| Reducer::new(sets)),
            tags: PagedLines::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Whether any capacity is configured.
    pub fn enabled(&self) -> bool {
        self.sets.is_some()
    }

    /// Set index of `line`. Only meaningful when [`Self::enabled`] (see
    /// the disabled-cache contract on the type).
    fn set_of(&self, line: u64) -> u64 {
        self.sets
            .expect("set_of on a disabled memory-side cache")
            .remainder(line)
    }

    /// Access `line` (a physical address >> 6). On miss the line is filled
    /// (the memory-side cache allocates on both reads and writes). `dirty`
    /// marks the line dirty (write-backs from L2 and NT stores land dirty).
    ///
    /// Callers must check [`Self::enabled`] first — see the disabled-cache
    /// contract on the type.
    pub fn access(&mut self, line: u64, dirty: bool) -> McacheOutcome {
        let set = self.set_of(line);
        let (e, filled) = self.tags.entry(set);
        if filled && e.line == line {
            e.dirty |= dirty;
            self.hits += 1;
            return McacheOutcome::Hit;
        }
        let victim = std::mem::replace(e, Entry { line, dirty });
        self.misses += 1;
        if !filled {
            McacheOutcome::MissCold
        } else if victim.dirty {
            McacheOutcome::MissDirtyEvict {
                victim_line: victim.line,
            }
        } else {
            McacheOutcome::MissCleanEvict {
                victim_line: victim.line,
            }
        }
    }

    /// Peek without filling (used by diagnostics). Total: reports `false`
    /// when the cache is disabled.
    pub fn contains(&self, line: u64) -> bool {
        self.enabled()
            && self
                .tags
                .get(self.set_of(line))
                .is_some_and(|e| e.line == line)
    }

    /// Hit fraction since construction or [`MemorySideCache::reset_stats`].
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Zero the hit/miss counters.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Drop all cached lines (between benchmark repetitions).
    pub fn clear(&mut self) {
        self.tags.clear();
        self.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_hit() {
        let mut c = MemorySideCache::new(64 * 64); // 64 lines
        assert_eq!(c.access(5, false), McacheOutcome::MissCold);
        assert_eq!(c.access(5, false), McacheOutcome::Hit);
        assert!(c.contains(5));
        assert_eq!(c.hit_rate(), 0.5);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = MemorySideCache::new(64 * 64);
        c.access(1, false);
        // Line 65 maps to the same set (1 + 64).
        assert_eq!(
            c.access(65, false),
            McacheOutcome::MissCleanEvict { victim_line: 1 }
        );
        assert!(!c.contains(1));
        assert!(c.contains(65));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = MemorySideCache::new(64 * 64);
        c.access(1, true);
        assert_eq!(
            c.access(65, false),
            McacheOutcome::MissDirtyEvict { victim_line: 1 }
        );
    }

    #[test]
    fn dirty_sticks_on_hit() {
        let mut c = MemorySideCache::new(64 * 64);
        c.access(1, false);
        c.access(1, true); // hit that dirties
        assert_eq!(
            c.access(65, false),
            McacheOutcome::MissDirtyEvict { victim_line: 1 }
        );
    }

    #[test]
    fn disabled_cache() {
        let c = MemorySideCache::new(0);
        assert!(!c.enabled());
        // `contains` is total: false, never a panic, on the sets == 0
        // (flat-mode) path, even though no set index exists.
        assert!(!c.contains(3));
        assert!(!c.contains(0));
        assert_eq!(c.hit_rate(), 0.0);
    }

    #[test]
    fn sub_line_capacity_is_disabled() {
        // Fewer than 64 bytes rounds down to zero sets: the flat-mode
        // contract applies.
        let c = MemorySideCache::new(63);
        assert!(!c.enabled());
        assert!(!c.contains(0));
    }

    #[test]
    #[should_panic(expected = "disabled")]
    fn access_disabled_panics() {
        // The contract violation is named in every build (callers take the
        // cache flow only for a backing with a memory-side-cache EDC, as
        // every engine/serve.rs site does).
        MemorySideCache::new(0).access(0, false);
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = MemorySideCache::new(64 * 64); // 64 lines
                                                   // Touch 128 distinct lines twice; second pass must still miss
                                                   // (every set holds the *other* conflicting line by then).
        for round in 0..2 {
            for l in 0..128u64 {
                c.access(l, false);
            }
            if round == 0 {
                c.reset_stats();
            }
        }
        assert_eq!(
            c.hits, 0,
            "direct-mapped 2x-capacity cyclic sweep never hits"
        );
    }

    #[test]
    fn clear_empties() {
        let mut c = MemorySideCache::new(64 * 64);
        c.access(9, true);
        c.clear();
        assert!(!c.contains(9));
        assert_eq!(c.hits + c.misses, 0);
    }
}
