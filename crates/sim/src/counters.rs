//! Event counters collected by the machine during a run.

/// Aggregate hardware event counts (whole machine).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Loads/stores satisfied by the requesting core's L1.
    pub l1_hits: u64,
    /// Accesses satisfied by the requester's own tile L2.
    pub l2_hits: u64,
    /// Misses served by a remote tile's cache (forward/ownership transfer).
    pub remote_cache_hits: u64,
    /// Misses served by DDR.
    pub ddr_accesses: u64,
    /// Misses served by MCDRAM (flat region or memory-side cache hit).
    pub mcdram_accesses: u64,
    /// Memory-side cache hits / misses (cache & hybrid modes).
    pub mcache_hits: u64,
    /// Memory-side cache misses (filled from DDR).
    pub mcache_misses: u64,
    /// Lines written back due to evictions or downgrades.
    pub writebacks: u64,
    /// Invalidation messages sent by writes.
    pub invalidations: u64,
    /// Update messages sent by writes under update-based protocols (Dragon);
    /// always zero under invalidation-based protocols.
    pub updates: u64,
    /// Non-temporal stores.
    pub nt_stores: u64,
}

impl Counters {
    /// Total line requests that reached memory devices.
    pub fn memory_accesses(&self) -> u64 {
        self.ddr_accesses + self.mcdram_accesses
    }

    /// L1 hits as a fraction of all cache-hierarchy lookups that resolved
    /// somewhere (0.0 when nothing ran — rates never divide by zero).
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l2_hits + self.remote_cache_hits + self.memory_accesses();
        ratio(self.l1_hits, total)
    }

    /// Memory-side cache hit rate over its lookups (cache/hybrid modes;
    /// 0.0 when the cache never saw a request).
    pub fn mcache_hit_rate(&self) -> f64 {
        ratio(self.mcache_hits, self.mcache_hits + self.mcache_misses)
    }

    /// Fraction of off-tile misses served by a *remote cache* rather than a
    /// memory device — the knob the paper's cache-transfer benchmarks turn.
    pub fn remote_service_fraction(&self) -> f64 {
        ratio(
            self.remote_cache_hits,
            self.remote_cache_hits + self.memory_accesses(),
        )
    }

    /// Fold another tally into this aggregate (field-wise addition).
    ///
    /// Counters are pure sums, so callers that total several machines or
    /// runs may merge in any order.
    pub fn merge(&mut self, delta: &Counters) {
        self.l1_hits += delta.l1_hits;
        self.l2_hits += delta.l2_hits;
        self.remote_cache_hits += delta.remote_cache_hits;
        self.ddr_accesses += delta.ddr_accesses;
        self.mcdram_accesses += delta.mcdram_accesses;
        self.mcache_hits += delta.mcache_hits;
        self.mcache_misses += delta.mcache_misses;
        self.writebacks += delta.writebacks;
        self.invalidations += delta.invalidations;
        self.updates += delta.updates;
        self.nt_stores += delta.nt_stores;
    }

    /// Difference since an earlier snapshot.
    ///
    /// A machine's counters are monotone for its whole lifetime (cache
    /// resets do not zero them), so `earlier` must be a snapshot of *this*
    /// machine taken no later than `self`. A field running backwards means
    /// an accounting bug — the class PR 2 caught in `nt_store` — and is
    /// caught per field by a `debug_assert`. Release builds saturate at
    /// zero instead of wrapping to garbage, so a production sweep degrades
    /// to a zero delta rather than reporting 2^64-ish counts.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            l1_hits: delta(self.l1_hits, earlier.l1_hits, "l1_hits"),
            l2_hits: delta(self.l2_hits, earlier.l2_hits, "l2_hits"),
            remote_cache_hits: delta(
                self.remote_cache_hits,
                earlier.remote_cache_hits,
                "remote_cache_hits",
            ),
            ddr_accesses: delta(self.ddr_accesses, earlier.ddr_accesses, "ddr_accesses"),
            mcdram_accesses: delta(
                self.mcdram_accesses,
                earlier.mcdram_accesses,
                "mcdram_accesses",
            ),
            mcache_hits: delta(self.mcache_hits, earlier.mcache_hits, "mcache_hits"),
            mcache_misses: delta(self.mcache_misses, earlier.mcache_misses, "mcache_misses"),
            writebacks: delta(self.writebacks, earlier.writebacks, "writebacks"),
            invalidations: delta(self.invalidations, earlier.invalidations, "invalidations"),
            updates: delta(self.updates, earlier.updates, "updates"),
            nt_stores: delta(self.nt_stores, earlier.nt_stores, "nt_stores"),
        }
    }
}

/// One [`Counters::since`] field: `later - earlier`, with the regression
/// named in debug builds and saturated to zero in release builds.
fn delta(later: u64, earlier: u64, field: &str) -> u64 {
    debug_assert!(
        later >= earlier,
        "counter `{field}` regressed: later snapshot has {later}, earlier has {earlier}"
    );
    later.saturating_sub(earlier)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One-line summary for sweep progress output.
impl std::fmt::Display for Counters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "l1 {} l2 {} remote {} ddr {} mcdram {} \
             mc-hit {} mc-miss {} wb {} inv {} upd {} nt {} \
             (l1 {:.1}% mcache {:.1}% remote-svc {:.1}%)",
            self.l1_hits,
            self.l2_hits,
            self.remote_cache_hits,
            self.ddr_accesses,
            self.mcdram_accesses,
            self.mcache_hits,
            self.mcache_misses,
            self.writebacks,
            self.invalidations,
            self.updates,
            self.nt_stores,
            100.0 * self.l1_hit_rate(),
            100.0 * self.mcache_hit_rate(),
            100.0 * self.remote_service_fraction(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts() {
        let a = Counters {
            l1_hits: 10,
            ddr_accesses: 4,
            ..Default::default()
        };
        let b = Counters {
            l1_hits: 25,
            ddr_accesses: 9,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.l1_hits, 15);
        assert_eq!(d.ddr_accesses, 5);
        assert_eq!(d.memory_accesses(), 5);
    }

    /// A fabricated regression (a "later" snapshot with smaller counts) is
    /// caught by the per-field debug assert in debug builds…
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "counter `l1_hits` regressed")]
    fn since_catches_regression_in_debug() {
        let before = Counters {
            l1_hits: 100,
            writebacks: 7,
            ..Default::default()
        };
        let bogus_later = Counters {
            l1_hits: 3,
            ..Default::default()
        };
        let _ = bogus_later.since(&before);
    }

    /// …and still saturates to zero in release builds, so a production
    /// sweep reports a zero delta instead of 2^64-ish garbage.
    #[cfg(not(debug_assertions))]
    #[test]
    fn since_saturates_in_release() {
        let before = Counters {
            l1_hits: 100,
            writebacks: 7,
            ..Default::default()
        };
        let bogus_later = Counters {
            l1_hits: 3,
            ..Default::default()
        };
        let d = bogus_later.since(&before);
        assert_eq!(d.l1_hits, 0);
        assert_eq!(d.writebacks, 0);
    }

    #[test]
    fn merge_is_fieldwise_addition_and_commutes() {
        let a = Counters {
            l1_hits: 10,
            invalidations: 2,
            ..Default::default()
        };
        let b = Counters {
            l1_hits: 5,
            nt_stores: 7,
            ..Default::default()
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.l1_hits, 15);
        assert_eq!(ab.invalidations, 2);
        assert_eq!(ab.nt_stores, 7);
        // Merging the parts into an empty tally gives the same total.
        let mut total = Counters::default();
        total.merge(&a);
        total.merge(&b);
        assert_eq!(total, ab);
    }

    #[test]
    fn rates_survive_zero_denominators() {
        let z = Counters::default();
        assert_eq!(z.l1_hit_rate(), 0.0);
        assert_eq!(z.mcache_hit_rate(), 0.0);
        assert_eq!(z.remote_service_fraction(), 0.0);
        // And the Display impl must not divide by zero either.
        let s = format!("{z}");
        assert!(s.contains("l1 0"), "{s}");
    }

    #[test]
    fn rates_compute_expected_fractions() {
        let c = Counters {
            l1_hits: 60,
            l2_hits: 20,
            remote_cache_hits: 10,
            ddr_accesses: 6,
            mcdram_accesses: 4,
            mcache_hits: 3,
            mcache_misses: 1,
            ..Default::default()
        };
        assert!((c.l1_hit_rate() - 0.6).abs() < 1e-12);
        assert!((c.mcache_hit_rate() - 0.75).abs() < 1e-12);
        assert!((c.remote_service_fraction() - 0.5).abs() < 1e-12);
        let s = format!("{c}");
        assert!(s.contains("remote 10"), "{s}");
        assert!(s.contains("mcache 75.0%"), "{s}");
    }
}
