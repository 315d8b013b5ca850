//! Dynamic coherence checking: directory invariants and a differential
//! memory oracle.
//!
//! Every number the repo reproduces flows through the coherence directory in
//! [`crate::directory`], stepped by the one transition table in
//! [`crate::protocol`] (MESIF by default); a silent protocol bug would
//! quietly skew every fitted α/β. This module is a pure *observer* bolted
//! onto [`crate::Machine`]: at every [`DirEntry`] transition the machine
//! notifies a [`CoherenceChecker`], which
//!
//! * validates the directory invariants (at most one M/E holder; `sharers`
//!   nonempty in S/O; the F forwarder or O owner, when present, is a
//!   listed sharer; states foreign to the running protocol never appear —
//!   see [`crate::protocol::validate`]; `supplier()` is always a current
//!   holder; `busy_until` is monotone per line; the
//!   `version` epoch never regresses),
//! * keeps its own invalidation/update/write-back message counts and
//!   reconciles them against [`crate::counters::Counters`] at the end of a
//!   run, and
//! * at [`CheckLevel::FullOracle`], replays the value semantics of every
//!   coherent op in a [`ShadowMemory`] — a flat sequential reference the
//!   timing simulator itself never stores — asserting that each read
//!   observes, and the final memory image equals, the program-order value.
//!
//! Checking is zero-cost when off: the machine holds an
//! `Option<Box<CoherenceChecker>>` that is `None` at [`CheckLevel::Off`],
//! so the hot paths pay one never-taken branch.
//!
//! Violations panic with a report whose message starts with
//! `"coherence violation"` and dumps the last [`EVENT_WINDOW`] protocol
//! events for the offending line, so a fuzzer seed printed alongside is
//! enough to reproduce and debug a failure.

use crate::counters::Counters;
use crate::directory::DirEntry;
use crate::engine::observe::ProtocolEvent;
use crate::fxmap::LineMap;
use crate::protocol::{self, Outcome, Request};
use knl_arch::{ProtocolKind, TileId};
use std::collections::VecDeque;

/// How many protocol events per line are kept for violation reports.
pub const EVENT_WINDOW: usize = 16;

/// How much dynamic checking the machine performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckLevel {
    /// No checking; no observable cost.
    #[default]
    Off,
    /// Validate directory/MESIF invariants at every transition and
    /// reconcile message counters at the end of the run.
    Invariants,
    /// `Invariants` plus the [`ShadowMemory`] differential oracle over
    /// every coherent read/write/NT-store.
    FullOracle,
}

impl CheckLevel {
    /// All levels, weakest first.
    pub const ALL: [CheckLevel; 3] = [
        CheckLevel::Off,
        CheckLevel::Invariants,
        CheckLevel::FullOracle,
    ];

    /// Name as accepted by `--check` / `KNL_CHECK`.
    pub fn name(self) -> &'static str {
        match self {
            CheckLevel::Off => "off",
            CheckLevel::Invariants => "invariants",
            CheckLevel::FullOracle => "full",
        }
    }

    /// Inverse of [`name`](Self::name); also accepts `full-oracle`.
    pub fn parse(s: &str) -> Option<CheckLevel> {
        match s {
            "off" | "none" => Some(CheckLevel::Off),
            "invariants" | "inv" => Some(CheckLevel::Invariants),
            "full" | "full-oracle" | "oracle" => Some(CheckLevel::FullOracle),
            _ => None,
        }
    }
}

/// A recorded directory step plus the entry *after* it.
#[derive(Debug, Clone, Copy)]
struct EventRecord {
    seq: u64,
    request: Request,
    tile: TileId,
    out: Outcome,
    entry: DirEntry,
}

/// Did the version epoch step backwards between two observations? Shared
/// by the runtime checker and the model checker (`knl mc`); wrapping tolerant (a huge
/// forward jump reads as a regression, which is the point — epochs advance
/// by one).
pub fn version_regressed(prev: u32, cur: u32) -> bool {
    cur.wrapping_sub(prev) >= u32::MAX / 2
}

/// Directory invariant checker; see the module docs.
#[derive(Debug)]
pub struct CoherenceChecker {
    level: CheckLevel,
    /// The protocol the machine runs; directory states foreign to it (an O
    /// entry under MESIF, an F holder under MESI) are violations.
    protocol: ProtocolKind,
    /// Per-line ring of recent protocol events. A [`LineMap`]: this is
    /// updated on every directory transition (hot at any check level) and
    /// only ever read back per line, never iterated.
    history: LineMap<VecDeque<EventRecord>>,
    /// Total transitions observed (a record's sequence number).
    pub events: u64,
    /// Invalidation messages implied by counted transitions.
    pub invalidations: u64,
    /// Update messages implied by counted transitions (Dragon).
    pub updates: u64,
    /// Coherence write-backs implied by counted transitions (dirty
    /// evictions, M→S downgrades, NT-store invalidations of dirty lines).
    pub writebacks: u64,
    /// Write-backs the machine performs outside the directory protocol
    /// (memory-side-cache victim evictions); counted so reconciliation
    /// against [`Counters::writebacks`] is exact.
    pub external_writebacks: u64,
    shadow: Option<ShadowMemory>,
}

impl CoherenceChecker {
    /// Build a checker for `level` (which must not be `Off`) on a machine
    /// whose back end is `protocol` (the legal-state set to enforce). Built
    /// only by the observer hub, from an [`crate::ObserverConfig`], when
    /// the machine is constructed — so every counter starts at zero and
    /// [`CoherenceChecker::finish`] reconciles against the totals.
    pub(crate) fn new(level: CheckLevel, protocol: ProtocolKind) -> Self {
        assert_ne!(level, CheckLevel::Off, "no checker at CheckLevel::Off");
        CoherenceChecker {
            level,
            protocol,
            history: LineMap::new(),
            events: 0,
            invalidations: 0,
            updates: 0,
            writebacks: 0,
            external_writebacks: 0,
            shadow: (level == CheckLevel::FullOracle).then(ShadowMemory::default),
        }
    }

    /// The level this checker runs at.
    pub fn level(&self) -> CheckLevel {
        self.level
    }

    /// The differential oracle, when running at [`CheckLevel::FullOracle`].
    pub fn shadow(&self) -> Option<&ShadowMemory> {
        self.shadow.as_ref()
    }

    /// Observe one directory step on `line`: `tile` asked `request` and
    /// the transition answered `out`; `entry` is the state *after* it.
    /// `counted` steps accumulate message counters (state-preparation
    /// shortcuts pass `false`: they mutate the directory without the
    /// machine counting messages).
    pub fn on_transition(
        &mut self,
        line: u64,
        request: Request,
        tile: TileId,
        out: Outcome,
        entry: &DirEntry,
        counted: bool,
    ) {
        self.events += 1;
        let prev = self
            .history
            .get(line)
            .and_then(|h| h.back())
            .map_or_else(DirEntry::default, |r| r.entry);

        // The dirty value leaves the caches on a downgrade (an M owner
        // answers a read and the line ends *clean*), a dirty eviction, or a
        // dirty invalidation; ownership transfer by write moves the value
        // instead, and the O protocols keep the dirty value cached across
        // read downgrades (M→O), which `DirEntry::dirty` reflects. The read
        // case is inferred, protocol-neutrally, from whether dirtiness was
        // lost, never taken from `out.writeback`.
        let writeback = match request {
            Request::Read => prev.dirty() && !entry.dirty(),
            Request::Evict | Request::NtStore => out.writeback,
            Request::Write => false,
        };
        if counted {
            self.invalidations += out.invalidated as u64;
            self.updates += out.updated as u64;
            if writeback {
                self.writebacks += 1;
            }
        }
        if let Some(shadow) = self.shadow.as_mut() {
            if writeback {
                shadow.writeback(line);
            }
            if request == Request::Write {
                shadow.on_write(line);
            }
        }

        self.validate(line, entry, prev.version, prev.busy_until);
        let record = EventRecord {
            seq: self.events,
            request,
            tile,
            out,
            entry: *entry,
        };
        let ring = self.history.get_or_insert_default(line);
        if ring.len() == EVENT_WINDOW {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Validate the after-state of a transition.
    fn validate(&self, line: u64, entry: &DirEntry, prev_version: u32, prev_busy: u64) {
        // Structural legality (sharer-set shape, supplier holds the line,
        // no states foreign to the running protocol) is the protocol
        // table's to define.
        if let Err(msg) = protocol::validate(self.protocol, entry) {
            self.fail(line, entry, &msg);
        }
        if version_regressed(prev_version, entry.version) {
            self.fail(
                line,
                entry,
                &format!("version regressed: {} -> {}", prev_version, entry.version),
            );
        }
        if entry.busy_until < prev_busy {
            self.fail(
                line,
                entry,
                &format!(
                    "busy_until ran backwards: {} -> {}",
                    prev_busy, entry.busy_until
                ),
            );
        }
    }

    /// A coherent read of `line` returned to the core; `from_memory` is
    /// true when a memory device (or the memory-side cache) supplied the
    /// data rather than any coherent cache.
    pub fn observe_read(&mut self, line: u64, from_memory: bool) {
        let Some(shadow) = self.shadow.as_mut() else {
            return;
        };
        shadow.reads_checked += 1;
        let stale = from_memory && shadow.cached.contains_key(line);
        let visible = shadow.visible(line);
        let expected = shadow.flat.get(line).copied().unwrap_or(0);
        if stale {
            self.oracle_fail(
                line,
                "read served from memory while a dirty cached copy exists",
            );
        }
        if visible != expected {
            let detail =
                format!("read observed value {visible}, sequential reference says {expected}");
            self.oracle_fail(line, &detail);
        }
    }

    /// Route one spine event to the transition and oracle hooks.
    pub(crate) fn on_event(&mut self, line: u64, event: &ProtocolEvent<'_>) {
        match *event {
            ProtocolEvent::Dir {
                request,
                tile,
                out,
                entry,
                counted,
                ..
            } => self.on_transition(line, request, tile, out, entry, counted),
            ProtocolEvent::CoherentRead { from_memory } => self.observe_read(line, from_memory),
            // An NT store overwrote `line` in memory; its directory step
            // already swept the cached copies.
            ProtocolEvent::NtStore => {
                if let Some(shadow) = self.shadow.as_mut() {
                    shadow.on_nt_store(line);
                }
            }
            // Directory-implied write-backs are inferred from `Dir` steps;
            // only the memory-side-cache victim evictions need notice.
            ProtocolEvent::Writeback { external: true } => self.external_writebacks += 1,
            // Timing/topology events carry no coherence state; listed out
            // so a new event variant forces a decision here.
            ProtocolEvent::Issue { .. }
            | ProtocolEvent::Serve { .. }
            | ProtocolEvent::Hop { .. }
            | ProtocolEvent::DevEnter { .. }
            | ProtocolEvent::DevLeave { .. }
            | ProtocolEvent::Mcache { .. }
            | ProtocolEvent::Inv { .. }
            | ProtocolEvent::Update { .. }
            | ProtocolEvent::Writeback { external: false }
            | ProtocolEvent::Mark { .. } => {}
        }
    }

    /// The machine dropped all on-die cache state (fresh repetition): start
    /// a new checking epoch. Message counters keep accumulating (the
    /// machine's counters are not reset either).
    pub fn on_reset(&mut self) {
        self.history.clear();
        if let Some(shadow) = self.shadow.as_mut() {
            shadow.clear();
        }
    }

    /// End-of-run check: reconcile message counters with the machine's and
    /// verify the final memory image against the sequential reference.
    pub fn finish(&self, counters: &Counters) {
        if self.invalidations != counters.invalidations {
            panic!(
                "coherence violation: checker counted {} invalidation messages, \
                 machine counters say {}",
                self.invalidations, counters.invalidations
            );
        }
        if self.updates != counters.updates {
            panic!(
                "coherence violation: checker counted {} update messages, \
                 machine counters say {}",
                self.updates, counters.updates
            );
        }
        if self.writebacks + self.external_writebacks != counters.writebacks {
            panic!(
                "coherence violation: checker counted {} coherence + {} external \
                 write-backs, machine counters say {}",
                self.writebacks, self.external_writebacks, counters.writebacks
            );
        }
        if let Some(shadow) = self.shadow.as_ref() {
            // sorted_keys keeps the first-divergence report deterministic.
            for line in shadow.flat.sorted_keys() {
                let expected = *shadow.flat.get(line).expect("key just listed");
                let visible = shadow.visible(line);
                if visible != expected {
                    self.oracle_fail(
                        line,
                        &format!(
                            "final value {visible} diverges from sequential reference {expected}"
                        ),
                    );
                }
            }
        }
    }

    /// Render the last protocol events of `line` (oldest first).
    fn dump(&self, line: u64) -> String {
        let mut out = String::new();
        match self.history.get(line) {
            None => out.push_str("    (no recorded events)\n"),
            Some(ring) => {
                for r in ring {
                    let e = &r.entry;
                    out.push_str(&format!(
                        "    #{:06} {:?} by {:?} {:?} -> {:?} sharers={:?} v={} busy={}\n",
                        r.seq,
                        r.request,
                        r.tile,
                        r.out,
                        e.state,
                        e.sharers,
                        e.version,
                        e.busy_until
                    ));
                }
            }
        }
        out
    }

    fn fail(&self, line: u64, entry: &DirEntry, msg: &str) -> ! {
        panic!(
            "coherence violation on line {:#x}: {msg}\n  \
             entry: state={:?} sharers={:?} version={} busy_until={}\n  \
             last protocol events (oldest first):\n{}",
            line,
            entry.state,
            entry.sharers,
            entry.version,
            entry.busy_until,
            self.dump(line)
        );
    }

    fn oracle_fail(&self, line: u64, msg: &str) -> ! {
        panic!(
            "coherence violation on line {:#x}: {msg}\n  \
             last protocol events (oldest first):\n{}",
            line,
            self.dump(line)
        );
    }
}

/// Differential value oracle for [`CheckLevel::FullOracle`].
///
/// The timing simulator stores no data — tags and permissions only — so the
/// oracle supplies value semantics itself: each coherent write is stamped
/// with a fresh monotone value, held in `cached` while the line is dirty in
/// some cache and moved to `mem` when the protocol writes it back. The
/// `flat` map applies the same ops to an idealized sequential memory at
/// commit order. Any protocol bug that loses or stales a value (a skipped
/// write-back, a read routed to memory past a dirty copy) makes the two
/// images diverge.
#[derive(Debug, Default)]
pub struct ShadowMemory {
    next_val: u64,
    /// line -> dirty value currently held by some cache. The shadow maps
    /// are [`LineMap`]s: the oracle runs on every coherent op at
    /// [`CheckLevel::FullOracle`], and the only walk (the end-of-run image
    /// comparison) goes through [`LineMap::sorted_keys`].
    cached: LineMap<u64>,
    /// line -> value materialized in memory by the protocol.
    mem: LineMap<u64>,
    /// line -> value of the flat sequential reference.
    flat: LineMap<u64>,
    /// Reads checked against the reference (observability for tests).
    pub reads_checked: u64,
}

impl ShadowMemory {
    /// The value the protocol-side image makes visible for `line`.
    pub fn visible(&self, line: u64) -> u64 {
        self.cached
            .get(line)
            .or_else(|| self.mem.get(line))
            .copied()
            .unwrap_or(0)
    }

    /// Lines the sequential reference has values for.
    pub fn tracked_lines(&self) -> usize {
        self.flat.len()
    }

    fn on_write(&mut self, line: u64) {
        self.next_val += 1;
        self.cached.insert(line, self.next_val);
        self.flat.insert(line, self.next_val);
    }

    fn on_nt_store(&mut self, line: u64) {
        self.next_val += 1;
        // NT stores bypass the caches; any cached copy was invalidated (and
        // written back, if dirty) before this point.
        self.cached.remove(line);
        self.mem.insert(line, self.next_val);
        self.flat.insert(line, self.next_val);
    }

    fn writeback(&mut self, line: u64) {
        if let Some(v) = self.cached.remove(line) {
            self.mem.insert(line, v);
        }
    }

    fn clear(&mut self) {
        self.cached.clear();
        self.mem.clear();
        self.flat.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{GlobalState, LineState, TileSet};
    use crate::protocol::transition;

    const T0: TileId = TileId(0);
    const T1: TileId = TileId(1);

    fn checker() -> CoherenceChecker {
        CoherenceChecker::new(CheckLevel::Invariants, ProtocolKind::Mesif)
    }

    /// One MESIF directory step, as the engine reports it to the checker.
    struct Step(Request, TileId, Outcome);

    impl Step {
        fn seen_by(self, ck: &mut CoherenceChecker, line: u64, e: &DirEntry, counted: bool) {
            ck.on_transition(line, self.0, self.1, self.2, e, counted);
        }
    }

    fn step(e: &mut DirEntry, request: Request, t: TileId) -> Step {
        Step(request, t, transition(ProtocolKind::Mesif, e, request, t))
    }

    #[test]
    fn clean_transitions_pass() {
        let mut ck = checker();
        let mut e = DirEntry::default();
        step(&mut e, Request::Read, T0).seen_by(&mut ck, 0, &e, true);
        step(&mut e, Request::Read, T1).seen_by(&mut ck, 0, &e, true);
        step(&mut e, Request::Write, T0).seen_by(&mut ck, 0, &e, true);
        assert_eq!(ck.invalidations, 1);
        assert_eq!(ck.events, 3);
    }

    #[test]
    #[should_panic(expected = "coherence violation")]
    fn owner_with_sharers_is_caught() {
        let mut ck = checker();
        let mut e = DirEntry::default();
        let granted = step(&mut e, Request::Write, T0);
        e.sharers.insert(T1); // corrupt: M state with a residual sharer
        granted.seen_by(&mut ck, 0, &e, true);
    }

    #[test]
    #[should_panic(expected = "version regressed")]
    fn version_regression_is_caught() {
        let mut ck = checker();
        let mut e = DirEntry::default();
        step(&mut e, Request::Write, T0).seen_by(&mut ck, 0, &e, true);
        e.version = 0; // regress the epoch
        let granted = step(&mut e, Request::Read, T1);
        e.version = 0;
        granted.seen_by(&mut ck, 0, &e, true);
    }

    #[test]
    #[should_panic(expected = "busy_until ran backwards")]
    fn busy_until_must_be_monotone() {
        let mut ck = checker();
        let mut e = DirEntry {
            busy_until: 10_000,
            ..Default::default()
        };
        step(&mut e, Request::Read, T0).seen_by(&mut ck, 0, &e, true);
        e.busy_until = 5_000;
        step(&mut e, Request::Read, T1).seen_by(&mut ck, 0, &e, true);
    }

    #[test]
    #[should_panic(expected = "F holder")]
    fn forward_outside_sharers_is_caught() {
        let ck = checker();
        let e = DirEntry {
            state: GlobalState::Shared { forward: Some(T1) },
            sharers: TileSet::from([T0]),
            ..Default::default()
        };
        ck.validate(0, &e, 0, 0);
    }

    #[test]
    fn downgrade_counts_one_writeback() {
        let mut ck = checker();
        let mut e = DirEntry::default();
        step(&mut e, Request::Write, T0).seen_by(&mut ck, 0, &e, true);
        step(&mut e, Request::Read, T1).seen_by(&mut ck, 0, &e, true);
        assert_eq!(ck.writebacks, 1, "M->S downgrade implies one write-back");
    }

    #[test]
    fn uncounted_events_validate_but_do_not_count() {
        let mut ck = checker();
        let mut e = DirEntry::default();
        step(&mut e, Request::Read, T0);
        step(&mut e, Request::Read, T1);
        // Preparation's flush: every copy dropped, nothing counted.
        step(&mut e, Request::NtStore, T0).seen_by(&mut ck, 0, &e, false);
        assert_eq!(ck.invalidations, 0);
        assert_eq!(ck.events, 1);
    }

    #[test]
    fn reconcile_passes_on_matching_counters() {
        let mut ck = checker();
        let mut e = DirEntry::default();
        step(&mut e, Request::Read, T0).seen_by(&mut ck, 0, &e, true);
        step(&mut e, Request::Write, T1).seen_by(&mut ck, 0, &e, true);
        let counters = Counters {
            invalidations: 1,
            ..Default::default()
        };
        ck.finish(&counters);
    }

    #[test]
    #[should_panic(expected = "invalidation messages")]
    fn reconcile_catches_counter_drift() {
        let mut ck = checker();
        let mut e = DirEntry::default();
        step(&mut e, Request::Write, T0).seen_by(&mut ck, 0, &e, true);
        let counters = Counters {
            invalidations: 7,
            ..Default::default()
        };
        ck.finish(&counters);
    }

    #[test]
    fn shadow_tracks_write_then_nt_store() {
        let mut ck = CoherenceChecker::new(CheckLevel::FullOracle, ProtocolKind::Mesif);
        let mut e = DirEntry::default();
        step(&mut e, Request::Write, T0).seen_by(&mut ck, 7, &e, true);
        ck.observe_read(7, false);
        step(&mut e, Request::NtStore, T0).seen_by(&mut ck, 7, &e, true);
        ck.on_event(7, &ProtocolEvent::NtStore);
        ck.observe_read(7, true);
        let shadow = ck.shadow().unwrap();
        assert_eq!(shadow.tracked_lines(), 1);
        assert_eq!(shadow.reads_checked, 2);
        assert_eq!(shadow.visible(7), 2);
        ck.finish(&Counters {
            invalidations: 1,
            writebacks: 1,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "dirty cached copy")]
    fn oracle_catches_read_past_dirty_copy() {
        let mut ck = CoherenceChecker::new(CheckLevel::FullOracle, ProtocolKind::Mesif);
        let mut e = DirEntry::default();
        step(&mut e, Request::Write, T0).seen_by(&mut ck, 3, &e, true);
        // A read served straight from memory while T0 still holds the line
        // dirty: the stale-supply case the oracle exists to catch.
        ck.observe_read(3, true);
    }

    #[test]
    fn levels_parse_and_roundtrip() {
        for l in CheckLevel::ALL {
            assert_eq!(CheckLevel::parse(l.name()), Some(l));
        }
        assert_eq!(
            CheckLevel::parse("full-oracle"),
            Some(CheckLevel::FullOracle)
        );
        assert_eq!(CheckLevel::parse("bogus"), None);
        assert_eq!(CheckLevel::default(), CheckLevel::Off);
    }

    #[test]
    fn event_window_is_bounded() {
        let mut ck = checker();
        let mut e = DirEntry::default();
        for i in 0..(EVENT_WINDOW + 9) {
            let t = TileId((i % 2) as u16);
            step(&mut e, Request::Read, t).seen_by(&mut ck, 0, &e, true);
        }
        assert_eq!(ck.history.get(0).unwrap().len(), EVENT_WINDOW);
    }

    #[test]
    fn supplier_check_uses_state_of() {
        // A Shared entry whose forward pointer names a non-sharer is caught
        // through both the F-membership and supplier checks; state_of is the
        // authority.
        let e = DirEntry {
            state: GlobalState::Shared { forward: None },
            sharers: TileSet::from([T0]),
            version: 0,
            busy_until: 0,
        };
        assert_eq!(e.supplier(), None);
        assert_eq!(e.state_of(T0), LineState::Shared);
        checker().validate(0, &e, 0, 0);
    }
}
