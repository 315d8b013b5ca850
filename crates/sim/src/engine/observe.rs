//! The event spine: the engine emits each protocol action exactly once as
//! a [`ProtocolEvent`], and the [`ObserverHub`] hands it to the observers
//! an [`ObserverConfig`] asked for — checker, tracer, telemetry sampler, in
//! that order — with the one event context (runner thread, requesting
//! tile) the hub keeps. Every call is static.
//!
//! Observers are *pure*: they may panic (the checker's whole job) but never
//! change simulated timings, counters or cache state (`checked ≡
//! unchecked`, `traced ≡ untraced` pin it), and
//! `tests/golden/observed_{transfer,stream}.txt` pin what they write. With
//! no event consumer attached every emission helper is one `#[inline]`
//! flag test.

use crate::counters::Counters;
use crate::directory::{DirEntry, GlobalState};
use crate::invariants::{CheckLevel, CoherenceChecker};
use crate::machine::ServedBy;
use crate::protocol::{Outcome, Request};
use crate::telemetry::{TelemetryConfig, TelemetrySampler};
use crate::trace::{TraceLevel, Tracer, NO_THREAD};
use crate::SimTime;
use knl_arch::{MemTarget, ProtocolKind, TileId};

/// One observable protocol action, tagged with everything the engine has
/// already computed at the emission point (supplier state, hop counts,
/// queue depths, directory entry after the transition). Borrowed fields
/// keep emission allocation-free.
#[derive(Debug, Clone, Copy)]
pub enum ProtocolEvent<'a> {
    /// A coherent request leaves the core (`R`/`W`/`N`).
    Issue {
        /// Operation tag: `R`ead, `W`rite, `N`T store.
        op: char,
    },
    /// A request completed, with provenance and latency.
    Serve {
        /// Operation tag (`R`/`W`).
        op: char,
        /// Source tag (see `src_tag`).
        src: char,
        /// Mesh distance between requester and server.
        hops: u32,
        /// End-to-end latency of the access.
        latency_ps: SimTime,
    },
    /// A directory step, after the entry was updated: what `tile` asked
    /// and what [`crate::protocol::transition`] answered.
    Dir {
        /// Global state tag before the step (see `gstate_tag`).
        from: char,
        /// What the requesting tile asked of the directory.
        request: Request,
        /// The requesting tile.
        tile: TileId,
        /// What the transition did.
        out: Outcome,
        /// The directory entry, already in its post-transition state.
        entry: &'a DirEntry,
    },
    /// A message finished one mesh leg (`q`uery/`d`ata/`r`eply).
    Hop {
        /// Leg tag.
        leg: char,
        /// Manhattan hop count of the leg.
        hops: u32,
    },
    /// A request entered a memory device queue.
    DevEnter {
        /// Device index (0–5 DDR, 6+ MCDRAM EDC).
        dev: u8,
        /// Write (vs read) request.
        write: bool,
        /// Lines already queued ahead of it.
        depth: u32,
    },
    /// A request left a memory device queue.
    DevLeave {
        /// Device index.
        dev: u8,
    },
    /// Memory-side cache lookup outcome (cache/hybrid modes).
    Mcache {
        /// EDC holding the set.
        edc: u8,
        /// Hit or miss.
        hit: bool,
    },
    /// Invalidation messages sent to `n` holders.
    Inv {
        /// Number of holders invalidated.
        n: u32,
    },
    /// Update messages refreshing `n` holders in place (update-based
    /// protocols).
    Update {
        /// Number of holders updated.
        n: u32,
    },
    /// A dirty line was written back. `external` write-backs originate
    /// outside the directory's view (memory-side-cache victim evictions);
    /// the checker reconciles them separately from the directory-implied
    /// ones it infers from [`ProtocolEvent::Dir`] transitions.
    Writeback {
        /// True only for mcache victim evictions.
        external: bool,
    },
    /// A measured-interval boundary (runner `MarkStart`/`MarkEnd`).
    Mark {
        /// Interval id.
        id: u32,
        /// Start (vs end) of the interval.
        start: bool,
    },
    /// A coherent read was satisfied (`from_memory`: served by a device
    /// rather than a cache). Consumed by the checker's read oracle only;
    /// never traced.
    CoherentRead {
        /// Data came from memory, not a cache.
        from_memory: bool,
    },
    /// An NT store overwrote the line (checker shadow-memory update only).
    NtStore,
}

/// Which observers to attach at construction — the one knob that replaced
/// `with_check`/`with_observers` and the per-observer setters. Build with
/// the chainable setters; `Default` is all-off (no observers, zero-cost
/// hot path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObserverConfig {
    /// Dynamic coherence checking level.
    pub check: CheckLevel,
    /// Structured event tracing level.
    pub trace: TraceLevel,
    /// Time-resolved telemetry sampling (off by default).
    pub telemetry: TelemetryConfig,
}

impl ObserverConfig {
    /// Set the coherence-checking level.
    pub fn check(mut self, level: CheckLevel) -> Self {
        self.check = level;
        self
    }

    /// Set the tracing level.
    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Set the telemetry sampling config.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = cfg;
        self
    }
}

/// Who the next events come from: the runner thread ([`NO_THREAD`] outside
/// runner context) and the tile of the access being served. The hub keeps
/// the one copy and hands it to the tracer and the sampler with every
/// event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventContext {
    pub(crate) thread: u32,
    pub(crate) tile: u16,
}

impl Default for EventContext {
    fn default() -> Self {
        EventContext {
            thread: NO_THREAD,
            tile: 0,
        }
    }
}

/// The observer bus: the three things an [`ObserverConfig`] can ask for,
/// one field each, and the event context. Emission helpers are the
/// *single* construction site of each [`ProtocolEvent`] variant; `emit`
/// and the lifecycle hooks call exactly the observers that implement them,
/// in the fixed order checker, tracer, telemetry — observers are pure (see
/// the module docs), so the order is unobservable in simulated results.
pub struct ObserverHub {
    pub(crate) checker: Option<Box<CoherenceChecker>>,
    pub(crate) tracer: Option<Box<Tracer>>,
    pub(crate) telemetry: Option<Box<TelemetrySampler>>,
    /// Cached "checker, tracer or telemetry attached" — the empty-hub fast
    /// path.
    events: bool,
    ctx: EventContext,
}

impl ObserverHub {
    /// Build the hub an [`ObserverConfig`] describes — the only way to get
    /// one, and only at machine construction. `protocol` tells the checker
    /// which back end's legal-state set to enforce.
    pub(crate) fn from_config(oc: ObserverConfig, protocol: ProtocolKind) -> Self {
        let checker = (oc.check != CheckLevel::Off)
            .then(|| Box::new(CoherenceChecker::new(oc.check, protocol)));
        let tracer = (oc.trace != TraceLevel::Off).then(|| Box::new(Tracer::new(oc.trace)));
        let telemetry = oc
            .telemetry
            .enabled()
            .then(|| Box::new(TelemetrySampler::new(oc.telemetry)));
        ObserverHub {
            events: checker.is_some() || tracer.is_some() || telemetry.is_some(),
            checker,
            tracer,
            telemetry,
            ctx: EventContext::default(),
        }
    }

    /// Is any event consumer attached? The engine gates event-only
    /// bookkeeping (queue-depth sampling, source/hop tagging) behind this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.events
    }

    /// Detach and return the tracer, its rows folded into its metrics
    /// (sweep drivers serialize it per job).
    pub(crate) fn take_tracer(&mut self) -> Option<Box<Tracer>> {
        let mut tracer = self.tracer.take()?;
        self.events = self.checker.is_some() || self.telemetry.is_some();
        tracer.fold_rows();
        Some(tracer)
    }

    /// Detach and return the telemetry sampler, its open bin closed.
    pub(crate) fn take_telemetry(&mut self) -> Option<Box<TelemetrySampler>> {
        let mut telemetry = self.telemetry.take()?;
        self.events = self.checker.is_some() || self.tracer.is_some();
        telemetry.close_bin();
        Some(telemetry)
    }

    /// Hand one event to every attached consumer (the outlined slow path
    /// of every emitter: kept out of line so each emission site in the
    /// engine is a flag test and a call).
    #[inline(never)]
    fn emit(&mut self, time: SimTime, line: u64, event: &ProtocolEvent<'_>) {
        if let Some(c) = self.checker.as_deref_mut() {
            // The kinds the checker folds; its `on_event` lists the rest.
            if let ProtocolEvent::Dir { .. }
            | ProtocolEvent::CoherentRead { .. }
            | ProtocolEvent::NtStore
            | ProtocolEvent::Writeback { external: true } = event
            {
                c.on_event(line, event);
            }
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            t.on_event(self.ctx, time, line, event);
        }
        if let Some(s) = self.telemetry.as_deref_mut() {
            s.on_event(self.ctx.tile, time, event);
        }
    }

    // ------------------------------------------------------------------
    // Emission helpers — one per variant, each the variant's only
    // construction site. All are a single flag test when the hub has no
    // event consumer.
    // ------------------------------------------------------------------

    /// Emit [`ProtocolEvent::Issue`].
    #[inline]
    pub(crate) fn issue(&mut self, time: SimTime, line: u64, op: char) {
        if self.events {
            self.emit(time, line, &ProtocolEvent::Issue { op });
        }
    }

    /// Emit [`ProtocolEvent::Serve`].
    #[inline]
    pub(crate) fn serve(
        &mut self,
        time: SimTime,
        line: u64,
        op: char,
        src: char,
        hops: u32,
        latency_ps: SimTime,
    ) {
        if self.events {
            self.emit(
                time,
                line,
                &ProtocolEvent::Serve {
                    op,
                    src,
                    hops,
                    latency_ps,
                },
            );
        }
    }

    /// Emit [`ProtocolEvent::Dir`] for an entry already in its
    /// post-transition state.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn dir_transition(
        &mut self,
        time: SimTime,
        line: u64,
        from: char,
        request: Request,
        tile: TileId,
        out: Outcome,
        entry: &DirEntry,
    ) {
        if self.events {
            self.emit(
                time,
                line,
                &ProtocolEvent::Dir {
                    from,
                    request,
                    tile,
                    out,
                    entry,
                },
            );
        }
    }

    /// Emit [`ProtocolEvent::Hop`].
    #[inline]
    pub(crate) fn hop(&mut self, time: SimTime, line: u64, leg: char, hops: u32) {
        if self.events {
            self.emit(time, line, &ProtocolEvent::Hop { leg, hops });
        }
    }

    /// Emit [`ProtocolEvent::DevEnter`].
    #[inline]
    pub(crate) fn dev_enter(&mut self, time: SimTime, line: u64, dev: u8, write: bool, depth: u32) {
        if self.events {
            self.emit(time, line, &ProtocolEvent::DevEnter { dev, write, depth });
        }
    }

    /// Emit [`ProtocolEvent::DevLeave`].
    #[inline]
    pub(crate) fn dev_leave(&mut self, time: SimTime, line: u64, dev: u8) {
        if self.events {
            self.emit(time, line, &ProtocolEvent::DevLeave { dev });
        }
    }

    /// Emit [`ProtocolEvent::Mcache`].
    #[inline]
    pub(crate) fn mcache(&mut self, time: SimTime, line: u64, edc: u8, hit: bool) {
        if self.events {
            self.emit(time, line, &ProtocolEvent::Mcache { edc, hit });
        }
    }

    /// Emit [`ProtocolEvent::Inv`].
    #[inline]
    pub(crate) fn inv(&mut self, time: SimTime, line: u64, n: u32) {
        if self.events {
            self.emit(time, line, &ProtocolEvent::Inv { n });
        }
    }

    /// Emit [`ProtocolEvent::Update`].
    #[inline]
    pub(crate) fn update(&mut self, time: SimTime, line: u64, n: u32) {
        if self.events {
            self.emit(time, line, &ProtocolEvent::Update { n });
        }
    }

    /// Emit [`ProtocolEvent::Writeback`].
    #[inline]
    pub(crate) fn writeback(&mut self, time: SimTime, line: u64, external: bool) {
        if self.events {
            self.emit(time, line, &ProtocolEvent::Writeback { external });
        }
    }

    /// Emit [`ProtocolEvent::Mark`] (line-less).
    #[inline]
    pub(crate) fn mark(&mut self, time: SimTime, id: u32, start: bool) {
        if self.events {
            self.emit(time, 0, &ProtocolEvent::Mark { id, start });
        }
    }

    /// Emit [`ProtocolEvent::CoherentRead`].
    #[inline]
    pub(crate) fn coherent_read(&mut self, time: SimTime, line: u64, from_memory: bool) {
        if self.events {
            self.emit(time, line, &ProtocolEvent::CoherentRead { from_memory });
        }
    }

    /// Emit [`ProtocolEvent::NtStore`].
    #[inline]
    pub(crate) fn nt_store(&mut self, time: SimTime, line: u64) {
        if self.events {
            self.emit(time, line, &ProtocolEvent::NtStore);
        }
    }

    // ------------------------------------------------------------------
    // Lifecycle hooks — each names the observers that implement it.
    // ------------------------------------------------------------------

    /// The runner switched execution context to `thread`.
    #[inline]
    pub(crate) fn set_thread(&mut self, thread: u32) {
        self.ctx.thread = thread;
    }

    /// Subsequent events originate from `tile`.
    #[inline]
    pub(crate) fn set_tile(&mut self, tile: u16) {
        self.ctx.tile = tile;
    }

    /// The on-die caches and directory were cleared (fresh repetition).
    pub(crate) fn on_reset(&mut self) {
        if let Some(c) = self.checker.as_deref_mut() {
            c.on_reset();
        }
        if let Some(s) = self.telemetry.as_deref_mut() {
            s.on_reset();
        }
    }

    /// End-of-run verification against the machine's hardware counters.
    pub(crate) fn finish(&self, counters: &Counters) {
        if let Some(c) = self.checker.as_deref() {
            c.finish(counters);
        }
    }
}

/// Directory global-state tag for trace events (`U`/`E`/`M`/`S`/`O`).
pub(crate) fn gstate_tag(s: &GlobalState) -> char {
    match s {
        GlobalState::Uncached => 'U',
        GlobalState::Exclusive { .. } => 'E',
        GlobalState::Modified { .. } => 'M',
        GlobalState::Shared { .. } => 'S',
        GlobalState::Owned { .. } => 'O',
    }
}

/// Every source tag a [`ProtocolEvent::Serve`] carries: what [`src_tag`]
/// returns, the letter of each [`crate::directory::LineState`] included.
/// The order is the tracer's dense histogram row's.
pub(crate) const SRC_TAGS: [char; 12] =
    ['L', 'T', 'M', 'E', 'S', 'F', 'O', 'I', 'D', 'C', 'H', 'N'];

/// Position of `src` in [`SRC_TAGS`].
#[inline]
pub(crate) fn src_index(src: char) -> usize {
    match src {
        'L' => 0,
        'T' => 1,
        'M' => 2,
        'E' => 3,
        'S' => 4,
        'F' => 5,
        'O' => 6,
        'I' => 7,
        'D' => 8,
        'C' => 9,
        'H' => 10,
        'N' => 11,
        _ => panic!("{src:?} is not a source tag"),
    }
}

/// Trace source tag for a [`ServedBy`] provenance.
pub(crate) fn src_tag(served: ServedBy) -> char {
    match served {
        ServedBy::L1 => 'L',
        ServedBy::TileL2(_) => 'T',
        ServedBy::RemoteCache { state, .. } => state.letter(),
        ServedBy::Memory(MemTarget::Ddr { .. }) => 'D',
        ServedBy::Memory(MemTarget::Mcdram { .. }) => 'C',
        ServedBy::McacheHit { .. } => 'H',
        ServedBy::Posted => 'N',
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{AccessKind, Machine};
    use crate::trace::EventKind;
    use knl_arch::{ClusterMode, CoreId, MachineConfig, MemoryMode, NumaKind};

    fn ddr_addr(m: &Machine) -> u64 {
        let mut a = m.arena();
        a.alloc(NumaKind::Ddr, 4096)
    }

    fn hub(oc: ObserverConfig) -> ObserverHub {
        ObserverHub::from_config(oc, ProtocolKind::Mesif)
    }

    #[test]
    fn every_source_tag_has_a_row_position() {
        use crate::directory::LineState;
        use knl_arch::MemTarget;
        let states = [
            LineState::Modified,
            LineState::Exclusive,
            LineState::Shared,
            LineState::Forward,
            LineState::Owned,
            LineState::Invalid,
        ];
        let served = [
            ServedBy::L1,
            ServedBy::Memory(MemTarget::Ddr { imc: 0, chan: 0 }),
            ServedBy::Memory(MemTarget::Mcdram { edc: 0 }),
            ServedBy::McacheHit { edc: 0 },
            ServedBy::Posted,
        ]
        .into_iter()
        .chain(states.iter().flat_map(|&state| {
            [
                ServedBy::TileL2(state),
                ServedBy::RemoteCache {
                    holder: TileId(1),
                    state,
                },
            ]
        }));
        for by in served {
            let tag = src_tag(by);
            assert_eq!(SRC_TAGS[src_index(tag)], tag, "{by:?}");
        }
        for (i, &tag) in SRC_TAGS.iter().enumerate() {
            assert_eq!(src_index(tag), i);
        }
    }

    #[test]
    fn empty_hub_reports_disabled() {
        // Every way of spelling "off" is the default configuration, and
        // the default builds the hub the engine's fast path skips.
        let off = ObserverConfig::default();
        for oc in [
            off,
            off.check(CheckLevel::Off),
            off.trace(TraceLevel::Off),
            off.telemetry(TelemetryConfig::off()),
            off.check(CheckLevel::Off)
                .trace(TraceLevel::Off)
                .telemetry(TelemetryConfig::off()),
        ] {
            assert_eq!(oc, ObserverConfig::default());
            assert!(!hub(oc).enabled());
        }
    }

    #[test]
    fn taking_the_last_event_consumer_restores_the_fast_path() {
        let mut hub = hub(ObserverConfig::default()
            .trace(TraceLevel::Full)
            .telemetry(TelemetryConfig::on()));
        assert!(hub.enabled());
        let taken = hub.take_tracer().expect("tracer attached");
        assert_eq!(taken.level(), TraceLevel::Full);
        assert!(hub.tracer.is_none());
        // The sampler still wants events; the fast-path flag survives.
        assert!(hub.enabled());
        hub.take_telemetry().expect("sampler attached");
        assert!(!hub.enabled());
    }

    #[test]
    fn checked_machine_matches_unchecked_timing() {
        // CheckLevel must be a pure observer: identical access timings and
        // counters with the oracle on or off.
        let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Cache);
        let mut plain = Machine::new(cfg.clone());
        let mut checked = Machine::with_observer_config(
            cfg,
            ObserverConfig::default().check(CheckLevel::FullOracle),
        );
        plain.set_jitter(0);
        checked.set_jitter(0);
        let mut tp = 0;
        let mut tc = 0;
        for (i, kind) in [
            AccessKind::Read,
            AccessKind::Write,
            AccessKind::Read,
            AccessKind::NtStore,
            AccessKind::Read,
        ]
        .iter()
        .enumerate()
        {
            let c = CoreId((i as u16 % 4) * 2);
            tp = plain.access(c, 4096, *kind, tp).complete;
            tc = checked.access(c, 4096, *kind, tc).complete;
            assert_eq!(tp, tc, "op {i}");
        }
        assert_eq!(plain.counters(), checked.counters());
        checked.finish_check();
    }

    #[test]
    fn traced_machine_matches_untraced_timing() {
        // TraceLevel must be a pure observer: identical access timings and
        // counters with tracing on or off.
        let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Cache);
        let mut plain = Machine::new(cfg.clone());
        let mut traced =
            Machine::with_observer_config(cfg, ObserverConfig::default().trace(TraceLevel::Full));
        plain.set_jitter(0);
        traced.set_jitter(0);
        let mut tp = 0;
        let mut tc = 0;
        for (i, kind) in [
            AccessKind::Read,
            AccessKind::Write,
            AccessKind::Read,
            AccessKind::NtStore,
            AccessKind::Read,
            AccessKind::Write,
        ]
        .iter()
        .enumerate()
        {
            let c = CoreId((i as u16 % 4) * 2);
            tp = plain.access(c, 4096, *kind, tp).complete;
            tc = traced.access(c, 4096, *kind, tc).complete;
            assert_eq!(tp, tc, "op {i}");
        }
        tp = plain.evict_line(CoreId(0), 4096, tp);
        tc = traced.evict_line(CoreId(0), 4096, tc);
        assert_eq!(tp, tc);
        assert_eq!(plain.counters(), traced.counters());
        assert!(!traced
            .tracer()
            .expect("tracer attached")
            .events()
            .is_empty());
    }

    #[test]
    fn remote_serve_traced_with_state_and_hops() {
        use crate::directory::LineState;
        use crate::mesh::StopId;
        let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
        let mut m =
            Machine::with_observer_config(cfg, ObserverConfig::default().trace(TraceLevel::Full));
        m.set_jitter(0);
        let addr = ddr_addr(&m);
        let owner = CoreId(0);
        let reader = CoreId(10);
        let t = m.access(owner, addr, AccessKind::Write, 0).complete;
        let out = m.access(reader, addr, AccessKind::Read, t);
        let ServedBy::RemoteCache { holder, state } = out.served_by else {
            panic!("expected remote-cache serve, got {:?}", out.served_by);
        };
        assert_eq!(state, LineState::Modified);
        let want_hops = m
            .mesh
            .hops(StopId::tile(reader.tile()), StopId::tile(holder));
        let tr = m.tracer().expect("tracer attached");
        let srv = tr
            .events()
            .iter()
            .rev()
            .find_map(|e| {
                let EventKind::Serve {
                    op: 'R', src, hops, ..
                } = e.kind
                else {
                    return None;
                };
                Some((src, hops, e.tile))
            })
            .expect("remote read recorded a Serve event");
        assert_eq!(srv.0, 'M', "supplier held the line Modified");
        assert_eq!(srv.1, want_hops);
        assert_eq!(srv.2, reader.tile().0, "stamped with requesting tile");
    }

    #[test]
    fn trace_metrics_reconcile_with_counters() {
        // Every Inv/Writeback/Mcache event the tracer aggregates must match
        // the machine's own hardware counters, at Summary as well as Full.
        for level in [TraceLevel::Summary, TraceLevel::Full] {
            let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Cache);
            let mut m = Machine::with_observer_config(cfg, ObserverConfig::default().trace(level));
            m.set_jitter(0);
            let addr = {
                let mut a = m.arena();
                a.alloc(NumaKind::Ddr, 1 << 20)
            };
            let mut t = 0;
            for i in 0..512u64 {
                let c = CoreId((i % 8 * 2) as u16);
                let a = addr + (i % 64) * 64;
                let kind = match i % 3 {
                    0 => AccessKind::Read,
                    1 => AccessKind::Write,
                    _ => AccessKind::NtStore,
                };
                t = m.access(c, a, kind, t).complete;
            }
            let ctr = m.counters();
            let tr = m.take_tracer().expect("tracer attached");
            let mm = tr.metrics();
            assert_eq!(mm.invalidations, ctr.invalidations, "{level:?}");
            assert_eq!(mm.writebacks, ctr.writebacks, "{level:?}");
            assert_eq!(mm.mcache_hits, ctr.mcache_hits, "{level:?}");
            assert_eq!(mm.mcache_misses, ctr.mcache_misses, "{level:?}");
            // Every Serve lands in exactly one histogram and one tile row,
            // and remote serves reconcile with the remote-hit counter.
            let serves: u64 = mm.tiles.values().map(|s| s.serves).sum();
            let hist_total: u64 = mm.hist.values().map(|h| h.count).sum();
            assert_eq!(serves, hist_total, "{level:?}");
            let remote: u64 = mm.tiles.values().map(|s| s.remote).sum();
            assert_eq!(remote, ctr.remote_cache_hits, "{level:?}");
        }
    }

    #[test]
    fn all_three_observers_match_bare_machine() {
        // The full stack at once — checker, tracer and telemetry sampler —
        // must still be invisible to simulated results.
        let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Cache);
        let mut plain = Machine::new(cfg.clone());
        let mut observed = Machine::with_observer_config(
            cfg,
            ObserverConfig::default()
                .check(CheckLevel::FullOracle)
                .trace(TraceLevel::Full)
                .telemetry(TelemetryConfig::on()),
        );
        plain.set_jitter(0);
        observed.set_jitter(0);
        let mut tp = 0;
        let mut to = 0;
        for i in 0..64u64 {
            let c = CoreId((i % 8 * 2) as u16);
            let a = 4096 + (i % 16) * 64;
            let kind = match i % 3 {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::NtStore,
            };
            tp = plain.access(c, a, kind, tp).complete;
            to = observed.access(c, a, kind, to).complete;
            assert_eq!(tp, to, "op {i}");
        }
        assert_eq!(plain.counters(), observed.counters());
        observed.finish_check();
        assert!(!observed.tracer().unwrap().events().is_empty());
    }
}
