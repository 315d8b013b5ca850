//! The simulated machine: caches + MESIF directory + mesh + memory devices.
//!
//! [`Machine::access`] performs one coherent line access and returns its
//! completion time, mutating every shared resource it touches (directory
//! serialization slots, device queues, tag arrays). Bulk streaming kernels
//! use [`Machine::stream_chunk`], which bypasses the coherence bookkeeping
//! (streams touch fresh lines with no reuse) but keeps device queueing and —
//! in cache mode — the memory-side cache behaviour.
//!
//! This file is the facade: state, construction, and the public accessor
//! surface. The protocol paths live in `engine/serve.rs`, bulk
//! transfers in `engine/transfer.rs`, and all instrumentation flows
//! through the [`ObserverHub`] defined in [`crate::engine::observe`] — a
//! plain struct of the four observers, built from an [`ObserverConfig`] at
//! construction; the observer accessors below read its fields.

use crate::alloc::Arena;
use crate::analyze::AnalyzeLevel;
use crate::cache::TagCache;
use crate::counters::Counters;
use crate::directory::{DirEntry, LineState, TileSet};
use crate::engine::observe::{ObserverConfig, ObserverHub};
use crate::engine::transfer::MlpRing;
use crate::invariants::{CheckLevel, CoherenceChecker};
use crate::mcache::MemorySideCache;
use crate::memdev::{DeviceParams, MemDevice};
use crate::mesh::{Mesh, MeshConfig};
use crate::paged::PagedLines;
use crate::program::Program;
use crate::protocol::{Outcome, Request};
use crate::telemetry::TelemetrySampler;
use crate::trace::{TraceLevel, Tracer};
use crate::SimTime;
use knl_arch::address::NUM_MEM_DEVICES;
use knl_arch::topology::splitmix64;
use knl_arch::{
    AddressMap, CoreId, MachineConfig, MemTarget, ProtocolKind, Reducer, TileId, Topology,
    LINE_SHIFT,
};

pub use crate::engine::transfer::StreamState;

/// Kind of a single coherent access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Coherent load.
    Read,
    /// Coherent store (read-for-ownership).
    Write,
    /// Non-temporal (streaming) store: bypasses the caches, invalidates any
    /// cached copies, writes straight to memory.
    NtStore,
}

/// Where an access was served from (for assertions and diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Requesting core's own L1.
    L1,
    /// Requester's tile L2, with the line's state there.
    TileL2(LineState),
    /// Forwarded from another tile's cache.
    RemoteCache {
        /// Supplying tile.
        holder: TileId,
        /// State the supplier held the line in.
        state: LineState,
    },
    /// Served by a memory device.
    Memory(MemTarget),
    /// Served by the MCDRAM memory-side cache (cache/hybrid modes).
    McacheHit {
        /// EDC that held the line.
        edc: u8,
    },
    /// NT stores are posted; nothing is "served".
    Posted,
}

/// Completion time plus provenance of one access.
#[derive(Debug, Clone, Copy)]
pub struct AccessOutcome {
    /// Completion time of the access.
    pub complete: SimTime,
    /// Where the data came from.
    pub served_by: ServedBy,
}

/// The simulated KNL.
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) topo: Topology,
    pub(crate) map: AddressMap,
    /// Per-core L1 and per-tile L2 tags. Each cache takes its storage at
    /// its first fill, so a machine holds only the ones its run touched.
    pub(crate) l1: Vec<TagCache>,
    pub(crate) l2: Vec<TagCache>,
    /// Data-port occupancy of each tile's L2.
    pub(crate) l2_port_busy: Vec<SimTime>,
    /// Distributed tag directory, keyed by line address. Paged: the lines
    /// a buffer copy or a sort pass walks are neighbours, and so are their
    /// entries in host memory (DESIGN.md §6, "Host-memory locality"). It is
    /// never iterated.
    pub(crate) dir: PagedLines<DirEntry>,
    pub(crate) mesh: Mesh,
    pub(crate) devices: Vec<MemDevice>,
    pub(crate) mcache: MemorySideCache,
    /// Outstanding-read ring of `copy_buf`/`read_buf`, kept between calls.
    pub(crate) c2c_ring: MlpRing,
    pub(crate) counters: Counters,
    jitter_pct: u32,
    /// `2 · jitter_pct + 1`, the span a jitter hash is reduced by.
    jitter_span: Reducer,
    jitter_seq: u64,
    /// The event spine: the four observers (coherence checker, tracer,
    /// telemetry sampler, analyzer pre-pass) are this hub's four fields.
    /// Empty by default, in which case each emission point is a single
    /// never-taken branch.
    pub(crate) hub: ObserverHub,
    /// Run after every directory transition (see
    /// [`Machine::set_transition_hook`]). `None` is the only production
    /// value.
    pub(crate) transition_hook: Option<Box<TransitionHook>>,
}

/// A post-transition hook: handed the protocol, the request, the
/// requesting tile, the entry before the transition, and the entry and
/// [`Outcome`] the shipped table produced, which it may rewrite.
#[doc(hidden)]
pub type TransitionHook =
    dyn Fn(ProtocolKind, Request, TileId, &DirEntry, &mut DirEntry, &mut Outcome) + Send;

// Sweep workers (knl-benchsuite's executor) each own a fresh Machine on a
// scoped thread; keep the type `Send` so a future field (Rc, RefCell over
// shared state, raw pointer) can't silently break the parallel drivers.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>();
};

impl Machine {
    /// Instantiate the simulated machine for one configuration, with no
    /// observers attached.
    pub fn new(cfg: MachineConfig) -> Self {
        Self::with_observer_config(cfg, ObserverConfig::default())
    }

    /// The simulated machine for one configuration with the observers an
    /// [`ObserverConfig`] describes attached — the one construction knob
    /// for checker, tracer, analyzer pre-pass and telemetry sampler, and
    /// the only way any of them is built.
    pub fn with_observer_config(cfg: MachineConfig, oc: ObserverConfig) -> Self {
        assert!(
            cfg.active_tiles <= TileSet::CAPACITY,
            "{} active tiles do not fit the directory's {}-tile sharer bitmask",
            cfg.active_tiles,
            TileSet::CAPACITY
        );
        let topo = cfg.topology();
        let map = cfg.address_map(&topo);
        let t = &cfg.timing;
        let num_cores = cfg.num_cores();
        let num_tiles = cfg.active_tiles;
        let mut devices = Vec::with_capacity(NUM_MEM_DEVICES);
        for i in 0..NUM_MEM_DEVICES {
            let is_ddr = i < 6;
            devices.push(if is_ddr {
                MemDevice::new(DeviceParams {
                    latency_ps: t.ddr_lat_ps,
                    read_service_ps: t.ddr_read_ps_per_line,
                    write_service_ps: t.ddr_write_ps_per_line,
                    write_mixed_ps: t.ddr_write_mixed_ps_per_line,
                    turnaround_ps: t.rw_turnaround_ps,
                    duplex: false,
                })
            } else {
                MemDevice::new(DeviceParams {
                    latency_ps: t.mcdram_lat_ps,
                    read_service_ps: t.mcdram_read_ps_per_line,
                    write_service_ps: t.mcdram_write_ps_per_line,
                    write_mixed_ps: t.mcdram_write_ps_per_line,
                    turnaround_ps: t.rw_turnaround_ps,
                    duplex: true,
                })
            });
        }
        let mcache = MemorySideCache::new(map.mcdram_cache_bytes());
        let mesh = Mesh::new(
            MeshConfig {
                hop_ps: t.hop_ps,
                ring_service_ps: (t.mesh_ring_service_ps > 0).then_some(t.mesh_ring_service_ps),
            },
            &topo,
        );
        let jitter_pct = t.jitter_for(cfg.cluster);
        let hub = ObserverHub::from_config(oc, cfg.protocol);
        Machine {
            cfg,
            topo,
            map,
            l1: (0..num_cores).map(|_| TagCache::knl_l1()).collect(),
            l2: (0..num_tiles).map(|_| TagCache::knl_l2()).collect(),
            l2_port_busy: vec![0; num_tiles],
            dir: PagedLines::new(),
            mesh,
            devices,
            mcache,
            c2c_ring: MlpRing::default(),
            counters: Counters::default(),
            jitter_pct,
            jitter_span: jitter_span(jitter_pct),
            jitter_seq: 0,
            hub,
            transition_hook: None,
        }
    }

    /// A runner is about to execute `programs` with `initial_flags`
    /// (sorted by address): the analyzer's static pre-pass runs here.
    pub fn observe_run_start(&self, programs: &[Program], initial_flags: &[(u64, u64)]) {
        self.hub.on_run_start(programs, initial_flags);
    }

    /// The active checking level.
    pub fn check_level(&self) -> CheckLevel {
        self.checker().map_or(CheckLevel::Off, |c| c.level())
    }

    /// The attached checker, if any (tests and diagnostics).
    pub fn checker(&self) -> Option<&CoherenceChecker> {
        self.hub.checker.as_deref()
    }

    /// End-of-run verification: reconcile the checker's message counters
    /// with [`Machine::counters`] and, at [`CheckLevel::FullOracle`], check
    /// the final memory image against the sequential reference. No-op when
    /// checking is off; panics with a `coherence violation` report on any
    /// divergence.
    pub fn finish_check(&self) {
        self.hub.finish(&self.counters);
    }

    /// Fault injection for verification tools: run `hook` after every
    /// directory transition, on what the shipped table just produced, or
    /// `None` to restore the shipped tables alone.
    #[doc(hidden)]
    pub fn set_transition_hook(&mut self, hook: Option<Box<TransitionHook>>) {
        self.transition_hook = hook;
    }

    /// The active tracing level.
    pub fn trace_level(&self) -> TraceLevel {
        self.tracer().map_or(TraceLevel::Off, |t| t.level())
    }

    /// The attached tracer, if any (tests and diagnostics).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.hub.tracer.as_deref()
    }

    /// Detach and return the tracer; sweep drivers serialize it per job
    /// and merge the sections in canonical job order.
    pub fn take_tracer(&mut self) -> Option<Box<Tracer>> {
        self.hub.take_tracer()
    }

    /// The attached telemetry sampler, if any (tests and diagnostics).
    pub fn telemetry(&self) -> Option<&TelemetrySampler> {
        self.hub.telemetry.as_deref()
    }

    /// Detach and return the telemetry sampler; sweep drivers serialize
    /// it per job and merge the sections in canonical job order, exactly
    /// like traces.
    pub fn take_telemetry(&mut self) -> Option<Box<TelemetrySampler>> {
        self.hub.take_telemetry()
    }

    /// The active static-analysis level.
    pub fn analyze_level(&self) -> AnalyzeLevel {
        self.hub.analyze
    }

    /// Stamp subsequent trace events with the executing `thread` (set by
    /// the runner; machine-internal activity keeps the last context).
    pub fn set_trace_thread(&mut self, thread: u32) {
        self.hub.set_thread(thread);
    }

    /// Record a measured-interval boundary in the trace (runner
    /// `MarkStart`/`MarkEnd`). No-op when no observer consumes events.
    pub fn trace_mark(&mut self, id: u32, start: bool, now: SimTime) {
        self.hub.mark(now, id, start);
    }

    /// The configuration the machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The die topology (tile/EDC/IMC coordinates).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The machine's address map.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Snapshot of the hardware event counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// A fresh arena over this machine's NUMA regions.
    pub fn arena(&self) -> Arena {
        Arena::new(&self.map)
    }

    /// Disable latency jitter (model fitting wants clean parameters;
    /// benchmark realism wants jitter on).
    pub fn set_jitter(&mut self, pct: u32) {
        self.jitter_pct = pct;
        self.jitter_span = jitter_span(pct);
    }

    /// Empty the caches, the directory and the memory-side cache (fresh
    /// repetition). Benchmark loops call this after every iteration, so it
    /// costs what the iteration wrote — the tag-array sets inserted into
    /// and the page indexes of the directory and the memory-side-cache
    /// tags (12 B per page of eight lines; the pages themselves are only
    /// forgotten, and kept for the next repetition) — plus a scan of the
    /// per-set bitmaps of the caches filled so far (at most 4.6 KB), not a
    /// rewrite of their tag arrays (DESIGN.md §6, "Reset cost"). A cache
    /// keeps its storage, so the next repetition allocates no tags.
    pub fn reset_caches(&mut self) {
        self.reset_tile_caches();
        if self.mcache.enabled() {
            self.mcache.clear();
        }
    }

    /// Empty only the on-die caches (L1/L2/directory), leaving the MCDRAM
    /// memory-side cache warm — used by cache-mode latency benchmarks.
    /// Same cost rule as [`Machine::reset_caches`].
    pub fn reset_tile_caches(&mut self) {
        for c in &mut self.l1 {
            c.clear();
        }
        for c in &mut self.l2 {
            c.clear();
        }
        self.l2_port_busy.fill(0);
        self.dir.clear();
        self.hub.on_reset();
    }

    /// Clear device queue backlog (memory devices and mesh rings).
    pub fn reset_devices(&mut self) {
        for d in &mut self.devices {
            d.reset();
        }
        self.mesh.reset();
    }

    /// Hit rate of the memory-side cache so far (cache/hybrid modes).
    pub fn mcache_hit_rate(&self) -> f64 {
        self.mcache.hit_rate()
    }

    /// Perform one coherent access; returns completion time and provenance.
    pub fn access(
        &mut self,
        core: CoreId,
        addr: u64,
        kind: AccessKind,
        now: SimTime,
    ) -> AccessOutcome {
        let line = addr >> LINE_SHIFT;
        let tile = core.tile();
        self.hub.set_tile(tile.0);
        match kind {
            AccessKind::Read => self.read(core, tile, line, addr, now),
            AccessKind::Write => self.write(core, tile, line, addr, now),
            AccessKind::NtStore => self.nt_store(tile, line, addr, now),
        }
    }

    /// The MESIF state `tile` currently holds `addr` in (directory's view).
    pub fn line_state(&self, addr: u64, tile: TileId) -> LineState {
        let line = addr >> LINE_SHIFT;
        self.dir
            .get(line)
            .map_or(LineState::Invalid, |e| e.state_of(tile))
    }

    pub(crate) fn jitter(&mut self, dur: SimTime, line: u64) -> SimTime {
        if self.jitter_pct == 0 {
            return dur;
        }
        self.jitter_seq = self.jitter_seq.wrapping_add(1);
        let h = splitmix64(self.jitter_seq ^ line.rotate_left(17));
        let pct = self.jitter_span.remainder(h) as i64 - self.jitter_pct as i64;
        ((dur as i64) + (dur as i64 * pct) / 100).max(0) as SimTime
    }
}

/// The reducer for jitter's `h mod (2·pct + 1)`: a percentage drawn
/// uniformly from `-pct..=pct`.
fn jitter_span(pct: u32) -> Reducer {
    Reducer::new(2 * pct as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::{ClusterMode, MemoryMode};

    #[test]
    #[should_panic(expected = "sharer bitmask")]
    fn more_tiles_than_the_sharer_mask_holds_are_rejected() {
        let mut cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
        cfg.active_tiles = TileSet::CAPACITY + 1;
        Machine::new(cfg);
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Machine::new(MachineConfig::knl7210(
            ClusterMode::Quadrant,
            MemoryMode::Flat,
        ));
        m.set_jitter(0);
        let before = m.counters();
        m.access(CoreId(0), 4096, AccessKind::Read, 0);
        m.access(CoreId(0), 4096, AccessKind::Read, 1_000_000);
        let d = m.counters().since(&before);
        assert_eq!(d.l1_hits, 1);
        assert_eq!(d.memory_accesses(), 1);
    }
}
