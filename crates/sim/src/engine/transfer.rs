//! Bulk data movement: cached copy/read buffers (core-to-core transfer
//! benchmarks, Table I) and bounded-MLP streaming kernels (memory
//! bandwidth, Table II / Fig. 9). Observable actions route through the
//! [`crate::engine::observe::ObserverHub`] exactly like the single-line
//! protocol paths in [`crate::engine::serve`].

use crate::engine::observe::src_tag;
use crate::machine::{AccessKind, Machine};
use crate::mesh::StopId;
use crate::SimTime;
use knl_arch::{Backing, CoreId, MemTarget, TileId, LINE_SHIFT};

/// Bounded memory-level parallelism: a fixed-size wrap-around ring of the
/// completion times of the requests in flight. A request waits for the
/// slot it reuses ([`MlpRing::gate`]) and then occupies it
/// ([`MlpRing::record`]); nothing divides, and refilling keeps the
/// allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct MlpRing {
    slots: Vec<SimTime>,
    next: usize,
}

impl MlpRing {
    /// `ov` slots (at least one), all free from `t`.
    pub(crate) fn fill(&mut self, ov: usize, t: SimTime) {
        self.slots.clear();
        self.slots.resize(ov.max(1), t);
        self.next = 0;
    }

    /// When a request issued at `issue` may go: once the slot it reuses
    /// is free.
    fn gate(&self, issue: SimTime) -> SimTime {
        issue.max(self.slots[self.next])
    }

    /// The gated request completes at `complete`; the next one takes the
    /// following slot.
    fn record(&mut self, complete: SimTime) {
        self.slots[self.next] = complete;
        self.next += 1;
        if self.next == self.slots.len() {
            self.next = 0;
        }
    }

    /// Time when every request in flight has completed.
    fn drain(&self) -> SimTime {
        self.slots.iter().copied().max().unwrap_or(0)
    }
}

/// Lines of one stream operand resolved at a time.
const RUN_LINES: usize = 16;

/// The routes of the next lines of one stream operand: lines `first ..
/// first + len` (`len ≤ RUN_LINES`, and none past the kernel's last line).
/// Keyed by line, so a run left over from another kernel or another
/// operand is never served.
#[derive(Debug, Clone)]
struct RouteRun<T> {
    first: u64,
    len: u64,
    routes: [T; RUN_LINES],
}

impl<T: Copy> RouteRun<T> {
    fn empty(fill: T) -> Self {
        RouteRun {
            first: 0,
            len: 0,
            routes: [fill; RUN_LINES],
        }
    }

    /// The route of the line at `addr`, `left` lines (it included) before
    /// the kernel's end. When the run does not hold it, `resolve(addr,
    /// out)` fills the run from that line on, never past the end.
    #[inline(always)]
    fn route(&mut self, addr: u64, left: u64, resolve: impl FnOnce(u64, &mut [T])) -> T {
        let k = (addr >> LINE_SHIFT).wrapping_sub(self.first);
        if k < self.len {
            return self.routes[k as usize];
        }
        self.refill(addr, left, resolve)
    }

    #[inline(never)]
    fn refill(&mut self, addr: u64, left: u64, resolve: impl FnOnce(u64, &mut [T])) -> T {
        let len = left.min(RUN_LINES as u64);
        resolve(addr, &mut self.routes[..len as usize]);
        self.first = addr >> LINE_SHIFT;
        self.len = len;
        self.routes[0]
    }
}

/// State carried across the chunks of one streaming kernel: the rings of
/// outstanding load and NT-store completions implementing bounded MLP,
/// sized on the kernel's first chunk, the issue frontier, and the resolved
/// routes of the next 16 lines of each operand (the home and backing of a
/// loaded one, the backing of the stored one), held inline so they outlive
/// the runner's slices without an allocation. A state serves the kernels
/// of one machine.
#[derive(Debug, Clone)]
pub struct StreamState {
    load: MlpRing,
    nt: MlpRing,
    last_issue: SimTime,
    /// Routes of the loaded operands `b` and `c`.
    loads: [RouteRun<(TileId, Backing)>; 2],
    /// Backings of the stored operand `a`.
    stores: RouteRun<Backing>,
}

impl Default for StreamState {
    fn default() -> Self {
        let none = Backing {
            target: MemTarget::Mcdram { edc: 0 },
            mcache_edc: None,
        };
        StreamState {
            load: MlpRing::default(),
            nt: MlpRing::default(),
            last_issue: 0,
            loads: [(); 2].map(|()| RouteRun::empty((TileId(0), none))),
            stores: RouteRun::empty(none),
        }
    }
}

impl StreamState {
    /// Ready the state for the next kernel, keeping the rings' storage
    /// (the runner calls this when a thread's stream op completes).
    pub(crate) fn reset(&mut self) {
        self.load.slots.clear();
        self.nt.slots.clear();
        self.last_issue = 0;
    }
}

impl Machine {
    /// Copy `bytes` from `src` to `dst` through the cache hierarchy,
    /// overlapping up to the copy MLP cap. Returns the last write's
    /// completion.
    pub fn copy_buf(
        &mut self,
        core: CoreId,
        src: u64,
        dst: u64,
        bytes: u64,
        vectorized: bool,
        now: SimTime,
    ) -> SimTime {
        let ov = if vectorized {
            self.cfg.timing.ov_c2c_copy_vec
        } else {
            self.cfg.timing.ov_c2c_copy_scalar
        } as usize;
        self.buf_lines(core, src, Some(dst), bytes, ov, now)
    }

    /// Read `bytes` from `src` into registers (no destination buffer),
    /// overlapping up to the read MLP cap. Returns the latest read's
    /// completion.
    pub fn read_buf(
        &mut self,
        core: CoreId,
        src: u64,
        bytes: u64,
        vectorized: bool,
        now: SimTime,
    ) -> SimTime {
        let ov = if vectorized {
            self.cfg.timing.ov_c2c_read_vec
        } else {
            self.cfg.timing.ov_c2c_read_scalar
        } as usize;
        self.buf_lines(core, src, None, bytes, ov, now)
    }

    /// The loop of [`Machine::copy_buf`] and [`Machine::read_buf`]: line
    /// `i`'s read issues `i` issue gaps after `now`, once one of the `ov`
    /// MLP slots is free. With a `dst`, each read is followed by the write
    /// of its line there, and the last write's completion is returned;
    /// without one, the latest read's.
    fn buf_lines(
        &mut self,
        core: CoreId,
        src: u64,
        dst: Option<u64>,
        bytes: u64,
        ov: usize,
        now: SimTime,
    ) -> SimTime {
        let mut ring = std::mem::take(&mut self.c2c_ring);
        ring.fill(ov, now);
        let mut issue = now;
        let mut done = now;
        for i in 0..knl_arch::lines_for(bytes) {
            let gated = ring.gate(issue);
            let r = self.access(core, src + i * 64, AccessKind::Read, gated);
            ring.record(r.complete);
            done = match dst {
                // The local store is buffered; it costs a write access that
                // is overlapped with subsequent reads, so only its ownership
                // fetch (first touch) shows up via the cache state.
                Some(dst) => {
                    self.access(core, dst + i * 64, AccessKind::Write, r.complete)
                        .complete
                }
                None => done.max(r.complete),
            };
            issue += self.cfg.timing.issue_gap_ps;
        }
        self.c2c_ring = ring;
        done
    }

    /// Stream up to `max_lines` lines of a memory kernel starting at line
    /// offset `start_line` within the kernel's buffers, stopping early when
    /// the issue frontier passes `deadline` (the runner's time slice, which
    /// bounds how far out of order device arrivals can be). Coherence
    /// bookkeeping is bypassed (fresh lines, no reuse); device queueing and
    /// the memory-side cache are fully modelled.
    ///
    /// `start_line + max_lines` is the kernel's end: a line's home and
    /// backing come from its operand's run in `state`, resolved 16 lines
    /// at a time ([`knl_arch::AddressMap::resolve_run`],
    /// [`knl_arch::AddressMap::backing_run`]) and never past that end, so
    /// no address-map call sits on a line's timing chain.
    ///
    /// `core_threads` HyperThreads share the core: MLP caps and issue
    /// bandwidth are divided among co-resident threads (they share MSHRs
    /// and load ports).
    ///
    /// Returns `(time, lines_done)`: when the kernel finished (`lines_done
    /// == max_lines`), `time` is the drain time of all outstanding requests;
    /// otherwise it is the issue frontier where the slice stopped.
    #[allow(clippy::too_many_arguments)]
    pub fn stream_chunk(
        &mut self,
        core: CoreId,
        kind: crate::ops::StreamKind,
        a: u64,
        b: u64,
        c: u64,
        start_line: u64,
        max_lines: u64,
        vectorized: bool,
        state: &mut StreamState,
        now: SimTime,
        deadline: SimTime,
        core_threads: u32,
    ) -> (SimTime, u64) {
        use crate::ops::StreamKind::*;
        let share = core_threads.max(1);
        let ov_load = ((if vectorized {
            self.cfg.timing.ov_mem_vec
        } else {
            self.cfg.timing.ov_mem_scalar
        }) / share)
            .max(1) as usize;
        let ov_nt = (self.cfg.timing.max_nt_outstanding / share).max(1) as usize;
        let issue_gap = self.cfg.timing.issue_gap_ps * share as u64;
        let tile = core.tile();
        let req = StopId::tile(tile);
        self.hub.set_tile(tile.0);
        if state.load.slots.is_empty() {
            state.load.fill(ov_load, 0);
            state.nt.fill(ov_nt, 0);
        }
        state.last_issue = state.last_issue.max(now);
        let end = start_line + max_lines;
        let mut lines_done = 0u64;
        for i in start_line..end {
            state.last_issue += issue_gap;
            let issue = state.last_issue;
            let left = end - i;
            match kind {
                Read => {
                    self.stream_load(b + i * 64, left, 0, req, issue, state);
                }
                Write => {
                    self.stream_nt(a + i * 64, left, req, issue, state);
                }
                Copy => {
                    self.stream_load(b + i * 64, left, 0, req, issue, state);
                    self.stream_nt(a + i * 64, left, req, issue, state);
                }
                Triad => {
                    self.stream_load(b + i * 64, left, 0, req, issue, state);
                    state.last_issue += issue_gap;
                    self.stream_load(c + i * 64, left, 1, req, state.last_issue, state);
                    self.stream_nt(a + i * 64, left, req, state.last_issue, state);
                }
            }
            lines_done += 1;
            if state.last_issue > deadline {
                break;
            }
        }
        if lines_done == max_lines {
            let drain = state.load.drain().max(state.nt.drain());
            (drain.max(state.last_issue), lines_done)
        } else {
            (state.last_issue, lines_done)
        }
    }

    /// Load the line at `addr`, `left` lines before the kernel's end, its
    /// route from run `operand` of `state`.
    #[inline(always)]
    fn stream_load(
        &mut self,
        addr: u64,
        left: u64,
        operand: usize,
        req: StopId,
        issue: SimTime,
        state: &mut StreamState,
    ) -> SimTime {
        let (home, backing) =
            state.loads[operand].route(addr, left, |addr, out| self.map.resolve_run(addr, out));
        let gated = state.load.gate(issue);
        // The issue frontier tracks real issue times so MLP backpressure
        // throttles the stream (and slice deadlines stay meaningful).
        state.last_issue = state.last_issue.max(gated);
        let line = addr >> LINE_SHIFT;
        let home = StopId::tile(home);
        let t_svc = self.mesh.traverse(
            req,
            home,
            gated + self.cfg.timing.l2_miss_detect_ps + self.cfg.timing.inject_ps,
        ) + self.cfg.timing.cha_lookup_ps;
        let read = self.memory_read(backing, line, home, t_svc);
        let complete = self
            .mesh
            .traverse(read.from, req, read.ready + self.cfg.timing.inject_ps)
            + self.cfg.timing.fill_ps;
        let complete = gated + self.jitter(complete - gated, line);
        if self.hub.enabled() {
            self.hub.serve(
                complete,
                line,
                'R',
                src_tag(read.served_by(backing)),
                self.mesh.hops(req, read.from),
                complete - gated,
            );
        }
        state.load.record(complete);
        complete
    }

    /// NT-store the line at `addr`, `left` lines before the kernel's end.
    #[inline(always)]
    fn stream_nt(
        &mut self,
        addr: u64,
        left: u64,
        req: StopId,
        issue: SimTime,
        state: &mut StreamState,
    ) -> SimTime {
        let backing = state
            .stores
            .route(addr, left, |addr, out| self.map.backing_run(addr, out));
        let gated = state.nt.gate(issue);
        state.last_issue = state.last_issue.max(gated);
        let line = addr >> LINE_SHIFT;
        self.counters.nt_stores += 1;
        let accept = self.memory_write(backing, line, req, gated);
        state.nt.record(accept);
        // The core moves on immediately; the gate above models WC-buffer
        // backpressure.
        gated.max(issue)
    }
}

#[cfg(test)]
mod tests {
    use super::StreamState;
    use crate::directory::LineState;
    use crate::machine::{prep_line, Machine};
    use knl_arch::{ClusterMode, CoreId, MachineConfig, MemoryMode, NumaKind, Schedule};

    fn machine(cm: ClusterMode, mm: MemoryMode) -> Machine {
        let mut m = Machine::new(MachineConfig::knl7210(cm, mm));
        m.set_jitter(0);
        m
    }

    #[test]
    fn stream_read_ddr_saturates_near_77gbps() {
        // 32 cores streaming reads concurrently (via the runner, which
        // interleaves chunks in time order): aggregate must approach the
        // 77 GB/s DDR peak.
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let lines_per_core = 4096u64;
        let progs: Vec<crate::program::Program> = (0..32usize)
            .map(|i| {
                let core = Schedule::FillTiles.core(i, 64);
                let mut p = crate::program::Program::on_core(core);
                p.push(crate::ops::Op::Stream {
                    kind: crate::ops::StreamKind::Read,
                    a: 0,
                    b: (i as u64) * (1 << 22),
                    c: 0,
                    lines: lines_per_core,
                    vectorized: true,
                });
                p
            })
            .collect();
        let r = crate::runner::run_programs(&mut m, progs);
        let bytes = 32 * lines_per_core * 64;
        let gbps = (bytes as f64 / 1e9) / (r.end_time as f64 / 1e12);
        assert!(
            (55.0..85.0).contains(&gbps),
            "aggregate DDR read {gbps} GB/s"
        );
    }

    #[test]
    fn single_thread_mem_read_near_8gbps() {
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let mut st = StreamState::default();
        let (done, n) = m.stream_chunk(
            CoreId(0),
            crate::ops::StreamKind::Read,
            0,
            0,
            0,
            0,
            8192,
            true,
            &mut st,
            0,
            u64::MAX,
            1,
        );
        assert_eq!(n, 8192);
        let gbps = (8192.0 * 64.0 / 1e9) / (done as f64 / 1e12);
        assert!(
            (5.0..11.0).contains(&gbps),
            "single-thread DDR read {gbps} GB/s"
        );
    }

    #[test]
    fn stream_chunk_respects_deadline() {
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let mut st = StreamState::default();
        let (t, n) = m.stream_chunk(
            CoreId(0),
            crate::ops::StreamKind::Read,
            0,
            0,
            0,
            0,
            1_000_000,
            true,
            &mut st,
            0,
            100_000, // 100 ns slice
            1,
        );
        assert!(n < 1_000_000, "slice must stop early, did {n} lines");
        assert!(
            (100_000..400_000).contains(&t),
            "frontier near deadline: {t}"
        );
    }

    #[test]
    fn mcdram_stream_faster_than_ddr_aggregate() {
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let mut arena = m.arena();
        let mc = arena.alloc(NumaKind::Mcdram, 64 << 20);
        let run = |m: &mut Machine, base: u64| -> f64 {
            m.reset_devices();
            m.reset_caches();
            let lines = 2048u64;
            let progs: Vec<crate::program::Program> = (0..64usize)
                .map(|i| {
                    let core = Schedule::FillTiles.core(i, 64);
                    let mut p = crate::program::Program::on_core(core);
                    p.push(crate::ops::Op::Stream {
                        kind: crate::ops::StreamKind::Read,
                        a: 0,
                        b: base + (i as u64) * lines * 64,
                        c: 0,
                        lines,
                        vectorized: true,
                    });
                    p
                })
                .collect();
            let r = crate::runner::run_programs(m, progs);
            (64.0 * 2048.0 * 64.0 / 1e9) / (r.end_time as f64 / 1e12)
        };
        let ddr = run(&mut m, 0);
        let mcd = run(&mut m, mc);
        assert!(mcd > 2.0 * ddr, "MCDRAM {mcd} must be well above DDR {ddr}");
    }

    #[test]
    fn copy_buf_remote_bandwidth_band() {
        // Table I: remote copy ≈ 7.5 GB/s single-thread.
        let mut m = machine(ClusterMode::Quadrant, MemoryMode::Flat);
        let owner = CoreId(20);
        let reader = CoreId(0);
        let bytes = 64 * 1024u64;
        let src = 1 << 20;
        let dst = 8 << 20;
        let helper = CoreId(40);
        let mut t = 0;
        for l in 0..knl_arch::lines_for(bytes) {
            t = prep_line(&mut m, owner, helper, src + l * 64, LineState::Modified, t);
        }
        let done = m.copy_buf(reader, src, dst, bytes, true, t);
        let gbps = (bytes as f64 / 1e9) / ((done - t) as f64 / 1e12);
        assert!((4.0..12.0).contains(&gbps), "remote copy {gbps} GB/s");
    }
}
