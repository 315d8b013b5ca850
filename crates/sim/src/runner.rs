//! Event-driven execution of thread programs on the machine.
//!
//! Each event advances one thread by one op (long streaming ops are sliced
//! into chunks so resource contention between threads interleaves at fine
//! granularity). Threads synchronize through coherent flag lines:
//! `SetFlag` performs a real coherent write (invalidating pollers) and wakes
//! waiters, who then pay a real coherent re-read of the flag line — exactly
//! the cost structure of the paper's polling-based collectives.
//!
//! The event queue is keyed `(time, tid)` — a strict total order, because
//! a live unparked thread has exactly one pending event — so the order in
//! which equal-time events fire is a pure function of timestamps and
//! thread ids, never of insertion history. One simulation runs on one
//! host thread; parallelism lives one level up, where `crates/bench`
//! sweeps thousands of small independent simulations (DESIGN.md §5i).

use crate::fxmap::LineMap;
use crate::machine::{AccessKind, Machine, StreamState};
use crate::ops::Op;
use crate::program::Program;
use crate::svmap::SortedVecMap;
use crate::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated-time span of one scheduling slice of a bulk streaming op. Must
/// stay below the memory devices' reorder window so cross-thread arrival
/// disorder is bounded (see `memdev`).
const STREAM_SLICE_PS: SimTime = 400_000;

/// Result of one run: per-thread measured intervals.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// (thread, interval-id) → [(start, end)]. Key-sorted, so iteration
    /// order cannot leak scheduling order.
    intervals: SortedVecMap<(usize, usize), Vec<(SimTime, SimTime)>>,
    /// Time the last thread finished.
    pub end_time: SimTime,
    /// Number of threads that ran.
    pub num_threads: usize,
}

impl RunResult {
    /// Duration of interval `k` for `thread`, in ps.
    ///
    /// **First-occurrence contract:** when a program brackets the same mark
    /// id several times, this returns the duration of the *first* bracket
    /// only (the steady-state figure tables want is usually the max or the
    /// full list — see [`RunResult::iteration_max_ns`] and
    /// [`RunResult::occurrence_durations_ps`]). Use
    /// [`RunResult::occurrences`] to detect multi-bracket programs.
    pub fn duration_ps(&self, thread: usize, k: usize) -> Option<SimTime> {
        self.intervals
            .get(&(thread, k))
            .and_then(|v| v.first())
            .map(|&(s, e)| e - s)
    }

    /// How many times `thread` bracketed mark id `k` (0 if never).
    pub fn occurrences(&self, thread: usize, k: usize) -> usize {
        self.intervals.get(&(thread, k)).map_or(0, |v| v.len())
    }

    /// Durations of *every* occurrence of interval `k` measured by
    /// `thread`, in ps, in measurement order. A program that brackets the
    /// same mark id several times (e.g. a timing loop reusing one id)
    /// contributes one entry per bracket.
    pub fn occurrence_durations_ps(&self, thread: usize, k: usize) -> Vec<SimTime> {
        self.intervals
            .get(&(thread, k))
            .map(|v| v.iter().map(|&(s, e)| e - s).collect())
            .unwrap_or_default()
    }

    /// The paper's reporting rule: the *maximum* duration of interval `k`
    /// across all threads — and all occurrences per thread — in
    /// nanoseconds.
    pub fn iteration_max_ns(&self, k: usize) -> Option<f64> {
        self.intervals
            .iter()
            .filter(|((_, id), _)| *id == k)
            .flat_map(|(_, spans)| spans.iter().map(|&(s, e)| e - s))
            .max()
            .map(|ps| ps as f64 / 1000.0)
    }

    /// All durations of interval `k`, in nanoseconds: threads in index
    /// order, each thread's occurrences in measurement order.
    pub fn iteration_durations_ns(&self, k: usize) -> Vec<f64> {
        (0..self.num_threads)
            .flat_map(|t| self.occurrence_durations_ps(t, k))
            .map(|ps| ps as f64 / 1000.0)
            .collect()
    }
}

#[derive(Debug, Default)]
struct ThreadState {
    pc: usize,
    now: SimTime,
    /// Progress inside a sliced bulk op (lines done).
    bulk_done: u64,
    stream: StreamState,
    mark_open: SortedVecMap<usize, SimTime>,
    parked_on: Option<(u64, u64)>,
    finished: bool,
}

/// Executes a set of programs to completion on a machine.
pub struct Runner<'m> {
    machine: &'m mut Machine,
    programs: Vec<Program>,
    /// Number of programs sharing each program's core (HyperThreading).
    core_threads: Vec<u32>,
    threads: Vec<ThreadState>,
    flags: LineMap<u64>,
    waiters: LineMap<Vec<usize>>,
    /// The global event queue, keyed `(time, tid)`. The key is a strict
    /// total order — each live unparked thread has exactly one pending
    /// event (`WaitFlag` parks without re-enqueueing; `SetFlag` wakes only
    /// parked threads) — and, unlike an insertion sequence number, it
    /// makes the pop order a pure function of timestamps: equal-time
    /// events fire in ascending tid order.
    queue: BinaryHeap<Reverse<(SimTime, usize)>>,
    result: RunResult,
}

impl<'m> Runner<'m> {
    /// Prepare a run of `programs` on `machine`.
    pub fn new(machine: &'m mut Machine, programs: Vec<Program>) -> Self {
        let n = programs.len();
        let mut threads = Vec::with_capacity(n);
        threads.resize_with(n, ThreadState::default);
        let mut per_core: SortedVecMap<u16, u32> = SortedVecMap::new();
        for p in &programs {
            *per_core.entry_or_default(p.core().0) += 1;
        }
        let core_threads = programs.iter().map(|p| per_core[&p.core().0]).collect();
        Runner {
            core_threads,
            machine,
            programs,
            threads,
            flags: LineMap::new(),
            waiters: LineMap::new(),
            queue: BinaryHeap::new(),
            result: RunResult {
                num_threads: n,
                ..Default::default()
            },
        }
    }

    /// Pre-set a flag's initial value.
    pub fn set_initial_flag(&mut self, addr: u64, val: u64) {
        self.flags.insert(addr, val);
    }

    /// Run to completion.
    pub fn run(mut self) -> RunResult {
        if let Some(hook) = self.machine.run_start_hook.as_deref() {
            let initial: Vec<(u64, u64)> = self
                .flags
                .sorted_keys()
                .into_iter()
                .map(|a| (a, *self.flags.get(a).expect("key listed")))
                .collect();
            hook(&self.programs, &initial);
        }
        for tid in 0..self.programs.len() {
            self.enqueue(0, tid);
        }
        while let Some(Reverse((time, tid))) = self.queue.pop() {
            if self.threads[tid].finished {
                continue;
            }
            self.threads[tid].now = self.threads[tid].now.max(time);
            self.step(tid);
        }
        // Flags only grow, so a thread still parked here waits forever.
        let parked: Vec<String> = self
            .threads
            .iter()
            .enumerate()
            .filter_map(|(tid, t)| {
                let (addr, want) = t.parked_on?;
                let holds = self.flags.get(addr).copied().unwrap_or(0);
                Some(format!(
                    "thread {tid} waits for flag {addr:#x} to reach {want}; it holds {holds}"
                ))
            })
            .collect();
        assert!(parked.is_empty(), "deadlock: {}", parked.join("; "));
        self.result.end_time = self.threads.iter().map(|t| t.now).max().unwrap_or(0);
        self.result
    }

    fn enqueue(&mut self, time: SimTime, tid: usize) {
        self.queue.push(Reverse((time, tid)));
    }

    fn core_of(&self, tid: usize) -> knl_arch::CoreId {
        self.programs[tid].core()
    }

    /// Execute one op (or one slice) for `tid`, then re-enqueue.
    fn step(&mut self, tid: usize) {
        let pc = self.threads[tid].pc;
        if pc >= self.programs[tid].ops.len() {
            self.threads[tid].finished = true;
            return;
        }
        let op = self.programs[tid].ops[pc].clone();
        let core = self.core_of(tid);
        let now = self.threads[tid].now;
        self.machine.set_trace_thread(tid as u32);
        let mut advance = true;
        match op {
            Op::Read(addr) => {
                self.threads[tid].now = self
                    .machine
                    .access(core, addr, AccessKind::Read, now)
                    .complete;
            }
            Op::Write(addr) => {
                self.threads[tid].now = self
                    .machine
                    .access(core, addr, AccessKind::Write, now)
                    .complete;
            }
            Op::NtStore(addr) => {
                self.threads[tid].now = self
                    .machine
                    .access(core, addr, AccessKind::NtStore, now)
                    .complete;
            }
            Op::Evict(addr) => {
                self.threads[tid].now = self.machine.evict_line(core, addr, now);
            }
            Op::CopyBuf {
                src,
                dst,
                bytes,
                vectorized,
            } => {
                self.threads[tid].now = self
                    .machine
                    .copy_buf(core, src, dst, bytes, vectorized, now);
            }
            Op::Stream {
                kind,
                a,
                b,
                c,
                lines,
                vectorized,
            } => {
                let thread = &mut self.threads[tid];
                let done = thread.bulk_done;
                let (t, n) = self.machine.stream_chunk(
                    core,
                    kind,
                    a,
                    b,
                    c,
                    done,
                    lines - done,
                    vectorized,
                    &mut thread.stream,
                    now,
                    now + STREAM_SLICE_PS,
                    self.core_threads[tid],
                );
                thread.now = t;
                thread.bulk_done += n;
                advance = thread.bulk_done >= lines;
                if advance {
                    // The thread's next stream op reuses the rings' storage.
                    thread.stream.reset();
                }
            }
            Op::Compute(d) => {
                self.threads[tid].now = now + d;
            }
            Op::SetFlag { addr, val } => {
                let complete = self
                    .machine
                    .access(core, addr, AccessKind::Write, now)
                    .complete;
                self.threads[tid].now = complete;
                let v = self.flags.get_or_insert_default(addr);
                *v = (*v).max(val);
                let cur = *v;
                if let Some(ws) = self.waiters.remove(addr) {
                    let mut still = Vec::new();
                    for w in ws {
                        let (_, want) = self.threads[w].parked_on.expect("parked");
                        if cur >= want {
                            self.threads[w].parked_on = None;
                            self.threads[w].now = self.threads[w].now.max(complete);
                            self.enqueue(complete, w);
                        } else {
                            still.push(w);
                        }
                    }
                    if !still.is_empty() {
                        self.waiters.insert(addr, still);
                    }
                }
            }
            Op::WaitFlag { addr, val } => {
                if self.flags.get(addr).copied().unwrap_or(0) >= val {
                    // Satisfied: pay the re-read of the (just invalidated)
                    // flag line.
                    self.threads[tid].now = self
                        .machine
                        .access(core, addr, AccessKind::Read, now)
                        .complete;
                } else {
                    self.threads[tid].parked_on = Some((addr, val));
                    self.waiters.get_or_insert_default(addr).push(tid);
                    return; // do not advance or re-enqueue; SetFlag wakes us
                }
            }
            Op::WaitUntil(t) => {
                self.threads[tid].now = now.max(t);
            }
            Op::MarkStart(k) => {
                *self.threads[tid].mark_open.entry_or_default(k) = now;
                self.machine.trace_mark(k as u32, true, now);
            }
            Op::MarkEnd(k) => {
                let start = self.threads[tid]
                    .mark_open
                    .remove(&k)
                    .unwrap_or_else(|| panic!("thread {tid}: MarkEnd({k}) without MarkStart"));
                self.result
                    .intervals
                    .entry_or_default((tid, k))
                    .push((start, now));
                self.machine.trace_mark(k as u32, false, now);
            }
        }
        if advance {
            self.threads[tid].pc += 1;
            self.threads[tid].bulk_done = 0;
        }
        let t = self.threads[tid].now;
        self.enqueue(t, tid);
    }
}

/// Convenience: run `programs` on `machine`.
pub fn run_programs(machine: &mut Machine, programs: Vec<Program>) -> RunResult {
    Runner::new(machine, programs).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::StreamKind;
    use knl_arch::{ClusterMode, CoreId, MachineConfig, MemoryMode};

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::knl7210(
            ClusterMode::Quadrant,
            MemoryMode::Flat,
        ));
        m.set_jitter(0);
        m
    }

    fn traced_machine() -> Machine {
        use crate::engine::observe::ObserverConfig;
        use crate::trace::TraceLevel;
        let mut m = Machine::with_observer_config(
            MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat),
            ObserverConfig::default().trace(TraceLevel::Full),
        );
        m.set_jitter(0);
        m
    }

    #[test]
    fn single_thread_marks() {
        let mut m = machine();
        let mut p = Program::on_core(CoreId(0));
        p.push(Op::MarkStart(0))
            .push(Op::Read(4096))
            .push(Op::MarkEnd(0))
            .push(Op::MarkStart(1))
            .push(Op::Read(4096))
            .push(Op::MarkEnd(1));
        let r = run_programs(&mut m, vec![p]);
        let d0 = r.duration_ps(0, 0).unwrap();
        let d1 = r.duration_ps(0, 1).unwrap();
        assert!(d0 > d1, "second read hits L1: {d0} vs {d1}");
        // An L1 hit costs a few ns; pin it to a band rather than one exact
        // picosecond figure so timing-table tweaks don't break the test.
        assert!(
            (1_000..=8_000).contains(&d1),
            "L1 hit latency out of band: {d1} ps"
        );
    }

    #[test]
    fn flag_handoff_orders_threads() {
        let mut m = machine();
        let flag = 1 << 20;
        let data = 2 << 20;
        let mut producer = Program::on_core(CoreId(0));
        producer
            .push(Op::Write(data))
            .push(Op::SetFlag { addr: flag, val: 1 });
        let mut consumer = Program::on_core(CoreId(10));
        consumer
            .push(Op::MarkStart(0))
            .push(Op::WaitFlag { addr: flag, val: 1 })
            .push(Op::Read(data))
            .push(Op::MarkEnd(0));
        let r = run_programs(&mut m, vec![producer, consumer]);
        // The consumer must have waited for the producer's write+flag.
        let d = r.duration_ps(1, 0).unwrap();
        assert!(d > 100_000, "consumer waited: {d} ps");
    }

    #[test]
    fn wait_on_already_set_flag_is_cheap() {
        let mut m = machine();
        let flag = 1 << 20;
        let mut p = Program::on_core(CoreId(0));
        p.push(Op::MarkStart(0))
            .push(Op::WaitFlag { addr: flag, val: 1 })
            .push(Op::MarkEnd(0));
        let mut r = Runner::new(&mut m, vec![p]);
        r.set_initial_flag(flag, 1);
        let res = r.run();
        let d = res.duration_ps(0, 0).unwrap();
        assert!(d < 1_000_000, "pre-set flag should not block: {d}");
    }

    #[test]
    #[should_panic(expected = "deadlock: thread 1 waits for flag 0x40 to reach 2; it holds 1")]
    fn unmatched_wait_deadlocks() {
        let mut m = machine();
        let mut setter = Program::on_core(CoreId(0));
        setter.push(Op::SetFlag { addr: 64, val: 1 });
        let mut waiter = Program::on_core(CoreId(2));
        waiter.push(Op::WaitFlag { addr: 64, val: 2 });
        run_programs(&mut m, vec![setter, waiter]);
    }

    #[test]
    #[should_panic(expected = "thread 0: MarkEnd(3) without MarkStart")]
    fn mark_end_without_start_panics() {
        let mut m = machine();
        let mut p = Program::on_core(CoreId(0));
        p.push(Op::MarkEnd(3));
        run_programs(&mut m, vec![p]);
    }

    #[test]
    fn run_start_hook_sees_programs_and_sorted_flags() {
        let (seen, calls) = std::sync::mpsc::channel();
        let mut m = machine();
        m.set_run_start_hook(Some(Box::new(move |programs, flags| {
            seen.send((programs.len(), flags.to_vec())).unwrap();
        })));
        let mut p = Program::on_core(CoreId(0));
        p.push(Op::WaitFlag { addr: 64, val: 1 });
        let mut r = Runner::new(&mut m, vec![p.clone(), p]);
        r.set_initial_flag(1 << 20, 5);
        r.set_initial_flag(64, 1);
        r.run();
        let calls: Vec<_> = calls.try_iter().collect();
        assert_eq!(calls, [(2, vec![(64, 1), (1 << 20, 5)])]);
    }

    #[test]
    fn iteration_max_takes_slowest_thread() {
        let mut m = machine();
        let mut fast = Program::on_core(CoreId(0));
        fast.push(Op::MarkStart(0))
            .push(Op::Compute(1_000))
            .push(Op::MarkEnd(0));
        let mut slow = Program::on_core(CoreId(2));
        slow.push(Op::MarkStart(0))
            .push(Op::Compute(9_000))
            .push(Op::MarkEnd(0));
        let r = run_programs(&mut m, vec![fast, slow]);
        assert_eq!(r.iteration_max_ns(0), Some(9.0));
        assert_eq!(r.iteration_durations_ns(0), vec![1.0, 9.0]);
    }

    #[test]
    fn repeated_mark_id_keeps_every_occurrence() {
        let mut m = machine();
        let mut p = Program::on_core(CoreId(0));
        // Three brackets of the same mark id with growing cost: the slowest
        // is the *last* occurrence, which the old first-only accounting
        // dropped.
        for i in 1..=3u64 {
            p.push(Op::MarkStart(0))
                .push(Op::Compute(i * 2_000))
                .push(Op::MarkEnd(0));
        }
        let r = run_programs(&mut m, vec![p]);
        assert_eq!(r.occurrence_durations_ps(0, 0), vec![2_000, 4_000, 6_000]);
        assert_eq!(r.iteration_durations_ns(0), vec![2.0, 4.0, 6.0]);
        assert_eq!(r.iteration_max_ns(0), Some(6.0));
        // First-occurrence accessor keeps its documented meaning.
        assert_eq!(r.duration_ps(0, 0), Some(2_000));
        assert!(r.occurrence_durations_ps(0, 9).is_empty());
        assert_eq!(r.occurrences(0, 0), 3);
        assert_eq!(r.occurrences(0, 9), 0);
        assert_eq!(r.occurrences(5, 0), 0, "no such thread");
    }

    #[test]
    fn runner_stamps_trace_events_with_thread_and_marks() {
        use crate::trace::EventKind;
        let mut m = traced_machine();
        let mk = |core: u16| {
            let mut p = Program::on_core(CoreId(core));
            p.push(Op::MarkStart(7))
                .push(Op::Read(1 << 20))
                .push(Op::MarkEnd(7));
            p
        };
        run_programs(&mut m, vec![mk(0), mk(2)]);
        let tr = m.tracer().expect("tracer attached");
        let marks: Vec<(u32, u32, bool)> = tr
            .events()
            .iter()
            .filter_map(|e| {
                let EventKind::Mark { id, start } = e.kind else {
                    return None;
                };
                Some((e.thread, id, start))
            })
            .collect();
        // Each thread contributes one start and one end of mark 7.
        for t in 0..2u32 {
            assert!(marks.contains(&(t, 7, true)), "thread {t} start");
            assert!(marks.contains(&(t, 7, false)), "thread {t} end");
        }
        // The reads themselves carry the issuing thread's stamp.
        assert!(tr
            .events()
            .iter()
            .any(|e| { matches!(e.kind, EventKind::Serve { op: 'R', .. }) && e.thread == 1 }));
    }

    #[test]
    fn equal_time_events_fire_in_tid_order() {
        use crate::trace::EventKind;
        // Four threads tie at t = 0 and tie again at t = 1200 ps, where
        // each writes the same line. Thread i reaches 1200 ps through
        // 4 - i compute steps, so the t = 1200 events enter the queue in
        // *descending* tid order, and cores descend with tid: only the
        // (time, tid) key serves the writes as 0, 1, 2, 3.
        let line = 1 << 20;
        let run = || {
            let mut m = traced_machine();
            let progs: Vec<Program> = (0..4u64)
                .map(|i| {
                    let mut p = Program::on_core(CoreId(6 - 2 * i as u16));
                    for _ in 0..4 - i {
                        p.push(Op::Compute(1200 / (4 - i)));
                    }
                    p.push(Op::MarkStart(0))
                        .push(Op::Write(line))
                        .push(Op::MarkEnd(0));
                    p
                })
                .collect();
            let r = run_programs(&mut m, progs);
            let served: Vec<u32> = m
                .tracer()
                .expect("tracer attached")
                .events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Serve { op: 'W', .. }))
                .map(|e| e.thread)
                .collect();
            (served, r.iteration_durations_ns(0))
        };
        let (served, durations) = run();
        assert_eq!(served, [0, 1, 2, 3]);
        assert_eq!(durations.len(), 4);
        assert_eq!(run(), (served, durations), "second run differs");
    }

    #[test]
    fn stream_op_slices_and_completes() {
        let mut m = machine();
        let mut p = Program::on_core(CoreId(0));
        p.push(Op::MarkStart(0))
            .push(Op::Stream {
                kind: StreamKind::Read,
                a: 0,
                b: 0,
                c: 0,
                lines: 1000,
                vectorized: true,
            })
            .push(Op::MarkEnd(0));
        let r = run_programs(&mut m, vec![p]);
        let d = r.duration_ps(0, 0).unwrap();
        let gbps = (1000.0 * 64.0 / 1e9) / (d as f64 / 1e12);
        assert!((4.0..12.0).contains(&gbps), "stream read {gbps} GB/s");
    }

    #[test]
    fn two_streams_share_bandwidth() {
        let mut m = machine();
        let mk = |core: u16, base: u64| {
            let mut p = Program::on_core(CoreId(core));
            p.push(Op::MarkStart(0))
                .push(Op::Stream {
                    kind: StreamKind::Read,
                    a: 0,
                    b: base,
                    c: 0,
                    lines: 4096,
                    vectorized: true,
                })
                .push(Op::MarkEnd(0));
            p
        };
        // Solo run.
        let r1 = run_programs(&mut m, vec![mk(0, 0)]);
        let solo = r1.duration_ps(0, 0).unwrap();
        // 24 concurrent streams: far beyond 6 DDR channels' capacity.
        m.reset_devices();
        m.reset_caches();
        let progs: Vec<Program> = (0..24).map(|i| mk(i * 2, (i as u64) << 22)).collect();
        let r = run_programs(&mut m, progs);
        let worst = (0..24).map(|t| r.duration_ps(t, 0).unwrap()).max().unwrap();
        assert!(
            worst > solo * 3 / 2,
            "24 streams must queue at DDR: worst {worst} vs solo {solo}"
        );
    }

    #[test]
    fn waituntil_aligns_start() {
        let mut m = machine();
        let mut p = Program::on_core(CoreId(0));
        p.push(Op::WaitUntil(5_000_000))
            .push(Op::MarkStart(0))
            .push(Op::MarkEnd(0));
        let r = run_programs(&mut m, vec![p]);
        assert!(r.end_time >= 5_000_000);
    }
}
