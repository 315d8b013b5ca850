//! Static workload analysis: happens-before race detection, deadlock /
//! liveness checking, and footprint diagnostics over [`crate::Program`]s.
//!
//! The paper's methodology assumes every workload is well-formed: the
//! contention and cache-to-cache experiments rely on flag-synchronized
//! threads with no unintended sharing, and the collective schedules rely on
//! deadlock-free wait chains. This module checks both *before* a simulation
//! runs, complementing the dynamic [`crate::invariants`] checker: given the
//! programs a [`crate::Runner`] is about to execute, it
//!
//! * builds a **happens-before order** from program order, the
//!   `SetFlag`/`WaitFlag` release–acquire edges (monotone-max flag
//!   semantics: a wait for `v` is ordered after the *meet* of every
//!   publisher that could have satisfied it), and `WaitUntil` windows,
//! * expands every op to its **line footprint** (`CopyBuf` and `Stream`
//!   become line ranges) and reports conflicting, happens-before-unordered
//!   accesses as **data races** — flag lines touched by flag ops are
//!   intended sharing and exempt, streaming (NT-store) overlap and
//!   window-separated conflicts are downgraded to warnings,
//! * replays an **abstract scheduler** over the flag ops to prove every
//!   `WaitFlag` is eventually satisfied (monotone flags make this exact:
//!   executing any enabled op never disables another, so one maximal run
//!   decides liveness), reporting never-published flags and cyclic wait
//!   chains, plus `MarkStart`/`MarkEnd` pairing errors and duplicate
//!   hardware-thread pins, and
//! * compares per-thread and per-tile **working sets** against the L1/L2
//!   capacities as informational diagnostics.
//!
//! Findings are deterministic (sorted by severity, rule, thread, op) and
//! carry thread/op indices plus line addresses. Enforcement is wired into
//! [`crate::Runner::run`] behind [`AnalyzeLevel`] (selected via `--analyze`
//! / `KNL_ANALYZE` in the bench harness) with the same zero-cost-when-off
//! contract as `--check` and `--trace`: the analysis is a pure pre-pass and
//! never changes simulation results.

use crate::cache::TagCache;
use crate::ops::{Op, StreamKind};
use crate::program::Program;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How much static analysis [`crate::Runner::run`] performs before
/// executing, and how much of the report is surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalyzeLevel {
    /// No analysis; no observable cost.
    #[default]
    Off,
    /// Analyze and panic on `Error` findings; say nothing otherwise.
    Error,
    /// `Error`, plus print `Warn` findings to stderr.
    Warn,
    /// `Warn`, plus print `Info` diagnostics (footprint/capacity).
    Info,
}

impl AnalyzeLevel {
    /// All levels, weakest first.
    pub const ALL: [AnalyzeLevel; 4] = [
        AnalyzeLevel::Off,
        AnalyzeLevel::Error,
        AnalyzeLevel::Warn,
        AnalyzeLevel::Info,
    ];

    /// Name as accepted by `--analyze` / `KNL_ANALYZE`.
    pub fn name(self) -> &'static str {
        match self {
            AnalyzeLevel::Off => "off",
            AnalyzeLevel::Error => "error",
            AnalyzeLevel::Warn => "warn",
            AnalyzeLevel::Info => "info",
        }
    }

    /// Inverse of [`name`](Self::name); `on` is an alias for `warn`.
    pub fn parse(s: &str) -> Option<AnalyzeLevel> {
        match s {
            "off" | "none" => Some(AnalyzeLevel::Off),
            "error" | "errors" => Some(AnalyzeLevel::Error),
            "warn" | "warning" | "on" => Some(AnalyzeLevel::Warn),
            "info" | "all" => Some(AnalyzeLevel::Info),
            _ => None,
        }
    }

    /// The weakest severity this level surfaces (`None` when off).
    fn threshold(self) -> Option<Severity> {
        match self {
            AnalyzeLevel::Off => None,
            AnalyzeLevel::Error => Some(Severity::Error),
            AnalyzeLevel::Warn => Some(Severity::Warn),
            AnalyzeLevel::Info => Some(Severity::Info),
        }
    }
}

/// Severity lattice of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Diagnostic only (footprint/capacity observations).
    Info,
    /// Suspicious but possibly intended (streaming overlap, heuristically
    /// window-ordered conflicts, unclosed marks).
    Warn,
    /// The workload is malformed: a provable race, deadlock, pairing
    /// error, or duplicate pin. [`AnalysisReport::enforce`] panics.
    Error,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// Which analysis pass produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Conflicting line accesses not ordered by happens-before.
    Race,
    /// A data op touches a line also used as a synchronization flag.
    FlagSharing,
    /// A `WaitFlag` that can never be satisfied (never-published value or
    /// cyclic wait chain).
    Deadlock,
    /// `MarkStart`/`MarkEnd` pairing errors.
    MarkPairing,
    /// Two programs pinned to the same hardware thread.
    DuplicatePin,
    /// Working set vs L1/L2 capacity diagnostics.
    Capacity,
    /// A structurally malformed communication plan (produced by
    /// higher-level passes such as the collectives' rank-plan validator;
    /// the core analyzer itself never emits this).
    Plan,
}

impl Rule {
    /// Stable kebab-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Race => "race",
            Rule::FlagSharing => "flag-sharing",
            Rule::Deadlock => "deadlock",
            Rule::MarkPairing => "mark-pairing",
            Rule::DuplicatePin => "duplicate-pin",
            Rule::Capacity => "capacity",
            Rule::Plan => "plan",
        }
    }
}

/// One analysis finding, with enough indices to locate the offending ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// Which pass found it.
    pub rule: Rule,
    /// Thread indices involved, ascending.
    pub threads: Vec<usize>,
    /// Op indices, parallel to `threads` where applicable.
    pub ops: Vec<usize>,
    /// Line address (byte address of the 64 B line), when applicable.
    pub line: Option<u64>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}: {}",
            self.severity.name(),
            self.rule.name(),
            self.message
        )
    }
}

/// The machine-readable result of [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Findings in deterministic order: errors first, then by rule,
    /// thread, and op indices.
    pub findings: Vec<Finding>,
    /// Threads analyzed.
    pub num_threads: usize,
    /// Total ops analyzed.
    pub num_ops: usize,
}

impl AnalysisReport {
    /// Number of findings at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    /// True when no finding is at or above `sev`.
    pub fn clean_at(&self, sev: Severity) -> bool {
        self.findings.iter().all(|f| f.severity < sev)
    }

    /// Findings of one rule.
    pub fn by_rule(&self, rule: Rule) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.rule == rule)
    }

    /// Surface the report at `level`: print sub-error findings the level
    /// asks for to stderr, then panic with every `Error` finding if any
    /// exist. A pure observer otherwise — callers' results are unaffected.
    pub fn enforce(&self, level: AnalyzeLevel) {
        let Some(threshold) = level.threshold() else {
            return;
        };
        for f in &self.findings {
            if f.severity < Severity::Error && f.severity >= threshold {
                eprintln!("analyze: {f}");
            }
        }
        if !self.clean_at(Severity::Error) {
            let mut msg = String::from("static analysis violation:\n");
            for f in self
                .findings
                .iter()
                .filter(|f| f.severity == Severity::Error)
            {
                msg.push_str(&format!("  {f}\n"));
            }
            panic!("{msg}");
        }
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "analysis: {} threads, {} ops — {} error(s), {} warning(s), {} note(s)",
            self.num_threads,
            self.num_ops,
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info)
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// Per-rule cap on reported findings (a racy workload can produce
/// quadratically many pairs; the report stays bounded and deterministic).
const MAX_PER_RULE: usize = 64;

const LINE: u64 = 64;

fn line_of(addr: u64) -> u64 {
    addr / LINE
}

fn span_lines(addr: u64, bytes: u64) -> (u64, u64) {
    let first = addr / LINE;
    let last = (addr + bytes.max(1) - 1) / LINE;
    (first, last - first + 1)
}

/// One expanded line-range access of a data op.
#[derive(Debug, Clone, Copy)]
struct Access {
    thread: usize,
    op: usize,
    /// First line index (byte address / 64).
    start: u64,
    /// Lines spanned.
    lines: u64,
    write: bool,
    /// NT-store streaming access (bypasses coherent ownership).
    streaming: bool,
    /// Latest `WaitUntil` bound preceding this op in program order.
    win_lo: u64,
    /// Earliest `WaitUntil` bound following this op (`u64::MAX` if none).
    win_hi: u64,
}

/// Expand `op` into its line-footprint accesses. Flag ops and `Evict` are
/// handled by the callers (synchronization and capacity passes).
fn footprint(op: &Op) -> Vec<(u64, u64, bool, bool)> {
    match *op {
        Op::Read(a) => vec![(line_of(a), 1, false, false)],
        Op::Write(a) => vec![(line_of(a), 1, true, false)],
        Op::NtStore(a) => vec![(line_of(a), 1, true, true)],
        Op::CopyBuf {
            src, dst, bytes, ..
        } => {
            let (s, sn) = span_lines(src, bytes);
            let (d, dn) = span_lines(dst, bytes);
            vec![(s, sn, false, false), (d, dn, true, false)]
        }
        Op::Stream {
            kind,
            a,
            b,
            c,
            lines,
            ..
        } => {
            let n = lines.max(1);
            match kind {
                StreamKind::Read => vec![(line_of(b), n, false, false)],
                StreamKind::Write => vec![(line_of(a), n, true, true)],
                StreamKind::Copy => {
                    vec![(line_of(b), n, false, false), (line_of(a), n, true, true)]
                }
                StreamKind::Triad => vec![
                    (line_of(b), n, false, false),
                    (line_of(c), n, false, false),
                    (line_of(a), n, true, true),
                ],
            }
        }
        Op::Evict(_)
        | Op::Compute(_)
        | Op::SetFlag { .. }
        | Op::WaitFlag { .. }
        | Op::WaitUntil(_)
        | Op::MarkStart(_)
        | Op::MarkEnd(_) => Vec::new(),
    }
}

/// Statically analyze `programs` as a [`crate::Runner`] would execute them,
/// with `initial_flags` pre-set (the `Runner::set_initial_flag` values).
/// Pure: no machine required, nothing is simulated.
pub fn analyze(programs: &[Program], initial_flags: &[(u64, u64)]) -> AnalysisReport {
    let num_ops = programs.iter().map(|p| p.ops.len()).sum();
    let mut findings = Vec::new();

    duplicate_pins(programs, &mut findings);
    mark_pairing(programs, &mut findings);
    let vc = happens_before(programs, initial_flags);
    liveness(programs, initial_flags, &mut findings);
    races(programs, &vc, &mut findings);
    capacity(programs, &mut findings);

    findings.sort_by(|a, b| {
        (
            std::cmp::Reverse(b.severity),
            a.rule,
            &a.threads,
            &a.ops,
            a.line,
        )
            .cmp(&(
                std::cmp::Reverse(a.severity),
                b.rule,
                &b.threads,
                &b.ops,
                b.line,
            ))
    });
    // Bound the report: keep the first MAX_PER_RULE findings per rule.
    let mut kept: BTreeMap<(Rule, Severity), usize> = BTreeMap::new();
    let mut dropped: BTreeMap<(Rule, Severity), usize> = BTreeMap::new();
    let mut bounded = Vec::with_capacity(findings.len().min(6 * MAX_PER_RULE));
    for f in findings {
        let k = (f.rule, f.severity);
        let seen = kept.entry(k).or_insert(0);
        if *seen < MAX_PER_RULE {
            *seen += 1;
            bounded.push(f);
        } else {
            *dropped.entry(k).or_insert(0) += 1;
        }
    }
    for ((rule, severity), n) in dropped {
        bounded.push(Finding {
            severity,
            rule,
            threads: Vec::new(),
            ops: Vec::new(),
            line: None,
            message: format!(
                "…and {n} more {} {} finding(s)",
                severity.name(),
                rule.name()
            ),
        });
    }
    bounded.sort_by(|a, b| {
        (
            std::cmp::Reverse(b.severity),
            a.rule,
            &a.threads,
            &a.ops,
            a.line,
        )
            .cmp(&(
                std::cmp::Reverse(a.severity),
                b.rule,
                &b.threads,
                &b.ops,
                b.line,
            ))
    });

    AnalysisReport {
        findings: bounded,
        num_threads: programs.len(),
        num_ops,
    }
}

fn duplicate_pins(programs: &[Program], findings: &mut Vec<Finding>) {
    let mut by_hw: BTreeMap<u16, Vec<usize>> = BTreeMap::new();
    for (t, p) in programs.iter().enumerate() {
        by_hw.entry(p.hw.0).or_default().push(t);
    }
    for (hw, threads) in by_hw {
        if threads.len() > 1 {
            findings.push(Finding {
                severity: Severity::Error,
                rule: Rule::DuplicatePin,
                message: format!("threads {threads:?} are all pinned to hardware thread {hw}"),
                threads,
                ops: Vec::new(),
                line: None,
            });
        }
    }
}

#[expect(clippy::wildcard_enum_match_arm, reason = "only the mark ops pair")]
fn mark_pairing(programs: &[Program], findings: &mut Vec<Finding>) {
    for (t, p) in programs.iter().enumerate() {
        let mut open: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, op) in p.ops.iter().enumerate() {
            match *op {
                Op::MarkStart(k) => {
                    if let Some(&prev) = open.get(&k) {
                        findings.push(Finding {
                            severity: Severity::Warn,
                            rule: Rule::MarkPairing,
                            threads: vec![t],
                            ops: vec![prev, i],
                            line: None,
                            message: format!(
                                "thread {t}: MarkStart({k}) at op {i} re-opens the interval \
                                 opened at op {prev} (the first start is silently lost)"
                            ),
                        });
                    }
                    open.insert(k, i);
                }
                // The guard's `remove` also closes properly-paired marks:
                // when it returns `Some` the arm is skipped but the
                // interval is already consumed.
                Op::MarkEnd(k) if open.remove(&k).is_none() => {
                    findings.push(Finding {
                        severity: Severity::Error,
                        rule: Rule::MarkPairing,
                        threads: vec![t],
                        ops: vec![i],
                        line: None,
                        message: format!(
                            "thread {t}: MarkEnd({k}) at op {i} without a matching MarkStart \
                             (the runner panics on this)"
                        ),
                    });
                }
                _ => {}
            }
        }
        for (k, i) in open {
            findings.push(Finding {
                severity: Severity::Warn,
                rule: Rule::MarkPairing,
                threads: vec![t],
                ops: vec![i],
                line: None,
                message: format!(
                    "thread {t}: MarkStart({k}) at op {i} is never closed (interval dropped)"
                ),
            });
        }
    }
}

/// Vector clocks per op: `vc[t][i][u]` = ops of thread `u` known complete
/// once op `i` of thread `t` completes. A `WaitFlag` for `v` joins the
/// pointwise *meet* over every publisher that could have satisfied it
/// (any single `SetFlag` with value ≥ `v`, or a pre-set initial flag, may
/// unblock the wait — only what *all* of them have in common is ordered
/// before it). Iterated to fixpoint: clocks only grow and are bounded.
fn happens_before(programs: &[Program], initial_flags: &[(u64, u64)]) -> Vec<Vec<Vec<u64>>> {
    let n = programs.len();
    let mut init: BTreeMap<u64, u64> = BTreeMap::new();
    for &(addr, val) in initial_flags {
        let e = init.entry(addr).or_insert(0);
        *e = (*e).max(val);
    }
    // addr → publishers (val, thread, op).
    let mut setters: BTreeMap<u64, Vec<(u64, usize, usize)>> = BTreeMap::new();
    for (t, p) in programs.iter().enumerate() {
        for (i, op) in p.ops.iter().enumerate() {
            if let Op::SetFlag { addr, val } = *op {
                setters.entry(addr).or_default().push((val, t, i));
            }
        }
    }

    let mut vc: Vec<Vec<Vec<u64>>> = programs
        .iter()
        .map(|p| vec![vec![0u64; n]; p.ops.len()])
        .collect();
    loop {
        let mut changed = false;
        for (t, p) in programs.iter().enumerate() {
            let mut cur = vec![0u64; n];
            for (i, op) in p.ops.iter().enumerate() {
                cur[t] = i as u64 + 1;
                if let Op::WaitFlag { addr, val } = *op {
                    let satisfied_initially = init.get(&addr).copied().unwrap_or(0) >= val;
                    if !satisfied_initially {
                        let candidates: Vec<&Vec<u64>> = setters
                            .get(&addr)
                            .map(|v| {
                                v.iter()
                                    .filter(|&&(sv, _, _)| sv >= val)
                                    .map(|&(_, st, si)| &vc[st][si])
                                    .collect()
                            })
                            .unwrap_or_default();
                        if !candidates.is_empty() {
                            // meet = pointwise min over all possible publishers.
                            let mut meet = candidates[0].clone();
                            for c in &candidates[1..] {
                                for (m, &v) in meet.iter_mut().zip(c.iter()) {
                                    *m = (*m).min(v);
                                }
                            }
                            for (c, m) in cur.iter_mut().zip(meet) {
                                *c = (*c).max(m);
                            }
                        }
                    }
                }
                if vc[t][i] != cur {
                    vc[t][i].clone_from(&cur);
                    changed = true;
                }
            }
        }
        if !changed {
            return vc;
        }
    }
}

/// Abstract maximal scheduler over the flag ops. Flags are monotone-max
/// counters, so executing any enabled op never disables another: a single
/// maximal run decides liveness exactly. Threads still blocked at the end
/// are deadlocked — either waiting on a value nobody ever publishes, or on
/// a cyclic chain among the stuck threads.
#[expect(clippy::wildcard_enum_match_arm, reason = "other ops always advance")]
fn liveness(programs: &[Program], initial_flags: &[(u64, u64)], findings: &mut Vec<Finding>) {
    let n = programs.len();
    let mut flags: BTreeMap<u64, u64> = BTreeMap::new();
    for &(addr, val) in initial_flags {
        let e = flags.entry(addr).or_insert(0);
        *e = (*e).max(val);
    }
    let mut pc = vec![0usize; n];
    let mut progress = true;
    while progress {
        progress = false;
        for t in 0..n {
            while pc[t] < programs[t].ops.len() {
                match programs[t].ops[pc[t]] {
                    Op::WaitFlag { addr, val } => {
                        if flags.get(&addr).copied().unwrap_or(0) >= val {
                            pc[t] += 1;
                            progress = true;
                        } else {
                            break;
                        }
                    }
                    Op::SetFlag { addr, val } => {
                        let e = flags.entry(addr).or_insert(0);
                        *e = (*e).max(val);
                        pc[t] += 1;
                        progress = true;
                    }
                    _ => {
                        pc[t] += 1;
                        progress = true;
                    }
                }
            }
        }
    }
    let stuck: Vec<usize> = (0..n).filter(|&t| pc[t] < programs[t].ops.len()).collect();
    for &t in &stuck {
        let i = pc[t];
        let Op::WaitFlag { addr, val } = programs[t].ops[i] else {
            unreachable!("only WaitFlag blocks the abstract scheduler");
        };
        // Could anyone — stuck or not — ever publish enough?
        let publishers: Vec<usize> = programs
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                p.ops
                    .iter()
                    .any(|o| matches!(*o, Op::SetFlag { addr: a, val: v } if a == addr && v >= val))
            })
            .map(|(u, _)| u)
            .collect();
        let message = if publishers.is_empty() {
            format!(
                "thread {t}: WaitFlag(addr {addr:#x}, val {val}) at op {i} can never be \
                 satisfied — no thread publishes {val} or more to that flag"
            )
        } else {
            format!(
                "thread {t}: WaitFlag(addr {addr:#x}, val {val}) at op {i} deadlocks — \
                 publishers {publishers:?} are themselves blocked (cyclic wait chain among \
                 threads {stuck:?})"
            )
        };
        findings.push(Finding {
            severity: Severity::Error,
            rule: Rule::Deadlock,
            threads: vec![t],
            ops: vec![i],
            line: Some(addr & !(LINE - 1)),
            message,
        });
    }
}

fn races(programs: &[Program], vc: &[Vec<Vec<u64>>], findings: &mut Vec<Finding>) {
    // Lines used by flag ops are intended sharing; data ops touching them
    // are flagged separately as accidental sharing.
    let mut flag_lines: BTreeSet<u64> = BTreeSet::new();
    for p in programs {
        for op in &p.ops {
            if let Op::SetFlag { addr, .. } | Op::WaitFlag { addr, .. } = *op {
                flag_lines.insert(line_of(addr));
            }
        }
    }

    let mut accesses: Vec<Access> = Vec::new();
    for (t, p) in programs.iter().enumerate() {
        // WaitUntil window bounds around each op.
        let mut win_lo = vec![0u64; p.ops.len()];
        let mut lo = 0u64;
        for (i, op) in p.ops.iter().enumerate() {
            if let Op::WaitUntil(w) = *op {
                lo = lo.max(w);
            }
            win_lo[i] = lo;
        }
        let mut win_hi = vec![u64::MAX; p.ops.len()];
        let mut hi = u64::MAX;
        for (i, op) in p.ops.iter().enumerate().rev() {
            win_hi[i] = hi;
            if let Op::WaitUntil(w) = *op {
                hi = w;
            }
        }
        for (i, op) in p.ops.iter().enumerate() {
            for (start, lines, write, streaming) in footprint(op) {
                accesses.push(Access {
                    thread: t,
                    op: i,
                    start,
                    lines,
                    write,
                    streaming,
                    win_lo: win_lo[i],
                    win_hi: win_hi[i],
                });
            }
        }
    }

    // Interval sweep: sort by start line, keep an active set pruned by end.
    accesses.sort_by_key(|a| (a.start, a.thread, a.op));
    let mut active: Vec<Access> = Vec::new();
    for &acc in &accesses {
        active.retain(|o| o.start + o.lines > acc.start);
        for &other in active.iter() {
            conflict(vc, &flag_lines, other, acc, findings);
        }
        active.push(acc);
    }
}

fn ordered(vc: &[Vec<Vec<u64>>], a: &Access, b: &Access) -> bool {
    vc[b.thread][b.op][a.thread] > a.op as u64 || vc[a.thread][a.op][b.thread] > b.op as u64
}

fn conflict(
    vc: &[Vec<Vec<u64>>],
    flag_lines: &BTreeSet<u64>,
    a: Access,
    b: Access,
    findings: &mut Vec<Finding>,
) {
    if a.thread == b.thread || (!a.write && !b.write) || ordered(vc, &a, &b) {
        return;
    }
    let lo = a.start.max(b.start);
    let hi = (a.start + a.lines).min(b.start + b.lines);
    if lo >= hi {
        return;
    }
    let shared_flag_line = (lo..hi).any(|l| flag_lines.contains(&l));
    let (mut t1, mut t2) = (a, b);
    if (t2.thread, t2.op) < (t1.thread, t1.op) {
        std::mem::swap(&mut t1, &mut t2);
    }
    let what = |x: &Access| if x.write { "writes" } else { "reads" };
    let describe = format!(
        "thread {} (op {}) {} and thread {} (op {}) {} line{} {:#x}{} with no \
         happens-before order",
        t1.thread,
        t1.op,
        what(&t1),
        t2.thread,
        t2.op,
        what(&t2),
        if hi - lo > 1 { "s" } else { "" },
        lo * LINE,
        if hi - lo > 1 {
            format!("..{:#x}", hi * LINE)
        } else {
            String::new()
        },
    );
    let (severity, rule, note) = if shared_flag_line {
        (
            Severity::Warn,
            Rule::FlagSharing,
            " — the line doubles as a synchronization flag (accidental sharing?)",
        )
    } else if a.streaming || b.streaming {
        (
            Severity::Warn,
            Rule::Race,
            " — a non-temporal stream is involved (shared streaming buffers are \
             intended pool collisions; values are not read back)",
        )
    } else if a.win_hi <= b.win_lo || b.win_hi <= a.win_lo {
        (
            Severity::Warn,
            Rule::Race,
            " — separated by WaitUntil windows (ordered only if the earlier op finishes \
             within its window; not a happens-before guarantee)",
        )
    } else {
        (Severity::Error, Rule::Race, "")
    };
    findings.push(Finding {
        severity,
        rule,
        threads: vec![t1.thread, t2.thread],
        ops: vec![t1.op, t2.op],
        line: Some(lo * LINE),
        message: format!("{describe}{note}"),
    });
}

/// Per-tile accumulation: (threads on the tile, their merged line ranges).
type TileFootprint = (Vec<usize>, Vec<(u64, u64)>);

fn capacity(programs: &[Program], findings: &mut Vec<Finding>) {
    let l1_lines = TagCache::KNL_L1_LINES as u64;
    let l2_lines = TagCache::KNL_L2_LINES as u64;
    let mut per_tile: BTreeMap<u16, TileFootprint> = BTreeMap::new();
    for (t, p) in programs.iter().enumerate() {
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for op in &p.ops {
            for (start, lines, _, _) in footprint(op) {
                ranges.push((start, start + lines));
            }
            if let Op::Evict(a) = *op {
                ranges.push((line_of(a), line_of(a) + 1));
            }
        }
        let ws = distinct_lines(&mut ranges);
        if ws > l1_lines {
            findings.push(Finding {
                severity: Severity::Info,
                rule: Rule::Capacity,
                threads: vec![t],
                ops: Vec::new(),
                line: None,
                message: format!(
                    "thread {t} touches {ws} distinct lines (> L1's {l1_lines}): a \
                     cache-resident phase would spill to L2/memory"
                ),
            });
        }
        let tile = per_tile.entry(p.core().tile().0).or_default();
        tile.0.push(t);
        tile.1.extend(ranges);
    }
    for (tile, (threads, mut ranges)) in per_tile {
        let ws = distinct_lines(&mut ranges);
        if ws > l2_lines {
            findings.push(Finding {
                severity: Severity::Info,
                rule: Rule::Capacity,
                message: format!(
                    "tile {tile} (threads {threads:?}) touches {ws} distinct lines \
                     (> L2's {l2_lines}): the tile working set spills to memory"
                ),
                threads,
                ops: Vec::new(),
                line: None,
            });
        }
    }
}

/// Count distinct lines covered by half-open `(start, end)` ranges.
fn distinct_lines(ranges: &mut [(u64, u64)]) -> u64 {
    ranges.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in ranges.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::HwThreadId;

    fn prog(hw: u16, ops: Vec<Op>) -> Program {
        let mut p = Program::new(HwThreadId(hw));
        for op in ops {
            p.push(op);
        }
        p
    }

    #[test]
    fn level_parse_roundtrip() {
        for l in AnalyzeLevel::ALL {
            assert_eq!(AnalyzeLevel::parse(l.name()), Some(l));
        }
        assert_eq!(AnalyzeLevel::parse("on"), Some(AnalyzeLevel::Warn));
        assert_eq!(AnalyzeLevel::parse("bogus"), None);
    }

    #[test]
    fn unsynchronized_write_write_is_an_error_race() {
        let a = prog(0, vec![Op::Write(4096)]);
        let b = prog(4, vec![Op::Write(4096)]);
        let r = analyze(&[a, b], &[]);
        assert_eq!(r.count(Severity::Error), 1);
        let f = &r.findings[0];
        assert_eq!(f.rule, Rule::Race);
        assert_eq!(f.threads, vec![0, 1]);
        assert_eq!(f.line, Some(4096));
    }

    #[test]
    fn flag_handoff_orders_the_pair() {
        let flag = 1 << 20;
        let mut a = Program::new(HwThreadId(0));
        a.push(Op::Write(4096))
            .push(Op::SetFlag { addr: flag, val: 1 });
        let mut b = Program::new(HwThreadId(4));
        b.push(Op::WaitFlag { addr: flag, val: 1 })
            .push(Op::Read(4096));
        let r = analyze(&[a, b], &[]);
        assert!(r.clean_at(Severity::Warn), "{r}");
    }

    #[test]
    fn meet_over_publishers_is_conservative() {
        // Two possible publishers; only one also wrote the data line. The
        // wait may be satisfied by the *other*, so the read still races.
        let flag = 1 << 20;
        let mut a = Program::new(HwThreadId(0));
        a.push(Op::Write(4096))
            .push(Op::SetFlag { addr: flag, val: 1 });
        let mut c = Program::new(HwThreadId(8));
        c.push(Op::SetFlag { addr: flag, val: 1 });
        let mut b = Program::new(HwThreadId(4));
        b.push(Op::WaitFlag { addr: flag, val: 1 })
            .push(Op::Read(4096));
        let r = analyze(&[a, c, b], &[]);
        assert_eq!(r.count(Severity::Error), 1, "{r}");
        assert_eq!(r.findings[0].rule, Rule::Race);
    }

    #[test]
    fn transitive_ordering_through_a_chain() {
        let (f1, f2) = (1 << 20, 2 << 20);
        let mut a = Program::new(HwThreadId(0));
        a.push(Op::Write(4096))
            .push(Op::SetFlag { addr: f1, val: 1 });
        let mut b = Program::new(HwThreadId(4));
        b.push(Op::WaitFlag { addr: f1, val: 1 })
            .push(Op::SetFlag { addr: f2, val: 1 });
        let mut c = Program::new(HwThreadId(8));
        c.push(Op::WaitFlag { addr: f2, val: 1 })
            .push(Op::Write(4096));
        let r = analyze(&[a, b, c], &[]);
        assert!(r.clean_at(Severity::Warn), "{r}");
    }

    #[test]
    fn initial_flag_breaks_the_edge() {
        // The wait can complete immediately via the pre-set flag, so the
        // publisher's write is NOT ordered before the read.
        let flag = 1 << 20;
        let mut a = Program::new(HwThreadId(0));
        a.push(Op::Write(4096))
            .push(Op::SetFlag { addr: flag, val: 1 });
        let mut b = Program::new(HwThreadId(4));
        b.push(Op::WaitFlag { addr: flag, val: 1 })
            .push(Op::Read(4096));
        let r = analyze(&[a.clone(), b.clone()], &[(flag, 1)]);
        assert_eq!(r.count(Severity::Error), 1, "{r}");
        let r = analyze(&[a, b], &[]);
        assert!(r.clean_at(Severity::Warn));
    }

    #[test]
    fn never_published_wait_is_a_deadlock() {
        let p = prog(0, vec![Op::WaitFlag { addr: 64, val: 1 }]);
        let r = analyze(&[p], &[]);
        assert_eq!(r.count(Severity::Error), 1);
        let f = &r.findings[0];
        assert_eq!(f.rule, Rule::Deadlock);
        assert!(f.message.contains("no thread publishes"), "{}", f.message);
    }

    #[test]
    fn insufficient_value_is_a_deadlock() {
        let mut a = Program::new(HwThreadId(0));
        a.push(Op::SetFlag { addr: 64, val: 1 });
        let b = prog(4, vec![Op::WaitFlag { addr: 64, val: 2 }]);
        let r = analyze(&[a, b], &[]);
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.findings[0].rule, Rule::Deadlock);
    }

    #[test]
    fn cyclic_wait_chain_is_a_deadlock() {
        let (f1, f2) = (64u64, 128u64);
        let mut a = Program::new(HwThreadId(0));
        a.push(Op::WaitFlag { addr: f2, val: 1 })
            .push(Op::SetFlag { addr: f1, val: 1 });
        let mut b = Program::new(HwThreadId(4));
        b.push(Op::WaitFlag { addr: f1, val: 1 })
            .push(Op::SetFlag { addr: f2, val: 1 });
        let r = analyze(&[a, b], &[]);
        assert_eq!(r.count(Severity::Error), 2, "{r}");
        for f in &r.findings {
            assert_eq!(f.rule, Rule::Deadlock);
            assert!(f.message.contains("cyclic wait chain"), "{}", f.message);
        }
    }

    #[test]
    fn initial_flag_unblocks_liveness() {
        let p = prog(0, vec![Op::WaitFlag { addr: 64, val: 3 }]);
        let r = analyze(&[p], &[(64, 3)]);
        assert!(r.clean_at(Severity::Warn), "{r}");
    }

    #[test]
    fn mark_pairing_errors() {
        let p = prog(0, vec![Op::MarkEnd(0)]);
        let r = analyze(&[p], &[]);
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.findings[0].rule, Rule::MarkPairing);

        let p = prog(0, vec![Op::MarkStart(0), Op::MarkStart(0), Op::MarkEnd(0)]);
        let r = analyze(&[p], &[]);
        assert_eq!(r.count(Severity::Warn), 1, "double-open warns: {r}");

        let p = prog(0, vec![Op::MarkStart(3)]);
        let r = analyze(&[p], &[]);
        assert_eq!(r.count(Severity::Warn), 1, "unclosed warns: {r}");
    }

    #[test]
    fn duplicate_pin_is_an_error() {
        let a = prog(0, vec![Op::Compute(10)]);
        let b = prog(0, vec![Op::Compute(10)]);
        let r = analyze(&[a, b], &[]);
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.findings[0].rule, Rule::DuplicatePin);
    }

    #[test]
    fn stream_overlap_is_a_warning_not_an_error() {
        let mk = |hw: u16| {
            prog(
                hw,
                vec![Op::Stream {
                    kind: StreamKind::Write,
                    a: 1 << 20,
                    b: 0,
                    c: 0,
                    lines: 16,
                    vectorized: true,
                }],
            )
        };
        let r = analyze(&[mk(0), mk(4)], &[]);
        assert!(r.clean_at(Severity::Error), "{r}");
        assert_eq!(r.count(Severity::Warn), 1);
        assert_eq!(r.findings[0].rule, Rule::Race);
    }

    #[test]
    fn read_vs_stream_overlap_is_a_warning_not_an_error() {
        // membw's random-pool methodology: a coherent load sweep racing
        // another thread's non-temporal store over the same pool buffer is
        // an intended collision (values are never read back), so it must
        // stay below Error — the suite runs under `--analyze error`.
        let reader = prog(
            0,
            vec![Op::Stream {
                kind: StreamKind::Read,
                a: 0,
                b: 1 << 20,
                c: 0,
                lines: 16,
                vectorized: true,
            }],
        );
        let writer = prog(
            4,
            vec![Op::Stream {
                kind: StreamKind::Write,
                a: 1 << 20,
                b: 0,
                c: 0,
                lines: 16,
                vectorized: true,
            }],
        );
        let r = analyze(&[reader, writer], &[]);
        assert!(r.clean_at(Severity::Error), "{r}");
        assert_eq!(r.count(Severity::Warn), 1);
        assert_eq!(r.findings[0].rule, Rule::Race);
    }

    #[test]
    fn window_separated_conflict_downgrades_to_warn() {
        let mut a = Program::new(HwThreadId(0));
        a.push(Op::WaitUntil(1_000_000))
            .push(Op::Write(4096))
            .push(Op::WaitUntil(2_000_000));
        let mut b = Program::new(HwThreadId(4));
        b.push(Op::WaitUntil(2_000_000)).push(Op::Write(4096));
        let r = analyze(&[a, b], &[]);
        assert!(r.clean_at(Severity::Error), "{r}");
        assert_eq!(r.count(Severity::Warn), 1);
    }

    #[test]
    fn data_op_on_flag_line_warns_accidental_sharing() {
        let flag = 1 << 20;
        let mut a = Program::new(HwThreadId(0));
        a.push(Op::SetFlag { addr: flag, val: 1 });
        let mut b = Program::new(HwThreadId(4));
        b.push(Op::Write(flag));
        let mut c = Program::new(HwThreadId(8));
        c.push(Op::NtStore(flag));
        let r = analyze(&[a, b, c], &[]);
        assert!(r.clean_at(Severity::Error), "{r}");
        assert!(r.by_rule(Rule::FlagSharing).count() >= 1, "{r}");
    }

    #[test]
    fn footprint_expansion_catches_buffer_overlap() {
        // CopyBuf destination overlaps another thread's read stream.
        let mut a = Program::new(HwThreadId(0));
        a.push(Op::CopyBuf {
            src: 0,
            dst: 1 << 20,
            bytes: 64 * 64,
            vectorized: true,
        });
        let mut b = Program::new(HwThreadId(4));
        b.push(Op::Stream {
            kind: StreamKind::Read,
            a: 0,
            b: (1 << 20) + 32 * 64,
            c: 0,
            lines: 64,
            vectorized: true,
        });
        let r = analyze(&[a, b], &[]);
        assert_eq!(r.count(Severity::Error), 1, "{r}");
        let f = &r.findings[0];
        assert_eq!(f.line, Some((1u64 << 20) + 32 * 64));
    }

    #[test]
    fn capacity_diagnostics_are_info_only() {
        let p = prog(
            0,
            vec![Op::Stream {
                kind: StreamKind::Read,
                a: 0,
                b: 1 << 22,
                c: 0,
                lines: 4096,
                vectorized: true,
            }],
        );
        let r = analyze(&[p], &[]);
        assert!(r.clean_at(Severity::Warn), "{r}");
        assert_eq!(r.count(Severity::Info), 1);
        assert_eq!(r.findings[0].rule, Rule::Capacity);
    }

    #[test]
    fn report_is_bounded_and_deterministic() {
        // 100 racing single-line writers per line → far over MAX_PER_RULE.
        let progs: Vec<Program> = (0..40)
            .map(|t| {
                prog(
                    (t * 4) as u16,
                    (0..6).map(|k| Op::Write(4096 + k * 64)).collect(),
                )
            })
            .collect();
        let r1 = analyze(&progs, &[]);
        let r2 = analyze(&progs, &[]);
        assert_eq!(r1.findings, r2.findings);
        assert!(r1.count(Severity::Error) <= MAX_PER_RULE + 1);
        assert!(
            r1.findings
                .iter()
                .any(|f| f.message.contains("more error race")),
            "truncation note present: {}",
            r1.findings.last().unwrap()
        );
    }

    #[test]
    fn distinct_lines_merges_overlaps() {
        let mut r = vec![(0, 4), (2, 6), (10, 12)];
        assert_eq!(distinct_lines(&mut r), 8);
        let mut r = vec![];
        assert_eq!(distinct_lines(&mut r), 0);
    }

    #[test]
    #[should_panic(expected = "static analysis violation")]
    fn enforce_panics_on_errors() {
        let a = prog(0, vec![Op::Write(4096)]);
        let b = prog(4, vec![Op::Write(4096)]);
        analyze(&[a, b], &[]).enforce(AnalyzeLevel::Error);
    }

    #[test]
    fn enforce_off_ignores_everything() {
        let a = prog(0, vec![Op::Write(4096)]);
        let b = prog(4, vec![Op::Write(4096)]);
        analyze(&[a, b], &[]).enforce(AnalyzeLevel::Off);
    }
}
