//! Static workload analysis (`--analyze`): happens-before race detection,
//! flag-line sharing, mark pairing and hardware-thread pins over the
//! [`Program`]s a [`knl_sim::Runner`] is about to execute.
//!
//! The paper's methodology assumes every workload is well-formed: the
//! contention and cache-to-cache experiments rely on flag-synchronized
//! threads with no unintended sharing. Each rule here reports a defect that
//! runs to completion unnoticed by the runtime — the coherence checker
//! passes it even with the memory oracle on, and the runner finishes:
//!
//! * **race** — conflicting line accesses of two threads with no
//!   happens-before order. The order comes from program order and the
//!   `SetFlag`/`WaitFlag` release–acquire edges (monotone-max flag
//!   semantics: a wait for `v` is ordered after the *meet* of every
//!   publisher that could have satisfied it). `CopyBuf` and `Stream` expand
//!   to line ranges. Streaming (NT-store) overlap and conflicts separated
//!   only by `WaitUntil` windows are warnings.
//! * **flag-sharing** — such a conflict on a line that also serves as a
//!   flag (warning).
//! * **duplicate-pin** — two programs on one hardware thread (the runner
//!   counts programs per core, not per hardware thread).
//! * **mark-pairing** — a `MarkStart` that re-opens an open interval or is
//!   never closed: the interval is lost silently (warning).
//!
//! What the runtime does catch has no rule: a `MarkEnd` with no start and
//! a wait no flag ever satisfies both make [`knl_sim::Runner::run`] panic,
//! the latter naming each parked thread's flag and values.
//!
//! Findings are deterministic (sorted by severity, rule, thread, op) and
//! carry thread/op indices plus line addresses. [`crate::sweep::machine`]
//! installs the analysis as the machine's run-start hook at the
//! `--analyze` level: a pure pre-pass that never changes results.

// A `_` arm swallows the op kinds the IR grows later (DESIGN.md §5d).
#![warn(clippy::wildcard_enum_match_arm)]

use knl_sim::{Op, Program, StreamKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How much of the report `--analyze` surfaces before a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalyzeLevel {
    /// No analysis; no observable cost.
    #[default]
    Off,
    /// Analyze and panic on `Error` findings; say nothing otherwise.
    Error,
    /// `Error`, plus print `Warn` findings to stderr.
    Warn,
}

impl AnalyzeLevel {
    /// All levels, weakest first.
    pub const ALL: [AnalyzeLevel; 3] = [AnalyzeLevel::Off, AnalyzeLevel::Error, AnalyzeLevel::Warn];

    /// Name as accepted by `--analyze` / `KNL_ANALYZE`.
    pub fn name(self) -> &'static str {
        match self {
            AnalyzeLevel::Off => "off",
            AnalyzeLevel::Error => "error",
            AnalyzeLevel::Warn => "warn",
        }
    }

    /// Inverse of [`name`](Self::name); `on` is an alias for `warn`.
    pub fn parse(s: &str) -> Option<AnalyzeLevel> {
        match s {
            "off" | "none" => Some(AnalyzeLevel::Off),
            "error" | "errors" => Some(AnalyzeLevel::Error),
            "warn" | "warning" | "on" => Some(AnalyzeLevel::Warn),
            _ => None,
        }
    }

    /// The weakest severity this level surfaces (`None` when off).
    fn threshold(self) -> Option<Severity> {
        match self {
            AnalyzeLevel::Off => None,
            AnalyzeLevel::Error => Some(Severity::Error),
            AnalyzeLevel::Warn => Some(Severity::Warn),
        }
    }
}

/// Severity lattice of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but possibly intended (streaming overlap, window-ordered
    /// conflicts, flag-line sharing, lost intervals).
    Warn,
    /// The workload is malformed: a provable race or a duplicate pin.
    /// [`AnalysisReport::enforce`] panics.
    Error,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn name(self) -> &'static str {
        match self {
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
    /// Unordered conflicting data ops on a line also used as a flag.
    FlagSharing,
    /// A `MarkStart` that re-opens an open interval or is never closed.
    MarkPairing,
    /// Two programs pinned to the same hardware thread.
    DuplicatePin,
}

impl Rule {
    /// Stable kebab-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Race => "race",
            Rule::FlagSharing => "flag-sharing",
            Rule::MarkPairing => "mark-pairing",
            Rule::DuplicatePin => "duplicate-pin",
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
    /// Findings in deterministic order: by severity (warnings first),
    /// rule, thread, and op indices.
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
            "analysis: {} threads, {} ops — {} error(s), {} warning(s)",
            self.num_threads,
            self.num_ops,
            self.count(Severity::Error),
            self.count(Severity::Warn)
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

/// Expand `op` into its line-footprint accesses: `(first line, lines,
/// write, streaming)`. Flag ops are the synchronization, not data.
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

/// Statically analyze `programs` as a [`knl_sim::Runner`] would execute
/// them, with `initial_flags` pre-set (the `Runner::set_initial_flag`
/// values). Pure: no machine required, nothing is simulated.
pub fn analyze(programs: &[Program], initial_flags: &[(u64, u64)]) -> AnalysisReport {
    let mut findings = Vec::new();
    duplicate_pins(programs, &mut findings);
    mark_pairing(programs, &mut findings);
    let vc = happens_before(programs, initial_flags);
    races(programs, &vc, &mut findings);

    // At most MAX_PER_RULE findings per (rule, severity), plus one note of
    // the rest.
    findings.sort_by(|a, b| order(a).cmp(&order(b)));
    let mut per_kind: BTreeMap<(Rule, Severity), usize> = BTreeMap::new();
    findings.retain(|f| {
        let seen = per_kind.entry((f.rule, f.severity)).or_insert(0);
        *seen += 1;
        *seen <= MAX_PER_RULE
    });
    for ((rule, severity), n) in per_kind {
        if n > MAX_PER_RULE {
            findings.push(Finding {
                severity,
                rule,
                threads: Vec::new(),
                ops: Vec::new(),
                line: None,
                message: format!(
                    "…and {} more {} {} finding(s)",
                    n - MAX_PER_RULE,
                    severity.name(),
                    rule.name()
                ),
            });
        }
    }
    findings.sort_by(|a, b| order(a).cmp(&order(b)));

    AnalysisReport {
        findings,
        num_threads: programs.len(),
        num_ops: programs.iter().map(|p| p.ops.len()).sum(),
    }
}

/// The report's sort key.
fn order(f: &Finding) -> (Severity, Rule, &[usize], &[usize], Option<u64>) {
    (f.severity, f.rule, &f.threads, &f.ops, f.line)
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
                // A `MarkEnd` with no start is the runner's to report: it
                // panics.
                Op::MarkEnd(k) => {
                    open.remove(&k);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runconf::RunConf;
    use knl_arch::{ClusterMode, HwThreadId, MachineConfig, MemoryMode};
    use knl_sim::Runner;

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
        assert_eq!(AnalyzeLevel::parse("info"), None);
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

    // Deadlocks have no rule: flags only grow, so a wait the analysis could
    // prove stuck is exactly a thread still parked when the run drains,
    // and the runner panics naming it. An analyzed run reports them there.

    /// Run `programs` with `initial_flags` on a machine built as
    /// `--analyze error` builds it; returns the run's panic message, or
    /// `None` if it completed.
    fn run_analyzed(programs: Vec<Program>, initial_flags: &[(u64, u64)]) -> Option<String> {
        let conf = RunConf {
            analyze: AnalyzeLevel::Error,
            ..RunConf::default()
        };
        let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
        let mut m = crate::sweep::machine(&conf, cfg);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut runner = Runner::new(&mut m, programs);
            for &(addr, val) in initial_flags {
                runner.set_initial_flag(addr, val);
            }
            runner.run();
        }))
        .err()?;
        Some(
            payload
                .downcast::<String>()
                .map_or_else(|_| String::new(), |s| *s),
        )
    }

    /// The panic message of the analyzed run of `programs`, which must
    /// deadlock.
    fn deadlock_of(programs: Vec<Program>) -> String {
        let msg = run_analyzed(programs, &[]).expect("the run must deadlock");
        assert!(msg.contains("deadlock: "), "{msg}");
        msg
    }

    #[test]
    fn never_published_wait_is_a_deadlock() {
        let msg = deadlock_of(vec![prog(0, vec![Op::WaitFlag { addr: 64, val: 1 }])]);
        assert!(
            msg.contains("deadlock: thread 0 waits for flag 0x40 to reach 1; it holds 0"),
            "{msg}"
        );
    }

    #[test]
    fn insufficient_value_is_a_deadlock() {
        let a = prog(0, vec![Op::SetFlag { addr: 64, val: 1 }]);
        let b = prog(4, vec![Op::WaitFlag { addr: 64, val: 2 }]);
        let msg = deadlock_of(vec![a, b]);
        assert!(
            msg.contains("deadlock: thread 1 waits for flag 0x40 to reach 2; it holds 1"),
            "{msg}"
        );
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
        let msg = deadlock_of(vec![a, b]);
        assert!(
            msg.contains(
                "deadlock: thread 0 waits for flag 0x80 to reach 1; it holds 0; \
                 thread 1 waits for flag 0x40 to reach 1; it holds 0"
            ),
            "{msg}"
        );
    }

    #[test]
    fn initial_flag_unblocks_liveness() {
        let p = prog(0, vec![Op::WaitFlag { addr: 64, val: 3 }]);
        assert_eq!(run_analyzed(vec![p], &[(64, 3)]), None);
    }

    #[test]
    fn mark_pairing_errors() {
        let p = prog(0, vec![Op::MarkStart(0), Op::MarkStart(0), Op::MarkEnd(0)]);
        let r = analyze(&[p], &[]);
        assert_eq!(r.count(Severity::Warn), 1, "double-open warns: {r}");
        assert_eq!(r.findings[0].rule, Rule::MarkPairing);

        let p = prog(0, vec![Op::MarkStart(3)]);
        let r = analyze(&[p], &[]);
        assert_eq!(r.count(Severity::Warn), 1, "unclosed warns: {r}");

        // An end with no start makes the runner panic; no rule repeats it.
        let p = prog(0, vec![Op::MarkEnd(0)]);
        assert!(analyze(&[p], &[]).findings.is_empty());
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
