//! Murphi-style explicit-state model checking of the coherence tables.
//!
//! The checker exhaustively enumerates every reachable configuration of a
//! small bounded system — `caches` tile caches × `lines` cache lines under
//! {read, RFO, NT store, evict} events — against one [`ProtocolKind`],
//! driving the *same* [`protocol::transition`] table the engine executes
//! (`engine/serve.rs`). Nothing is re-modeled: the checked artifact is the
//! shipped code, and an injected [`Mutation`] runs as the same closure,
//! [`Mutation::hook`], that [`inject`] installs in a [`Machine`], so it
//! corrupts both layers identically.
//!
//! Per transition the checker verifies the safety properties the runtime
//! [`knl_sim::CoherenceChecker`] enforces — structural legality
//! ([`protocol::validate`]), version-epoch monotonicity
//! ([`version_regressed`]) — plus two it can prove only by exhaustion:
//! SWMR (`swmr_violation`) over every reachable configuration, and a
//! data-value property via symbolic last-writer tracking: no read is ever
//! served from a stale source, and no holder keeps a stale copy. Holders
//! hit their own copy, so the two clauses together prove that every read
//! observes the latest write on op sequences of any length — under each
//! protocol, hence all four observe identical values: the protocol changes
//! latencies, never which value a read returns. After a violation-free
//! sweep a backward reachability pass proves quiescence: every reachable
//! state can reach a stable all-Invalid-or-clean configuration.
//!
//! States are canonicalized (version and `busy_until` zeroed, currency
//! masked to holders — the sharer set is a bitmask, canonical as stored),
//! packed into a collision-free `u64`
//! key (≤ 15 bits per line), and hashed through [`LineMap`]. The frontier
//! is a FIFO over states in discovery order with a canonical per-state
//! event order, so the sweep is deterministic and BFS yields a *shortest*
//! counterexample: a [`Vec<McOp>`] that [`replay_trace`] replays on a full
//! [`Machine`] to confirm the runtime checker fires on the same defect.
//!
//! [`kill`] is the mutation-kill gate for one catalogued mutant: the sweep
//! with the defect injected, then both replays (mutated must panic, shipped
//! must run clean). `knl mc --mutants` and `tests/modelcheck_replay.rs` are
//! its two callers.

// A `_` arm swallows the variants a protocol grows later (DESIGN.md §5d).
#![warn(clippy::wildcard_enum_match_arm)]

use crate::mutation::{inject, Mutation};
use knl_arch::{ClusterMode, CoreId, MachineConfig, MemoryMode, NumaKind, ProtocolKind, TileId};
use knl_sim::fxmap::LineMap;
use knl_sim::invariants::version_regressed;
use knl_sim::machine::TransitionHook;
use knl_sim::protocol::{self, Outcome, Request};
use knl_sim::{AccessKind, CheckLevel, DirEntry, GlobalState, LineState, Machine, ObserverConfig};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Bounds of the enumerated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Number of tile caches (2–4).
    pub caches: u16,
    /// Number of distinct cache lines (1–4).
    pub lines: u8,
    /// Abort the sweep if the reachable set exceeds this (CI budget guard).
    pub max_states: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        // The acceptance bound: ≥ 3 caches × 2 lines.
        McConfig {
            caches: 3,
            lines: 2,
            max_states: 2_000_000,
        }
    }
}

impl McConfig {
    /// Validate the bounds the packed state encoding supports.
    fn checked(&self) -> Result<(), String> {
        if !(2..=4).contains(&self.caches) {
            return Err(format!("caches must be 2..=4, got {}", self.caches));
        }
        if !(1..=4).contains(&self.lines) {
            return Err(format!("lines must be 1..=4, got {}", self.lines));
        }
        Ok(())
    }
}

/// One step of a counterexample trace — the op alphabet of the bounded
/// system, chosen to map 1:1 onto [`Machine`] entry points
/// (`access` with Read/Write/NtStore, `evict_line`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McOp {
    /// What the tile does.
    pub kind: McOpKind,
    /// Acting tile (always 0 for NT stores: the sweep is issuer-neutral).
    pub tile: u16,
    /// Which bounded line.
    pub line: u8,
}

/// Kind of a model-checker op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McOpKind {
    /// Coherent read by a non-holder (holders hit their own cache without
    /// a directory transition, exactly as the engine's L1/L2 hit paths).
    Read,
    /// Write (RFO, or silent upgrade — the directory transitions either way).
    Write,
    /// Non-temporal store sweeping the line.
    NtStore,
    /// The tile drops its copy.
    Evict,
}

impl fmt::Display for McOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let k = match self.kind {
            McOpKind::Read => 'R',
            McOpKind::Write => 'W',
            McOpKind::NtStore => 'N',
            McOpKind::Evict => 'E',
        };
        write!(f, "{k}{}@{}", self.tile, self.line)
    }
}

/// Render a trace as the compact `R0@0 W1@0 …` form used in reports.
pub fn format_trace(trace: &[McOp]) -> String {
    trace
        .iter()
        .map(|op| op.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// A property violation plus its minimal (BFS-shortest) counterexample.
#[derive(Debug, Clone)]
pub struct McViolation {
    /// Which property failed and how.
    pub property: String,
    /// Shortest op sequence from reset reproducing it.
    pub trace: Vec<McOp>,
}

impl McViolation {
    /// Short label for the property class the violation was caught by:
    /// `structural`, `swmr`, `version`, `value` or `liveness`.
    pub fn class(&self) -> &'static str {
        ["structural", "swmr", "version", "value"]
            .into_iter()
            .find(|c| self.property.starts_with(c))
            .unwrap_or("liveness")
    }
}

/// Outcome of one exhaustive sweep.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Distinct reachable states.
    pub states: usize,
    /// Transitions explored (including self-loops).
    pub transitions: u64,
    /// First violation found (BFS order), if any.
    pub violation: Option<McViolation>,
}

/// Per-line model state: the shipped [`DirEntry`] plus the symbolic value
/// layer (which copies hold the line's latest value, and whether memory
/// does). Keeping currency boolean — current vs. stale w.r.t. the last
/// writer — bounds the value dimension without losing the property: a read
/// is correct iff its source is current.
#[derive(Debug, Clone)]
struct LineModel {
    entry: DirEntry,
    /// Bitmask over tiles whose cached copy is current.
    current: u16,
    /// Memory holds the latest value.
    mem_current: bool,
}

impl LineModel {
    fn reset() -> Self {
        LineModel {
            entry: DirEntry::default(),
            current: 0,
            // Before any write the initial value lives in memory.
            mem_current: true,
        }
    }
}

#[derive(Debug, Clone)]
struct State {
    lines: Vec<LineModel>,
}

fn holders_mask(entry: &DirEntry, caches: u16) -> u16 {
    let mut m = 0u16;
    for t in 0..caches {
        if entry.state_of(TileId(t)) != LineState::Invalid {
            m |= 1 << t;
        }
    }
    m
}

/// Pack one canonical line into ≤ 15 bits: state tag (3) | aux tile id
/// (3) | sharer mask (4) | currency mask (4) | mem bit (1). The encoding
/// is injective on canonical states, so equal keys mean equal states and
/// the `u64` key (≤ 60 bits for 4 lines) never collides.
fn pack_line(lm: &LineModel, caches: u16) -> u64 {
    let (tag, aux) = match &lm.entry.state {
        GlobalState::Uncached => (0u64, 0u64),
        GlobalState::Exclusive { owner } => (1, owner.0 as u64),
        GlobalState::Modified { owner } => (2, owner.0 as u64),
        GlobalState::Shared { forward: None } => (3, 0),
        GlobalState::Shared { forward: Some(f) } => (4, f.0 as u64),
        GlobalState::Owned { owner } => (5, owner.0 as u64),
    };
    let sharers = lm.entry.sharers.bits();
    debug_assert!(aux < 8 && sharers < 16 && caches <= 4);
    tag | aux << 3 | sharers << 6 | (lm.current as u64) << 10 | (lm.mem_current as u64) << 14
}

fn state_key(s: &State, caches: u16) -> u64 {
    let mut key = 0u64;
    for lm in &s.lines {
        key = key << 15 | pack_line(lm, caches);
    }
    key
}

/// Canonicalize in place: version/busy zeroed (both unbounded and
/// property-checked per transition instead), currency masked to actual
/// holders.
fn canonicalize(s: &mut State, caches: u16) {
    for lm in &mut s.lines {
        lm.entry.version = 0;
        lm.entry.busy_until = 0;
        lm.current &= holders_mask(&lm.entry, caches);
    }
}

/// The canonical event order: by line, then Read/Write/NtStore/Evict, then
/// tile — deterministic, so BFS discovery order (and therefore every
/// counterexample) is reproducible run to run.
fn ops(s: &State, cfg: &McConfig) -> Vec<McOp> {
    let mut out = Vec::new();
    for (l, lm) in s.lines.iter().enumerate() {
        let line = l as u8;
        let op = |kind, tile| McOp { kind, tile, line };
        let holds = |&t: &u16| lm.entry.state_of(TileId(t)) != LineState::Invalid;
        // Holders read their own L1/L2 copy without a directory transition
        // (the engine's hit paths); only non-holder reads reach the home
        // directory. Every write transitions it — the engine grants silent
        // upgrades through the same `Request::Write` arm.
        let tiles = || 0..cfg.caches;
        out.extend(tiles().filter(|t| !holds(t)).map(|t| op(McOpKind::Read, t)));
        out.extend(tiles().map(|t| op(McOpKind::Write, t)));
        out.push(op(McOpKind::NtStore, 0));
        out.extend(tiles().filter(holds).map(|t| op(McOpKind::Evict, t)));
    }
    out
}

/// The directory step as the engine takes it: the shipped transition plus
/// the injected defect's hook, if any.
fn step(
    kind: ProtocolKind,
    hook: Option<&TransitionHook>,
    entry: &mut DirEntry,
    request: Request,
    t: TileId,
) -> Outcome {
    let pre = *entry;
    let mut out = protocol::transition(kind, entry, request, t);
    if let Some(hook) = hook {
        hook(kind, request, t, &pre, entry, &mut out);
    }
    out
}

/// Apply `op` to a copy of `s`, mirroring the engine's directory
/// interaction exactly, and run the per-transition safety checks. Returns
/// the canonical successor and the first property violated, if any.
fn apply(
    s: &State,
    op: McOp,
    kind: ProtocolKind,
    hook: Option<&TransitionHook>,
    cfg: &McConfig,
) -> (State, Option<String>) {
    let mut next = s.clone();
    let lm = &mut next.lines[op.line as usize];
    let t = TileId(op.tile);
    let dragon = !kind.invalidation_based();
    let mut transitioned = true;
    let mut value_err = None;

    match op.kind {
        McOpKind::Read => {
            // The engine serves a remote read from the designated supplier
            // if one exists, else from memory; the source decides what the
            // requester observes.
            let supplier = lm.entry.supplier().filter(|&sup| sup != t);
            let src_current = match supplier {
                Some(sup) => lm.current & 1 << sup.0 != 0,
                None => lm.mem_current,
            };
            let g = step(kind, hook, &mut lm.entry, Request::Read, t);
            if g.writeback {
                // A forced downgrade flushes the (pre-transition) owner's
                // data, which under every table is the supplier's copy.
                lm.mem_current = src_current;
            }
            if src_current {
                lm.current |= 1 << t.0;
            } else {
                value_err = Some(match supplier {
                    Some(sup) => format!(
                        "stale read: tile {} served line {} from cache {} holding stale data",
                        t.0, op.line, sup.0
                    ),
                    None => format!(
                        "stale read: tile {} served line {} from memory while the latest value is cached",
                        t.0, op.line
                    ),
                });
            }
            if lm.entry.state_of(t) == LineState::Invalid && value_err.is_none() {
                value_err = Some(format!(
                    "read grant left tile {} of line {} without a copy",
                    t.0, op.line
                ));
            }
        }
        McOpKind::Write => {
            step(kind, hook, &mut lm.entry, Request::Write, t);
            // The writer defines the new value; memory goes stale. Under
            // write-update every surviving holder is refreshed in place;
            // under invalidation any surviving copy is stale by definition.
            lm.current = if dragon {
                holders_mask(&lm.entry, cfg.caches)
            } else {
                1 << t.0
            };
            lm.mem_current = false;
        }
        McOpKind::NtStore => {
            // The engine sweeps the directory only when copies exist; the
            // posted store itself always lands in memory.
            if lm.entry.num_holders() > 0 {
                step(kind, hook, &mut lm.entry, Request::NtStore, t);
                lm.current = if dragon {
                    holders_mask(&lm.entry, cfg.caches)
                } else {
                    0
                };
            } else {
                transitioned = false;
            }
            lm.mem_current = true;
        }
        McOpKind::Evict => {
            let evictor_current = lm.current & 1 << t.0 != 0;
            if step(kind, hook, &mut lm.entry, Request::Evict, t).writeback {
                // The flush lands the evictor's data in memory.
                lm.mem_current = evictor_current;
            }
            lm.current &= !(1 << t.0);
        }
    }

    // Holders read their own copy without a transition, so each one must
    // hold the latest value.
    let stale = holders_mask(&lm.entry, cfg.caches) & !lm.current;
    if stale != 0 && value_err.is_none() {
        value_err = Some(format!(
            "tile {} holds a stale copy of line {}",
            stale.trailing_zeros(),
            op.line
        ));
    }

    let violation = if transitioned {
        // Same order as the runtime: the structural predicate first (the
        // checker validates every `dir_transition`), then the exhaustive-
        // only properties.
        if let Err(msg) = protocol::validate(kind, &lm.entry) {
            Some(format!("structural: {msg}"))
        } else if version_regressed(0, lm.entry.version) {
            Some(format!(
                "version regressed: 0 -> {} on line {}",
                lm.entry.version, op.line
            ))
        } else if let Some(msg) = swmr_violation(&lm.entry, cfg.caches) {
            Some(format!("swmr: {msg} on line {}", op.line))
        } else {
            value_err.map(|e| format!("value: {e}"))
        }
    } else {
        value_err.map(|e| format!("value: {e}"))
    };

    canonicalize(&mut next, cfg.caches);
    (next, violation)
}

/// Single-writer/multiple-reader over the first `tiles` tiles: at most one
/// tile may hold a writable (M/E) copy, and never alongside any other
/// holder. Returns a description of the offending pair, if any.
fn swmr_violation(entry: &DirEntry, tiles: u16) -> Option<String> {
    let mut writer = None;
    let mut holders = 0u32;
    for i in 0..tiles {
        let t = TileId(i);
        let st = entry.state_of(t);
        if st == LineState::Invalid {
            continue;
        }
        holders += 1;
        if matches!(st, LineState::Modified | LineState::Exclusive) {
            if let Some(w) = writer {
                return Some(format!("two writable copies: {w:?} and {t:?}"));
            }
            writer = Some(t);
        }
    }
    match writer {
        Some(w) if holders > 1 => Some(format!(
            "writable copy at {w:?} coexists with {} other holder(s)",
            holders - 1
        )),
        _ => None,
    }
}

/// Reconstruct the BFS-shortest trace to `sid` and append `last`.
fn trace_to(parents: &[(u32, McOp)], mut sid: u32, last: Option<McOp>) -> Vec<McOp> {
    let mut rev = Vec::new();
    if let Some(op) = last {
        rev.push(op);
    }
    while sid != 0 {
        let (p, op) = parents[sid as usize];
        rev.push(op);
        sid = p;
    }
    rev.reverse();
    rev
}

/// Exhaustively check `kind` (optionally with an injected defect) over the
/// bounded system `cfg`. Returns the sweep report — `violation` is `None`
/// on shipped tables and must be `Some` for every catalogued mutant — or
/// an error if the bounds are invalid or the state budget is exceeded.
pub fn check(
    kind: ProtocolKind,
    cfg: &McConfig,
    mutation: Option<Mutation>,
) -> Result<McReport, String> {
    cfg.checked()?;
    let root = State {
        lines: (0..cfg.lines).map(|_| LineModel::reset()).collect(),
    };
    let mut states = vec![root];
    let mut parents = vec![(
        0u32,
        McOp {
            kind: McOpKind::Read,
            tile: 0,
            line: 0,
        },
    )];
    let mut index: LineMap<u32> = LineMap::new();
    index.insert(state_key(&states[0], cfg.caches), 0);
    // Forward edges, kept for the backward quiescence pass.
    let mut edges: Vec<Vec<u32>> = vec![Vec::new()];
    let mut transitions = 0u64;
    let hook = mutation.map(Mutation::hook);

    let mut i = 0usize;
    while i < states.len() {
        let sid = i as u32;
        for op in ops(&states[i], cfg) {
            transitions += 1;
            let (next, violation) = apply(&states[i], op, kind, hook.as_deref(), cfg);
            if let Some(property) = violation {
                return Ok(McReport {
                    states: states.len(),
                    transitions,
                    violation: Some(McViolation {
                        property,
                        trace: trace_to(&parents, sid, Some(op)),
                    }),
                });
            }
            let key = state_key(&next, cfg.caches);
            let id = match index.get(key) {
                Some(&id) => id,
                None => {
                    let id = states.len() as u32;
                    states.push(next);
                    parents.push((sid, op));
                    edges.push(Vec::new());
                    index.insert(key, id);
                    if states.len() > cfg.max_states {
                        return Err(format!(
                            "state budget exceeded: > {} states for {kind} at {} caches x {} lines",
                            cfg.max_states, cfg.caches, cfg.lines
                        ));
                    }
                    id
                }
            };
            edges[i].push(id);
        }
        i += 1;
    }

    // Quiescence (shipped tables): every reachable state must reach a
    // stable all-Invalid-or-clean configuration. Backward reachability
    // from the quiescent set over the recorded edges; skipped for mutants,
    // which are judged on safety alone.
    let violation = if mutation.is_none() {
        quiescence_violation(&states, &edges, &parents)
    } else {
        None
    };

    Ok(McReport {
        states: states.len(),
        transitions,
        violation,
    })
}

fn quiescent(s: &State) -> bool {
    s.lines.iter().all(|lm| !lm.entry.dirty())
}

fn quiescence_violation(
    states: &[State],
    edges: &[Vec<u32>],
    parents: &[(u32, McOp)],
) -> Option<McViolation> {
    let n = states.len();
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (from, succs) in edges.iter().enumerate() {
        for &to in succs {
            rev[to as usize].push(from as u32);
        }
    }
    let mut can_quiesce = vec![false; n];
    let mut queue: Vec<u32> = (0..n as u32)
        .filter(|&id| quiescent(&states[id as usize]))
        .collect();
    for &id in &queue {
        can_quiesce[id as usize] = true;
    }
    while let Some(id) = queue.pop() {
        for &p in &rev[id as usize] {
            if !can_quiesce[p as usize] {
                can_quiesce[p as usize] = true;
                queue.push(p);
            }
        }
    }
    let stuck = can_quiesce.iter().position(|&q| !q)?;
    Some(McViolation {
        property: "liveness: state cannot reach any all-Invalid-or-clean configuration".into(),
        trace: trace_to(parents, stuck as u32, None),
    })
}

// ---------------------------------------------------------------------------
// Mutation-kill gate: counterexample replay on the full machine.
// ---------------------------------------------------------------------------

/// Replay a counterexample on a full [`Machine`] of protocol `kind` under
/// [`CheckLevel::FullOracle`], with `mutation` injected — the bridge that
/// proves the static and dynamic layers agree: a trace [`check`] reports
/// against a mutant must make the runtime
/// [`knl_sim::CoherenceChecker`] panic here, and must replay
/// clean with `None`.
///
/// Model tile `t` maps to core `2t` (the first core of tile `t`) of a
/// quadrant/flat KNL 7210, model line `j` to the `j`-th line of a DDR
/// arena block; ops run sequentially, spaced 1 µs apart so every access
/// starts quiescent. The checker's end-of-run reconciliation
/// (`finish_check`) runs before returning, since some defects (a skipped
/// write-back) only reconcile there.
pub fn replay_trace(kind: ProtocolKind, trace: &[McOp], mutation: Option<Mutation>) {
    let cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat).with_protocol(kind);
    let mut m =
        Machine::with_observer_config(cfg, ObserverConfig::default().check(CheckLevel::FullOracle));
    m.set_jitter(0);
    inject(&mut m, mutation);
    // One arena line per model line (`McConfig::lines` ≤ 4).
    let base = m.arena().alloc(NumaKind::Ddr, 4 * 64);
    for (i, op) in trace.iter().enumerate() {
        let addr = base + u64::from(op.line) * 64;
        let core = CoreId(op.tile * 2);
        let now = i as u64 * 1_000_000;
        let access = match op.kind {
            McOpKind::Read => AccessKind::Read,
            McOpKind::Write => AccessKind::Write,
            McOpKind::NtStore => AccessKind::NtStore,
            McOpKind::Evict => {
                m.evict_line(core, addr, now);
                continue;
            }
        };
        m.access(core, addr, access, now);
    }
    m.finish_check();
}

/// Why [`kill`] did not kill a mutant.
#[derive(Debug, Clone)]
pub enum KillFailure {
    /// The sweep refused to run (bounds or state budget).
    CheckerError(String),
    /// The sweep found no violation: the checker is blind to the defect.
    Survived { states: usize, transitions: u64 },
    /// The counterexample replayed on the mutated machine without a
    /// runtime coherence violation: no panic (`None`) or another one.
    ReplayDidNotFire {
        violation: McViolation,
        panic: Option<String>,
    },
    /// The shipped tables panicked on the same trace, so it does not
    /// isolate the defect.
    NotMutationSpecific {
        violation: McViolation,
        panic: String,
    },
}

/// The mutation-kill gate for one mutant: [`check`] `kind` over `cfg` with
/// `mutation` injected, then [`replay_trace`] the counterexample twice —
/// with the mutation it must panic with a "coherence violation", on the
/// shipped tables it must run clean. Returns the kill (minimal trace and
/// property) or why it failed.
///
/// The replays panic on purpose; silencing the process-global panic hook
/// around a batch of calls is the caller's choice.
pub fn kill(
    kind: ProtocolKind,
    cfg: &McConfig,
    mutation: Mutation,
) -> Result<McViolation, KillFailure> {
    let report = check(kind, cfg, Some(mutation)).map_err(KillFailure::CheckerError)?;
    let Some(violation) = report.violation else {
        return Err(KillFailure::Survived {
            states: report.states,
            transitions: report.transitions,
        });
    };
    match replay_panic(kind, &violation.trace, Some(mutation)) {
        Some(msg) if msg.contains("coherence violation") => {}
        panic => return Err(KillFailure::ReplayDidNotFire { violation, panic }),
    }
    if let Some(panic) = replay_panic(kind, &violation.trace, None) {
        return Err(KillFailure::NotMutationSpecific { violation, panic });
    }
    Ok(violation)
}

/// [`replay_trace`], returning the panic message if the replay panicked.
fn replay_panic(kind: ProtocolKind, trace: &[McOp], mutation: Option<Mutation>) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(|| replay_trace(kind, trace, mutation))).err()?;
    Some(
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| String::from("<non-string panic payload>")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> McConfig {
        McConfig {
            caches: 2,
            lines: 1,
            max_states: 100_000,
        }
    }

    #[test]
    fn shipped_tables_are_violation_free_at_the_quick_bound() {
        for kind in ProtocolKind::ALL {
            let r = check(kind, &quick(), None).expect("within budget");
            assert!(
                r.violation.is_none(),
                "{kind}: {:?} after {}",
                r.violation.as_ref().map(|v| &v.property),
                r.violation
                    .as_ref()
                    .map(|v| format_trace(&v.trace))
                    .unwrap_or_default()
            );
            assert!(r.states > 1, "{kind}: explored {} states", r.states);
        }
    }

    #[test]
    fn shipped_tables_are_violation_free_at_the_acceptance_bound() {
        // The acceptance bound, ≥ 3 caches × 2 lines, all four protocols; the
        // explored space is the one EXPERIMENTS.md quotes.
        for (kind, states, transitions) in [
            (ProtocolKind::Mesif, 625, 8750),
            (ProtocolKind::Mesi, 196, 2744),
            (ProtocolKind::Moesi, 529, 7406),
            (ProtocolKind::Dragon, 529, 7406),
        ] {
            let r = check(kind, &McConfig::default(), None).expect("within budget");
            assert!(r.violation.is_none(), "{kind}: {:?}", r.violation);
            assert_eq!((r.states, r.transitions), (states, transitions), "{kind}");
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        for kind in ProtocolKind::ALL {
            let a = check(kind, &quick(), None).unwrap();
            let b = check(kind, &quick(), None).unwrap();
            assert_eq!(a.states, b.states, "{kind}");
            assert_eq!(a.transitions, b.transitions, "{kind}");
        }
    }

    #[test]
    fn every_catalogued_mutant_is_killed_with_a_minimal_trace() {
        // The gate itself: each catalogued defect is found at 3 × 1 within
        // five steps, and its counterexample replays to a runtime
        // violation only with the defect injected.
        let cfg = McConfig {
            caches: 3,
            lines: 1,
            max_states: 500_000,
        };
        for kind in ProtocolKind::ALL {
            for m in Mutation::catalog(kind) {
                let v =
                    kill(kind, &cfg, m).unwrap_or_else(|f| panic!("{kind}/{}: {f:?}", m.name()));
                assert!(
                    (1..=5).contains(&v.trace.len()),
                    "{kind}/{}: counterexample not 1..=5 steps: {}",
                    m.name(),
                    format_trace(&v.trace)
                );
            }
        }
    }

    #[test]
    fn stale_sharer_mutant_dies_structurally_in_two_steps() {
        let r = check(
            ProtocolKind::Mesif,
            &quick(),
            Some(Mutation::WriteKeepsStaleSharer),
        )
        .unwrap();
        let v = r.violation.expect("killed");
        assert!(v.property.starts_with("structural:"), "{}", v.property);
        assert_eq!(v.trace.len(), 2, "{}", format_trace(&v.trace));
    }

    #[test]
    fn lost_writeback_mutants_die_on_the_value_property() {
        for kind in ProtocolKind::ALL {
            let r = check(kind, &quick(), Some(Mutation::EvictDropsWriteback)).unwrap();
            let v = r.violation.unwrap_or_else(|| panic!("{kind} survived"));
            assert!(
                v.property.starts_with("value: stale read"),
                "{kind}: {}",
                v.property
            );
        }
    }

    #[test]
    fn cross_protocol_reads_observe_identical_values() {
        // Every read under each protocol observes the latest write, so all
        // four observe identical values.
        for caches in [2, 3] {
            let cfg = McConfig {
                caches,
                lines: 1,
                max_states: 100_000,
            };
            for kind in ProtocolKind::ALL {
                let r = check(kind, &cfg, None).expect("within budget");
                assert!(
                    r.violation.is_none(),
                    "{kind} {caches}x1: {:?}",
                    r.violation
                );
            }
        }
        // The holder clause: a stale cached copy is a value violation even
        // when the op does not read it.
        let entry = DirEntry {
            state: GlobalState::Shared { forward: None },
            sharers: [TileId(0), TileId(1)].into_iter().collect(),
            ..DirEntry::default()
        };
        let s = State {
            lines: vec![LineModel {
                entry,
                current: 0b01,
                mem_current: true,
            }],
        };
        let read = McOp {
            kind: McOpKind::Read,
            tile: 2,
            line: 0,
        };
        let cfg = McConfig {
            caches: 3,
            ..quick()
        };
        let (_, v) = apply(&s, read, ProtocolKind::Mesi, None, &cfg);
        assert_eq!(
            v.as_deref(),
            Some("value: tile 1 holds a stale copy of line 0")
        );
    }
}
