//! `knl lint`: a dependency-free, line-oriented linter enforcing this
//! repository's determinism and observability invariants over its own
//! `.rs` sources — the rules that otherwise live only in review comments:
//!
//! * `machine-new` — experiments (`crates/bench/src/experiments/`) must
//!   build machines through the observer-honouring `sweep::machine`
//!   helper, never raw `Machine::new` (a raw machine silently ignores
//!   `--check`, `--trace` and `--analyze`).
//! * `hash-collection` — all of `crates/sim` plus result/serialization
//!   paths elsewhere must not use `HashMap`/`HashSet`: their iteration
//!   order is nondeterministic, which breaks the bit-identical-output
//!   contract. Use `BTreeMap`, the hot-path `fxmap::LineMap` (which
//!   exposes no order-dependent iteration: `sorted_keys` only),
//!   `paged::PagedLines` (ascending `iter` only; the creation order of
//!   its pages reaches no caller), or `svmap::SortedVecMap`;
//!   sites where order provably never escapes carry a
//!   `// knl-lint: allow(hash-collection)` justification. `fxmap.rs`
//!   itself is exempt (it documents and model-tests against the std map
//!   it replaces). This rule originally covered only
//!   metrics/trace/serial/output paths — the gap that let `mcache.rs`
//!   ship a SipHash map on the per-access hot path.
//! * `wallclock` — `crates/sim` must not read host time
//!   (`std::time::Instant`/`SystemTime`): simulated time is integer
//!   picoseconds, and wall-clock reads make runs irreproducible.
//! * `wall-clock-in-series` — any `telemetry.rs` (the sim-time series
//!   module, wherever a crate grows one) must keep host time out of its
//!   series entirely, including `std::time::Duration`, which the
//!   `wallclock` rule tolerates: a telemetry series must be a function of
//!   simulated time alone. Host-side timers belong to
//!   `crates/bench::profile`.
//! * `float-ps` — picosecond quantities (`*_ps` bindings and fields) must
//!   not be typed `f64`: float accumulation drifts across op orderings;
//!   convert to float only at the reporting edge.
//! * `thread-outside-executor` — `crates/sim` must not touch
//!   `std::thread` / `std::sync` at all: one simulation runs on one host
//!   thread, and the only executor that spawns workers is
//!   `SweepExecutor` (`crates/benchsuite`), which runs whole independent
//!   simulations and merges their results in job order. A stray `Mutex`
//!   or `spawn` inside the simulator reintroduces scheduler
//!   nondeterminism the bit-identical-output tests cannot see locally.
//! * `wildcard-state-match` — in `crates/sim`, a `match` whose arms name a
//!   coherence state, directory request or event type (`LineState`/
//!   `GlobalState`/`Request`/`ProtocolEvent`/`ProtoEvent`) must not have
//!   a `_` arm: a wildcard silently swallows newly added protocol
//!   states/requests/events, which is exactly how the transition table, a
//!   checker or a metrics sink goes stale when a protocol grows a state
//!   (the model checker in `sim::modelcheck` only covers what the code
//!   actually names). The one sanctioned wildcard is the mutation
//!   post-hook's (`sim::mutation`), whose meaning *is* "every other
//!   (defect, request) pair stays the shipped transition". Unlike
//!   the other rules this one is block-scoped: it tracks brace depth to
//!   tie each `_ =>` arm to its enclosing `match`.
//!
//! A violation line can be suppressed with a trailing
//! `// knl-lint: allow(<rule>)` comment. Exits non-zero when any
//! unsuppressed violation is found.
//!
//! Usage: `knl lint [WORKSPACE_ROOT]` (default: the workspace containing
//! this crate).

use std::path::{Path, PathBuf};

/// One lint rule: a name, a path filter, and a line predicate.
struct LintRule {
    name: &'static str,
    message: &'static str,
    /// Does the rule apply to this (workspace-relative, `/`-separated)
    /// path at all?
    applies: fn(&str) -> bool,
    /// Does this source line violate the rule?
    matches: fn(&str) -> bool,
}

/// A reported violation.
#[derive(Debug, PartialEq, Eq)]
struct Violation {
    path: String,
    line: usize,
    rule: &'static str,
    message: &'static str,
}

// The patterns are assembled with `concat!` so this file never matches
// its own rules.
const MACHINE_NEW: &str = concat!("Machine::", "new(");
const HASH_MAP: &str = concat!("Hash", "Map");
const HASH_SET: &str = concat!("Hash", "Set");
const INSTANT: &str = concat!("time::", "Instant");
const SYSTEM_TIME: &str = concat!("time::", "SystemTime");
const TIME_DURATION: &str = concat!("time::", "Duration");
const FLOAT_PS: &str = concat!("_ps: ", "f64");
const STD_THREAD: &str = concat!("std::", "thread");
const THREAD_SPAWN: &str = concat!("thread::", "spawn(");
const THREAD_SCOPE: &str = concat!("thread::", "scope(");
const STD_SYNC: &str = concat!("std::", "sync::");

/// Coherence state/request/event types whose matches must stay exhaustive.
const STATE_TOKENS: [&str; 5] = [
    concat!("Line", "State::"),
    concat!("Req", "uest::"),
    concat!("Global", "State::"),
    concat!("Protocol", "Event::"),
    concat!("Proto", "Event::"),
];

const WILDCARD_STATE_MATCH: &str = "wildcard-state-match";
const WILDCARD_STATE_MSG: &str =
    "matches over coherence state/request/event types must list every \
     variant; a `_` arm silently swallows states a protocol grows later";

fn rules() -> Vec<LintRule> {
    vec![
        LintRule {
            name: "machine-new",
            message: "experiments must build machines via sweep::machine so \
                      --check/--trace/--analyze are honoured",
            applies: |p| p.contains("/crates/bench/src/experiments/"),
            matches: |l| l.contains(MACHINE_NEW),
        },
        LintRule {
            name: "hash-collection",
            message: "use ordered collections (BTreeMap/BTreeSet), LineMap, \
                      PagedLines or SortedVecMap for deterministic output; allow-comment \
                      sites where order provably never escapes",
            applies: |p| {
                (p.contains("crates/sim/") && !p.ends_with("/fxmap.rs"))
                    || p.ends_with("/metrics.rs")
                    || p.ends_with("/trace.rs")
                    || p.ends_with("/serial.rs")
                    || p.ends_with("/output.rs")
            },
            matches: |l| l.contains(HASH_MAP) || l.contains(HASH_SET),
        },
        LintRule {
            name: "wallclock",
            message: "crates/sim must not read host time; simulated time is \
                      integer picoseconds",
            applies: |p| p.contains("crates/sim/"),
            matches: |l| l.contains(INSTANT) || l.contains(SYSTEM_TIME),
        },
        LintRule {
            name: "wall-clock-in-series",
            message: "telemetry series are sim-time only — no host clocks \
                      or host durations; host-side timers live in \
                      crates/bench's profile module",
            applies: |p| p.ends_with("/telemetry.rs"),
            matches: |l| {
                l.contains(INSTANT) || l.contains(SYSTEM_TIME) || l.contains(TIME_DURATION)
            },
        },
        LintRule {
            name: "float-ps",
            message: "picosecond quantities must be integer (SimTime/u64); \
                      convert to float only when reporting",
            applies: |_| true,
            matches: |l| l.contains(FLOAT_PS),
        },
        LintRule {
            name: "thread-outside-executor",
            message: "crates/sim must not use std::thread / std::sync: a \
                      simulation is single-threaded, and host threading \
                      belongs to SweepExecutor, which runs whole \
                      simulations as independent jobs",
            applies: |p| p.contains("crates/sim/"),
            matches: |l| {
                l.contains(STD_THREAD)
                    || l.contains(THREAD_SPAWN)
                    || l.contains(THREAD_SCOPE)
                    || l.contains(STD_SYNC)
            },
        },
    ]
}

/// The analyzable code of one source line: the text before any `//`
/// comment, with string- and char-literal contents blanked out so brace
/// counting and token matching never trip on literal data. Lifetimes
/// (`'a`) are distinguished from char literals (`'a'`, `'\n'`).
fn code_of(line: &str) -> String {
    let b = line.as_bytes();
    let mut out = String::with_capacity(line.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                // Skip the string body (handling \" escapes).
                out.push('"');
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
                out.push('"');
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => break,
            b'\'' => {
                if i + 2 < b.len() && b[i + 1] != b'\\' && b[i + 2] == b'\'' {
                    out.push_str("' '");
                    i += 3;
                } else if i + 3 < b.len() && b[i + 1] == b'\\' && b[i + 3] == b'\'' {
                    out.push_str("' '");
                    i += 4;
                } else {
                    // A lifetime; keep the tick, it matches nothing.
                    out.push('\'');
                    i += 1;
                }
            }
            c => {
                out.push(c as char);
                i += 1;
            }
        }
    }
    out
}

/// Block scan for `wildcard-state-match`: returns the 1-based line numbers
/// of unsuppressed `_ =>` arms belonging to a `match` whose arm *patterns*
/// (the text left of `=>`) name one of [`STATE_TOKENS`]. Tracks brace
/// depth to tie arms to their `match`, and paren/bracket depth so that
/// multi-line call arguments inside an arm body are not mistaken for
/// pattern continuations.
fn wildcard_state_matches(text: &str) -> Vec<usize> {
    struct Frame {
        /// Brace depth the match's arms sit at.
        arm_depth: i32,
        /// Paren/bracket depth at the arm level.
        group_depth: i32,
        /// Did any arm pattern name a state/event type?
        is_state: bool,
        /// `_ =>` arm lines, reported if `is_state` ends up true.
        wildcards: Vec<usize>,
    }
    let mut out = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    let (mut depth, mut group) = (0i32, 0i32);
    for (i, raw) in text.lines().enumerate() {
        let code = code_of(raw);
        let (depth_at_start, group_at_start) = (depth, group);

        // Arm-level analysis against the innermost open match: a line at
        // its arm depth is a pattern up to the first `=>` (the whole line
        // when a multi-line pattern has no `=>` yet).
        if let Some(f) = frames.last_mut() {
            if depth_at_start == f.arm_depth
                && group_at_start == f.group_depth
                && !code.trim().is_empty()
            {
                let pattern = code.split("=>").next().unwrap_or("");
                if STATE_TOKENS.iter().any(|t| pattern.contains(t)) {
                    f.is_state = true;
                }
                let p = pattern.trim();
                if code.contains("=>")
                    && (p == "_" || p.starts_with("_ if "))
                    && !suppressed(raw, WILDCARD_STATE_MATCH)
                {
                    f.wildcards.push(i + 1);
                }
            }
        }

        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                '(' | '[' => group += 1,
                ')' | ']' => group -= 1,
                _ => {}
            }
        }

        // `match <scrutinee> {` opens a frame whose arms live one brace
        // deeper; `matches!(..)` is a macro, not a match block.
        let trimmed = code.trim();
        if (trimmed.starts_with("match ") || code.contains(" match "))
            && !code.contains("matches!")
            && trimmed.ends_with('{')
            && depth > depth_at_start
        {
            frames.push(Frame {
                arm_depth: depth,
                group_depth: group,
                is_state: false,
                wildcards: Vec::new(),
            });
        }
        while frames.last().is_some_and(|f| depth < f.arm_depth) {
            let f = frames.pop().expect("non-empty");
            if f.is_state {
                out.extend(&f.wildcards);
            }
        }
    }
    for f in frames {
        if f.is_state {
            out.extend(&f.wildcards);
        }
    }
    out.sort_unstable();
    out
}

/// Is `line` explicitly exempted from `rule`?
fn suppressed(line: &str, rule: &str) -> bool {
    line.split("// knl-lint: allow(")
        .skip(1)
        .any(|rest| rest.split(')').next() == Some(rule))
}

/// Lint one file's text; `rel` is its workspace-relative path.
fn lint_text(rel: &str, text: &str, rules: &[LintRule]) -> Vec<Violation> {
    let mut out = Vec::new();
    for rule in rules.iter().filter(|r| (r.applies)(rel)) {
        for (i, line) in text.lines().enumerate() {
            if (rule.matches)(line) && !suppressed(line, rule.name) {
                out.push(Violation {
                    path: rel.to_string(),
                    line: i + 1,
                    rule: rule.name,
                    message: rule.message,
                });
            }
        }
    }
    // The wildcard-state-match rule needs block structure, so it runs as
    // its own pass over the sim sources rather than as a line rule.
    if rel.contains("crates/sim/") {
        for line in wildcard_state_matches(text) {
            out.push(Violation {
                path: rel.to_string(),
                line,
                rule: WILDCARD_STATE_MATCH,
                message: WILDCARD_STATE_MSG,
            });
        }
    }
    out
}

/// Collect every `.rs` file under `root`, skipping build and VCS output.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != ".git" && name != "results" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// Lint every `.rs` file under `root`: (files scanned, violations).
fn lint_tree(root: &Path) -> (usize, Vec<Violation>) {
    let rules = rules();
    let mut violations = Vec::new();
    let files = rust_sources(root);
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        // Anchor path filters at the workspace root.
        let rel = format!("/{rel}");
        let Ok(text) = std::fs::read_to_string(file) else {
            continue;
        };
        violations.extend(lint_text(&rel, &text, &rules));
    }
    (files.len(), violations)
}

pub fn run(args: impl IntoIterator<Item = String>) {
    let root = args
        .into_iter()
        .next()
        .map_or_else(crate::provenance::workspace_root, PathBuf::from);
    let (files, violations) = lint_tree(&root);
    for v in &violations {
        println!(
            "{}:{}: [{}] {}",
            v.path.trim_start_matches('/'),
            v.line,
            v.rule,
            v.message
        );
    }
    if violations.is_empty() {
        eprintln!("knl lint: {files} files clean");
    } else {
        eprintln!("knl lint: {} violation(s)", violations.len());
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(rel: &str, text: &str) -> Vec<&'static str> {
        lint_text(rel, text, &rules())
            .into_iter()
            .map(|v| v.rule)
            .collect()
    }

    #[test]
    fn raw_machine_new_flagged_in_experiments_only() {
        let bad = format!("    let m = {}cfg);\n", MACHINE_NEW);
        assert_eq!(
            find("/crates/bench/src/experiments/fig9_triad.rs", &bad),
            ["machine-new"]
        );
        // Library and test code may construct machines directly.
        assert!(find("/crates/sim/src/machine.rs", &bad).is_empty());
        assert!(find("/tests/golden_snapshots.rs", &bad).is_empty());
    }

    #[test]
    fn hash_collections_flagged_in_serialization_paths() {
        let bad = format!("use std::collections::{};\n", HASH_MAP);
        assert_eq!(
            find("/crates/sim/src/metrics.rs", &bad),
            ["hash-collection"]
        );
        assert_eq!(
            find("/crates/bench/src/output.rs", &bad),
            ["hash-collection"]
        );
        // Fine outside crates/sim and the serialization paths.
        assert!(find("/crates/bench/src/profile.rs", &bad).is_empty());
        assert!(find("/tests/golden_snapshots.rs", &bad).is_empty());
    }

    #[test]
    fn hash_collections_flagged_across_all_of_sim() {
        // The rule that closed the mcache.rs gap: a bare std hash map
        // anywhere in crates/sim is a violation…
        let bad = format!("use std::collections::{};\n", HASH_MAP);
        for path in [
            "/crates/sim/src/mcache.rs",
            "/crates/sim/src/machine.rs",
            "/crates/sim/src/runner.rs",
            "/crates/sim/src/engine/serve.rs",
        ] {
            assert_eq!(find(path, &bad), ["hash-collection"], "{path}");
        }
        let bad_set = format!("let s: {}<u8> = Default::default();\n", HASH_SET);
        assert_eq!(
            find("/crates/sim/src/alloc.rs", &bad_set),
            ["hash-collection"]
        );
        // …unless justified with an allow comment where order never
        // escapes (the runner's internal maps)…
        let allowed = format!(
            "    flags: {}<u64, u64>, // knl-lint: allow(hash-collection)\n",
            HASH_MAP
        );
        assert!(find("/crates/sim/src/runner.rs", &allowed).is_empty());
        // …and fxmap.rs itself is exempt: it is the sanctioned
        // replacement and model-tests against the std map.
        assert!(find("/crates/sim/src/fxmap.rs", &bad).is_empty());
    }

    #[test]
    fn wallclock_flagged_in_sim_only() {
        let bad = format!("    let t0 = std::{}::now();\n", INSTANT);
        assert_eq!(find("/crates/sim/src/machine.rs", &bad), ["wallclock"]);
        assert!(find("/crates/bench/src/profile.rs", &bad).is_empty());
    }

    #[test]
    fn host_time_flagged_in_telemetry_series() {
        // `Duration` is tolerated by `wallclock` but not inside a
        // telemetry series module, wherever it lives.
        let dur = format!("    let d: std::{} = x;\n", TIME_DURATION);
        assert_eq!(
            find("/crates/sim/src/telemetry.rs", &dur),
            ["wall-clock-in-series"]
        );
        assert_eq!(
            find("/crates/bench/src/telemetry.rs", &dur),
            ["wall-clock-in-series"]
        );
        assert!(find("/crates/bench/src/profile.rs", &dur).is_empty());
        // A clock read in sim telemetry trips both host-time rules.
        let inst = format!("    let t0 = std::{}::now();\n", INSTANT);
        let mut hit = find("/crates/sim/src/telemetry.rs", &inst);
        hit.sort_unstable();
        assert_eq!(hit, ["wall-clock-in-series", "wallclock"]);
        // The allow escape works per-rule.
        let ok = format!(
            "    let d: std::{} = x; // knl-lint: allow(wall-clock-in-series)\n",
            TIME_DURATION
        );
        assert!(find("/crates/bench/src/telemetry.rs", &ok).is_empty());
    }

    #[test]
    fn float_ps_flagged_everywhere() {
        let bad = format!("    let total{} = 0.0;\n", FLOAT_PS);
        assert_eq!(find("/crates/arch/src/timing.rs", &bad), ["float-ps"]);
    }

    #[test]
    fn threading_flagged_everywhere_in_sim() {
        for bad in [
            format!("    {}::scope(|s| {{}});\n", STD_THREAD),
            format!("    let h = {}work);\n", THREAD_SPAWN),
            format!("    {}|s| {{}});\n", THREAD_SCOPE),
            format!("    use {}Mutex;\n", STD_SYNC),
        ] {
            assert_eq!(
                find("/crates/sim/src/runner.rs", &bad),
                ["thread-outside-executor"],
                "{bad}"
            );
            assert_eq!(
                find("/crates/sim/src/machine.rs", &bad),
                ["thread-outside-executor"],
                "{bad}"
            );
            // Other crates run their own worker pools freely.
            assert!(
                find("/crates/benchsuite/src/lib.rs", &bad).is_empty(),
                "{bad}"
            );
            assert!(find("/crates/bench/src/sweep.rs", &bad).is_empty(), "{bad}");
        }
        // The per-rule allow escape works here too.
        let ok = format!(
            "    use {}atomic::AtomicU64; // knl-lint: allow(thread-outside-executor)\n",
            STD_SYNC
        );
        assert!(find("/crates/sim/src/counters.rs", &ok).is_empty());
    }

    #[test]
    fn allow_comment_suppresses() {
        let ok = format!(
            "    let m = {}cfg); // knl-lint: allow(machine-new)\n",
            MACHINE_NEW
        );
        assert!(find("/crates/bench/src/experiments/fig9_triad.rs", &ok).is_empty());
        // Suppressing a different rule does not help.
        let wrong = format!(
            "    let m = {}cfg); // knl-lint: allow(wallclock)\n",
            MACHINE_NEW
        );
        assert_eq!(
            find("/crates/bench/src/experiments/fig9_triad.rs", &wrong),
            ["machine-new"]
        );
    }

    #[test]
    fn violation_carries_line_number() {
        let bad = format!("fn x() {{}}\n\nlet m = {}cfg);\n", MACHINE_NEW);
        let vs = lint_text(
            "/crates/bench/src/experiments/fig9_triad.rs",
            &bad,
            &rules(),
        );
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn wildcard_over_state_match_flagged_in_sim_only() {
        let bad = format!(
            "fn f(st: LS) -> u64 {{\n    match st {{\n        {}Modified => 1,\n        _ => 0,\n    }}\n}}\n",
            STATE_TOKENS[0]
        );
        let vs = lint_text("/crates/sim/src/engine/serve.rs", &bad, &rules());
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, "wildcard-state-match");
        assert_eq!(vs[0].line, 4, "points at the `_` arm");
        // Outside crates/sim the rule does not apply.
        assert!(find("/crates/bench/src/output.rs", &bad).is_empty());
    }

    #[test]
    fn exhaustive_and_non_state_matches_are_clean() {
        // Every variant listed: clean.
        let ok = format!(
            "match st {{\n    {tok}Modified | {tok}Owned => 1,\n    {tok}Exclusive => 2,\n    {tok}Shared | {tok}Forward | {tok}Invalid => 0,\n}}\n",
            tok = STATE_TOKENS[0]
        );
        assert!(find("/crates/sim/src/engine/serve.rs", &ok).is_empty());
        // Wildcards over non-state types (parsers, chars, ints) are fine.
        let parser = "match s {\n    \"off\" => Some(Level::Off),\n    _ => None,\n}\n";
        assert!(find("/crates/sim/src/trace.rs", parser).is_empty());
    }

    #[test]
    fn multiline_event_pattern_marks_the_match() {
        // A multi-line `ProtocolEvent::Dir {` pattern still identifies the
        // match as state-typed, so its `_` arm is flagged.
        let bad = format!(
            "match *event {{\n    {}Dir {{\n        proto,\n        ..\n    }} => x(proto),\n    _ => {{}}\n}}\n",
            STATE_TOKENS[3]
        );
        let vs = lint_text("/crates/sim/src/engine/observe.rs", &bad, &rules());
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 6);
    }

    #[test]
    fn state_tokens_in_arm_bodies_do_not_mark_the_match() {
        // The mutation catalog's shape: an exhaustive match over Mutation
        // whose *bodies* build GlobalState values. The pattern segment is
        // what classifies the match, so the `_`-free outer match is clean
        // and an inner non-state match keeps its wildcard.
        let ok = format!(
            "match mu {{\n    Mutation::A => {{\n        e.state = {}Uncached;\n        match n {{\n            0 => 1,\n            _ => 2,\n        }}\n    }}\n    Mutation::B => 3,\n}}\n",
            STATE_TOKENS[2]
        );
        assert!(find("/crates/sim/src/mutation.rs", &ok).is_empty());
        // Multi-line call arguments in a body are not pattern
        // continuations either.
        let call = format!(
            "match n {{\n    0 => f(\n        {}Uncached,\n    ),\n    _ => g(),\n}}\n",
            STATE_TOKENS[2]
        );
        assert!(find("/crates/sim/src/mutation.rs", &call).is_empty());
    }

    #[test]
    fn state_tokens_in_strings_and_matches_macro_ignored() {
        let msg = format!(
            "match n {{\n    0 => panic!(\"{}Modified is bad\"),\n    _ => {{}}\n}}\n",
            STATE_TOKENS[0]
        );
        assert!(find("/crates/sim/src/invariants.rs", &msg).is_empty());
        let mac = format!(
            "let hot = matches!(st, {}Modified | {}Owned);\n",
            STATE_TOKENS[0], STATE_TOKENS[0]
        );
        assert!(find("/crates/sim/src/invariants.rs", &mac).is_empty());
    }

    #[test]
    fn wildcard_state_match_allow_comment_suppresses() {
        let ok = format!(
            "match st {{\n    {}Modified => 1,\n    _ => 0, // knl-lint: allow(wildcard-state-match)\n}}\n",
            STATE_TOKENS[0]
        );
        assert!(find("/crates/sim/src/metrics.rs", &ok).is_empty());
        // Allowing a different rule does not help.
        let wrong = format!(
            "match st {{\n    {}Modified => 1,\n    _ => 0, // knl-lint: allow(wallclock)\n}}\n",
            STATE_TOKENS[0]
        );
        assert_eq!(
            find("/crates/sim/src/metrics.rs", &wrong),
            ["wildcard-state-match"]
        );
    }

    #[test]
    fn workspace_tree_is_clean() {
        // The repo itself must lint clean — the same walk `knl lint` does,
        // run as a test so `cargo test` guards the invariant.
        let (files, violations) = lint_tree(&crate::provenance::workspace_root());
        assert!(files > 100, "walked the wrong directory: {files} files");
        assert!(
            violations.is_empty(),
            "workspace has lint violations: {violations:?}"
        );
    }
}
