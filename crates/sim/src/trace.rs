//! Structured protocol-event tracing: the paper's *attribution* (which
//! supplier state, how many hops, which device queue) as data.
//!
//! The [`Tracer`] folds each [`crate::ProtocolEvent`] the engine emits
//! straight into [`crate::metrics::Metrics`], one `match` per event, binned
//! by the tile in the hub's event context. At [`TraceLevel::Full`] it also
//! translates the event into a [`TraceEvent`] (sim time, thread, tile, line,
//! [`EventKind`]) for the event log, capped at [`EVENT_CAP`] events
//! (overflow is counted). [`TraceLevel::Off`] means no tracer at all: the
//! hub stays on its event-free fast path. Like every observer the tracer
//! is pure; results are bit-identical at every level.
//!
//! # Serialized format
//!
//! A trace file is line-oriented ASCII. `#` starts a comment or a section
//! marker (`# job <i>` separates per-job sections merged in canonical job
//! order by the sweep drivers). Event lines start with `E`:
//!
//! ```text
//! E <time_ps> <thread> <tile> <line_hex> <kind> [kind fields...]
//! ```
//!
//! and metric lines (see [`crate::metrics`]) start with `H`/`T`/`D`/`B`/
//! `U`/`X`/`L`/`C`/`Z`. `knl trace` (crates/bench) parses both: metric
//! lines feed the report, event lines feed the Chrome `trace_event` export.

use crate::engine::observe::{gstate_tag, EventContext, ProtocolEvent};
use crate::metrics::{Metrics, MetricsCells, BIN_PS};
use crate::svmap::OpenBin;
use crate::SimTime;
use std::borrow::Cow;
use std::str::{FromStr, SplitAsciiWhitespace};

/// Thread stamp used before any thread context is set (machine-internal
/// activity such as background write-backs).
pub const NO_THREAD: u32 = u32::MAX;

/// Forwarder stamp meaning "no forwarder survives".
pub const NO_TILE: u16 = u16::MAX;

/// Cap on the retained per-event log at [`TraceLevel::Full`]. Aggregated
/// metrics keep counting past the cap; only the raw event log stops
/// growing (the overflow count is serialized with the trace).
pub const EVENT_CAP: usize = 1 << 20;

/// How much tracing the machine performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// No tracing; no observable cost.
    #[default]
    Off,
    /// Aggregate metrics only (histograms, per-tile/per-device stats).
    Summary,
    /// `Summary` plus the per-event log (Chrome trace export).
    Full,
}

impl TraceLevel {
    /// All levels, weakest first.
    pub const ALL: [TraceLevel; 3] = [TraceLevel::Off, TraceLevel::Summary, TraceLevel::Full];

    /// Name as accepted by `--trace-level` / `KNL_TRACE`.
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Summary => "summary",
            TraceLevel::Full => "full",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" | "none" => Some(TraceLevel::Off),
            "summary" | "metrics" => Some(TraceLevel::Summary),
            "full" | "events" => Some(TraceLevel::Full),
            _ => None,
        }
    }
}

/// What happened (the payload of one [`TraceEvent`]).
///
/// Source tags (`src`) classify where a request was served from:
/// `L` = own L1, `T` = own tile L2, `M`/`E`/`S`/`F` = remote cache in that
/// MESIF state, `D` = DDR, `C` = MCDRAM (flat/background), `H` =
/// memory-side cache hit. Directory tags: `U`ncached, `E`xclusive,
/// `M`odified, `S`hared. Hop legs: `q` request→home, `d` home→data
/// source, `r` reply→requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A request left the tile for the home CHA (`R`ead, `W`rite/RFO,
    /// `N`T-store).
    Issue {
        /// Operation tag: `R`, `W`, or `N`.
        op: char,
    },
    /// A request completed: where it was served from, the Manhattan hop
    /// distance to the data source, and the end-to-end latency.
    Serve {
        /// Operation tag: `R` or `W`.
        op: char,
        /// Source tag (see enum docs).
        src: char,
        /// Manhattan hops between requester and data source.
        hops: u32,
        /// End-to-end latency of the access.
        latency_ps: SimTime,
    },
    /// A directory entry transitioned global state.
    Dir {
        /// State tag before the transition.
        from: char,
        /// State tag after.
        to: char,
        /// Forwarder/owner tile after the transition ([`NO_TILE`] = none).
        forwarder: u16,
        /// Holder count after the transition.
        sharers: u16,
    },
    /// One mesh traversal leg.
    Hop {
        /// Leg tag: `q`, `d`, or `r` (see enum docs).
        leg: char,
        /// Manhattan hops crossed.
        hops: u32,
    },
    /// A line entered a memory device queue.
    DevEnter {
        /// Device index (0–5 DDR channels, 6+ EDCs).
        dev: u8,
        /// Write (vs read) direction.
        write: bool,
        /// Estimated lines queued ahead at arrival.
        depth: u32,
    },
    /// The device finished (read) or accepted (write) the line.
    DevLeave {
        /// Device index.
        dev: u8,
    },
    /// Memory-side cache lookup (cache/hybrid modes).
    Mcache {
        /// EDC holding the cache slice.
        edc: u8,
        /// Hit or miss.
        hit: bool,
    },
    /// Invalidation messages sent to `n` holders.
    Inv {
        /// Holders invalidated.
        n: u32,
    },
    /// Update messages refreshing `n` holders in place (update-based
    /// protocols such as Dragon).
    Update {
        /// Holders updated.
        n: u32,
    },
    /// A dirty line was written back.
    Writeback,
    /// A measured interval boundary (runner `MarkStart`/`MarkEnd`).
    Mark {
        /// Interval id.
        id: u32,
        /// Start (vs end) of the interval.
        start: bool,
    },
}

/// One traced protocol event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sim time the event took effect.
    pub time: SimTime,
    /// Executing thread ([`NO_THREAD`] outside runner context).
    pub thread: u32,
    /// Tile the triggering access executed on.
    pub tile: u16,
    /// Line address (`addr >> LINE_SHIFT`).
    pub line: u64,
    /// Payload.
    pub kind: EventKind,
}

impl EventKind {
    /// The trace record of one spine event; `None` for what the trace
    /// format leaves out (state preparation, the checker's oracle events).
    pub(crate) fn of(event: &ProtocolEvent<'_>) -> Option<EventKind> {
        Some(match *event {
            ProtocolEvent::Issue { op } => EventKind::Issue { op },
            ProtocolEvent::Serve {
                op,
                src,
                hops,
                latency_ps,
            } => EventKind::Serve {
                op,
                src,
                hops,
                latency_ps,
            },
            ProtocolEvent::Dir {
                from,
                entry,
                counted: true,
                ..
            } => EventKind::Dir {
                from,
                to: gstate_tag(&entry.state),
                forwarder: entry.supplier().map_or(NO_TILE, |t| t.0),
                sharers: entry.num_holders() as u16,
            },
            ProtocolEvent::Hop { leg, hops } => EventKind::Hop { leg, hops },
            ProtocolEvent::DevEnter { dev, write, depth } => {
                EventKind::DevEnter { dev, write, depth }
            }
            ProtocolEvent::DevLeave { dev } => EventKind::DevLeave { dev },
            ProtocolEvent::Mcache { edc, hit } => EventKind::Mcache { edc, hit },
            ProtocolEvent::Inv { n } => EventKind::Inv { n },
            ProtocolEvent::Update { n } => EventKind::Update { n },
            ProtocolEvent::Writeback { .. } => EventKind::Writeback,
            ProtocolEvent::Mark { id, start } => EventKind::Mark { id, start },
            ProtocolEvent::Dir { counted: false, .. }
            | ProtocolEvent::CoherentRead { .. }
            | ProtocolEvent::NtStore => return None,
        })
    }
}

/// The next field of a serialized line as one character: a longer token is
/// malformed, not its first character. Shared by every line reader.
pub(crate) fn one_char<'a>(it: &mut impl Iterator<Item = &'a str>) -> Option<char> {
    let s = it.next()?;
    (s.len() == 1).then(|| char::from(s.as_bytes()[0]))
}

/// The next field of a serialized line as a number.
pub(crate) fn num<'a, T: FromStr>(it: &mut impl Iterator<Item = &'a str>) -> Option<T> {
    it.next()?.parse().ok()
}

/// The strict-line skeleton every metric and telemetry reader shares:
/// `fields` parses the fields after the tag into a one-line value of its
/// own (refusing an unknown tag, a missing or malformed field, or a row
/// no writer emits), and the value is returned only when every field is
/// in and none is left over — so the caller merges all of a line or none.
pub(crate) fn strict_line<'a, T: Default>(
    line: &'a str,
    fields: impl FnOnce(&'a str, &mut SplitAsciiWhitespace<'a>, &mut T) -> Option<()>,
) -> Option<T> {
    let mut it = line.split_ascii_whitespace();
    let tag = it.next()?;
    let mut one = T::default();
    fields(tag, &mut it, &mut one)?;
    it.next().is_none().then_some(one)
}

impl TraceEvent {
    /// Append the one-line serialization of this event to `out`.
    pub fn write_line(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "E {} {} {} {:x} ",
            self.time, self.thread, self.tile, self.line
        );
        let _ = match self.kind {
            EventKind::Issue { op } => write!(out, "iss {op}"),
            EventKind::Serve {
                op,
                src,
                hops,
                latency_ps,
            } => write!(out, "srv {op} {src} {hops} {latency_ps}"),
            EventKind::Dir {
                from,
                to,
                forwarder,
                sharers,
            } => write!(out, "dir {from} {to} {forwarder} {sharers}"),
            EventKind::Hop { leg, hops } => write!(out, "hop {leg} {hops}"),
            EventKind::DevEnter { dev, write, depth } => {
                write!(out, "dev+ {dev} {} {depth}", if write { 'w' } else { 'r' })
            }
            EventKind::DevLeave { dev } => write!(out, "dev- {dev}"),
            EventKind::Mcache { edc, hit } => {
                write!(out, "mc {edc} {}", if hit { 'h' } else { 'm' })
            }
            EventKind::Inv { n } => write!(out, "inv {n}"),
            EventKind::Update { n } => write!(out, "upd {n}"),
            EventKind::Writeback => write!(out, "wb"),
            EventKind::Mark { id, start } => {
                write!(out, "mk {id} {}", if start { 's' } else { 'e' })
            }
        };
        out.push('\n');
    }

    /// Parse one serialized event line (inverse of
    /// [`write_line`](Self::write_line)). Returns `None` for non-event or
    /// malformed lines.
    pub fn parse(line: &str) -> Option<TraceEvent> {
        let mut it = line.split_ascii_whitespace();
        if it.next()? != "E" {
            return None;
        }
        let time = it.next()?.parse().ok()?;
        let thread = it.next()?.parse().ok()?;
        let tile = it.next()?.parse().ok()?;
        let line_addr = u64::from_str_radix(it.next()?, 16).ok()?;
        let tag = it.next()?;
        // A two-valued field: exactly `yes` or `no`, anything else is malformed.
        let flag = |it: &mut std::str::SplitAsciiWhitespace, yes: char, no: char| {
            let c = one_char(it)?;
            (c == yes || c == no).then_some(c == yes)
        };
        let kind = match tag {
            "iss" => EventKind::Issue {
                op: one_char(&mut it)?,
            },
            "srv" => EventKind::Serve {
                op: one_char(&mut it)?,
                src: one_char(&mut it)?,
                hops: it.next()?.parse().ok()?,
                latency_ps: it.next()?.parse().ok()?,
            },
            "dir" => EventKind::Dir {
                from: one_char(&mut it)?,
                to: one_char(&mut it)?,
                forwarder: it.next()?.parse().ok()?,
                sharers: it.next()?.parse().ok()?,
            },
            "hop" => EventKind::Hop {
                leg: one_char(&mut it)?,
                hops: it.next()?.parse().ok()?,
            },
            "dev+" => EventKind::DevEnter {
                dev: it.next()?.parse().ok()?,
                write: flag(&mut it, 'w', 'r')?,
                depth: it.next()?.parse().ok()?,
            },
            "dev-" => EventKind::DevLeave {
                dev: it.next()?.parse().ok()?,
            },
            "mc" => EventKind::Mcache {
                edc: it.next()?.parse().ok()?,
                hit: flag(&mut it, 'h', 'm')?,
            },
            "inv" => EventKind::Inv {
                n: it.next()?.parse().ok()?,
            },
            "upd" => EventKind::Update {
                n: it.next()?.parse().ok()?,
            },
            "wb" => EventKind::Writeback,
            "mk" => EventKind::Mark {
                id: it.next()?.parse().ok()?,
                start: flag(&mut it, 's', 'e')?,
            },
            _ => return None,
        };
        it.next().is_none().then_some(TraceEvent {
            time,
            thread,
            tile,
            line: line_addr,
            kind,
        })
    }
}

/// The event recorder attached to a [`crate::Machine`]: every traced
/// event folds into the [`Metrics`]; at [`TraceLevel::Full`] it is also
/// logged verbatim.
#[derive(Debug, Clone)]
pub struct Tracer {
    level: TraceLevel,
    metrics: OpenBin<MetricsCells, Metrics>,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl Tracer {
    /// A tracer recording at `level` (must not be [`TraceLevel::Off`] —
    /// "off" is represented by not having a tracer at all). Built only by
    /// the observer hub, from an [`crate::ObserverConfig`].
    pub(crate) fn new(level: TraceLevel) -> Tracer {
        assert_ne!(level, TraceLevel::Off, "TraceLevel::Off means no tracer");
        Tracer {
            level,
            metrics: OpenBin::new(BIN_PS, MetricsCells::default(), Metrics::default()),
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// The active level.
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Fold one event from `ctx` into the metrics and, at
    /// [`TraceLevel::Full`], log it.
    pub(crate) fn on_event(
        &mut self,
        ctx: EventContext,
        time: SimTime,
        line: u64,
        event: &ProtocolEvent<'_>,
    ) {
        if !self.metrics.fold(ctx.tile, time, line, event) || self.level != TraceLevel::Full {
            return;
        }
        if self.events.len() == EVENT_CAP {
            self.dropped += 1;
        } else if let Some(kind) = EventKind::of(event) {
            self.events.push(TraceEvent {
                time,
                thread: ctx.thread,
                tile: ctx.tile,
                line,
                kind,
            });
        }
    }

    /// The retained event log ([`TraceLevel::Full`] only).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events that overflowed [`EVENT_CAP`].
    pub fn events_dropped(&self) -> u64 {
        self.dropped
    }

    /// Fold the open bin into the metrics. The hub does this when it
    /// detaches the tracer, so a detached tracer's [`Tracer::metrics`] is a
    /// borrow.
    pub(crate) fn close_bin(&mut self) {
        self.metrics.close();
    }

    /// The aggregated metrics, open bin included: a copy with the bin
    /// closed into it while a bin is open (a tracer still attached to its
    /// machine), the metrics themselves otherwise.
    pub fn metrics(&self) -> Cow<'_, Metrics> {
        self.metrics.view()
    }

    /// Append the full serialization (header comment, event log, metric
    /// lines) to `out`. Deterministic: identical runs serialize to
    /// identical bytes.
    pub fn serialize_into(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(out, "# level={}", self.level.name());
        if self.dropped > 0 {
            let _ = writeln!(out, "# events_dropped={}", self.dropped);
        }
        for ev in &self.events {
            ev.write_line(out);
        }
        self.metrics().serialize_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_round_trip() {
        for l in TraceLevel::ALL {
            assert_eq!(TraceLevel::parse(l.name()), Some(l));
        }
        assert_eq!(TraceLevel::parse("metrics"), Some(TraceLevel::Summary));
        assert_eq!(TraceLevel::parse("bogus"), None);
    }

    #[test]
    fn events_round_trip_through_text() {
        let kinds = [
            EventKind::Issue { op: 'R' },
            EventKind::Serve {
                op: 'W',
                src: 'M',
                hops: 7,
                latency_ps: 123_456,
            },
            EventKind::Dir {
                from: 'U',
                to: 'E',
                forwarder: 3,
                sharers: 1,
            },
            EventKind::Hop { leg: 'q', hops: 4 },
            EventKind::DevEnter {
                dev: 6,
                write: true,
                depth: 17,
            },
            EventKind::DevLeave { dev: 6 },
            EventKind::Mcache { edc: 2, hit: false },
            EventKind::Inv { n: 3 },
            EventKind::Update { n: 2 },
            EventKind::Writeback,
            EventKind::Mark { id: 1, start: true },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let ev = TraceEvent {
                time: 1_000 + i as u64,
                thread: i as u32,
                tile: 2 * i as u16,
                line: 0xdead_0000 + i as u64,
                kind,
            };
            let mut s = String::new();
            ev.write_line(&mut s);
            assert_eq!(TraceEvent::parse(s.trim_end()), Some(ev), "{s}");
            let over_long = format!("{} junk", s.trim_end());
            assert_eq!(TraceEvent::parse(&over_long), None, "{over_long}");
        }
        let bad = [
            "# comment",
            "E 1 2",
            "E 1 0 0 40 iss RW",
            "E 1 0 0 40 srv W M 7",
            "E 1 0 0 40 dir U E 3 x",
            "E 1 0 0 40 hop q -4",
            "E 1 0 0 40 dev+ 6 x 17",
            "E 1 0 0 40 dev- 256",
            "E 1 0 0 40 mc 2 z",
            "E 1 0 0 40 inv",
            "E 1 0 0 40 upd x",
            "E 1 0 0 40 wb junk",
            "E 1 0 0 40 mk 1 q",
        ];
        for line in bad {
            assert_eq!(TraceEvent::parse(line), None, "{line:?}");
        }
    }

    #[test]
    fn full_level_retains_events_summary_does_not() {
        let ev = ProtocolEvent::Issue { op: 'R' };
        let ctx = EventContext::default();
        let mut full = Tracer::new(TraceLevel::Full);
        full.on_event(ctx, 10, 1, &ev);
        assert_eq!(full.events().len(), 1);
        let mut sum = Tracer::new(TraceLevel::Summary);
        sum.on_event(ctx, 10, 1, &ev);
        assert!(sum.events().is_empty());
        assert_eq!(sum.metrics().issues, 1);
        assert_eq!(full.metrics().issues, 1);
        // The checker's oracle events are neither counted nor logged.
        full.on_event(ctx, 11, 1, &ProtocolEvent::NtStore);
        assert_eq!((full.events().len(), full.metrics().events), (1, 1));
    }

    #[test]
    #[should_panic(expected = "no tracer")]
    fn off_level_tracer_rejected() {
        let _ = Tracer::new(TraceLevel::Off);
    }
}
