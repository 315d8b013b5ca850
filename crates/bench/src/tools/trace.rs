//! `knl trace` — aggregate and report a trace file written by an
//! experiment under `--trace` / `--trace-level`.
//!
//! The default output is the text report: protocol totals, the latency
//! histogram keyed by (MESIF supplier state, hop distance) — the paper's
//! Fig. 4 decomposition — hot tiles, device queue statistics, directory
//! transitions, and hot lines. Metric lines from every `# job` section
//! merge additively, so the report is independent of how the sweep was
//! split across jobs.
//!
//! `--chrome PATH` additionally converts the raw event log (present at
//! `--trace-level full`) into Chrome `trace_event` JSON loadable in
//! `chrome://tracing` / Perfetto: serves become complete ("X") slices,
//! runner marks become begin/end ("B"/"E") slices, and device queue
//! depths become counter ("C") tracks.

use crate::flags::{self, Arg, Flag, Stop};
use knl_sim::metrics::Metrics;
use knl_sim::trace::{EventKind, TraceEvent, NO_THREAD};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "\
usage: knl trace TRACE [flags]

Aggregate a trace file (written by `knl run` under --trace /
--trace-level) and print a text report.";

struct Args {
    trace: PathBuf,
    top: usize,
    csv: Option<PathBuf>,
    chrome: Option<PathBuf>,
}

const FLAGS: &[Flag<Args>] = &[
    Flag {
        names: &["--top"],
        env: None,
        arg: Arg::Value("N"),
        help: "rows in the hot-tile / hot-line sections (default 16)",
        set: |a, v| v.parse().ok().map(|n| a.top = n),
    },
    Flag {
        names: &["--csv"],
        env: None,
        arg: Arg::Value("PATH"),
        help: "also write the (source, hops) latency histogram as CSV",
        set: |a, v| {
            a.csv = Some(PathBuf::from(v));
            Some(())
        },
    },
    Flag {
        names: &["--chrome"],
        env: None,
        arg: Arg::Value("PATH"),
        help: "also write Chrome trace_event JSON from the raw event log\n\
               (requires a --trace-level full trace)",
        set: |a, v| {
            a.chrome = Some(PathBuf::from(v));
            Some(())
        },
    },
];

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, Stop> {
    let mut a = Args {
        trace: PathBuf::new(),
        top: 16,
        csv: None,
        chrome: None,
    };
    let parsed = flags::parse(FLAGS, &mut a, args, |_| None, &["TRACE"])?;
    a.trace = PathBuf::from(&parsed.positional[0]);
    Ok(a)
}

/// What a trace file adds up to.
pub(super) struct Trace {
    pub(super) metrics: Metrics,
    /// The raw event log with each event's `# job`; kept only for `--chrome`.
    events: Vec<(u32, TraceEvent)>,
    /// Events dropped past the cap.
    dropped: u64,
}

/// Every line must be a comment, a marker with its number, a metric line
/// or an event line.
pub(super) fn parse_trace(text: &str, keep_events: bool) -> Result<Trace, super::BadLines> {
    let mut metrics = Metrics::default();
    let mut events = Vec::new();
    let mut job = 0u32;
    let mut dropped = 0u64;
    super::check_lines(text, |line| {
        if let Some(rest) = line.strip_prefix("# job ") {
            return rest.trim().parse().map(|n| job = n).is_ok();
        }
        if let Some(rest) = line.strip_prefix("# events_dropped=") {
            return rest.trim().parse().map(|n: u64| dropped += n).is_ok();
        }
        if line.starts_with('#') || line.is_empty() || metrics.parse_line(line) {
            return true;
        }
        let ev = TraceEvent::parse(line);
        if keep_events {
            events.extend(ev.map(|ev| (job, ev)));
        }
        ev.is_some()
    })?;
    Ok(Trace {
        metrics,
        events,
        dropped,
    })
}

pub fn run(args: impl IntoIterator<Item = String>) {
    let args = flags::or_exit(parse(args), USAGE, FLAGS);
    let keep_events = args.chrome.is_some();
    let Trace {
        metrics,
        events,
        dropped,
    } = super::load(&args.trace, |text| parse_trace(text, keep_events));

    // Ignore stdout pipe errors so `knl trace … | head` exits cleanly.
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout().lock();
        let _ = stdout.write_all(metrics.report(args.top).as_bytes());
        if dropped > 0 {
            let _ = writeln!(
                stdout,
                "\n(raw event log truncated: {dropped} events dropped past the cap)"
            );
        }
    }

    if let Some(path) = &args.csv {
        std::fs::write(path, metrics.latency_csv()).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            exit(1);
        });
        eprintln!("csv: {}", path.display());
    }

    if let Some(path) = &args.chrome {
        if events.is_empty() {
            eprintln!(
                "warning: no raw events in {} — Chrome export needs a --trace-level full trace",
                args.trace.display()
            );
        }
        let json = chrome_json(&events);
        std::fs::write(path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            exit(1);
        });
        eprintln!("chrome: {} ({} events)", path.display(), events.len());
    }
}

/// Microseconds with ps precision, the unit `chrome://tracing` expects.
fn us(ps: u64) -> f64 {
    ps as f64 / 1e6
}

/// Thread track id: the runner thread when known, else a per-tile track
/// in a disjoint id range (machine-internal activity).
fn tid(ev: &TraceEvent) -> u64 {
    if ev.thread == NO_THREAD {
        100_000 + ev.tile as u64
    } else {
        ev.thread as u64
    }
}

/// Convert the raw event log into Chrome `trace_event` JSON (array form
/// inside an object, as Perfetto and `chrome://tracing` both accept).
fn chrome_json(events: &[(u32, TraceEvent)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    for (job, ev) in events {
        let pid = *job as u64;
        match ev.kind {
            EventKind::Serve {
                op,
                src,
                hops,
                latency_ps,
            } => {
                let start = ev.time.saturating_sub(latency_ps);
                push(
                    format!(
                        "{{\"name\":\"{op} {}\",\"cat\":\"serve\",\"ph\":\"X\",\
                         \"ts\":{:.6},\"dur\":{:.6},\"pid\":{pid},\"tid\":{},\
                         \"args\":{{\"line\":\"{:#x}\",\"hops\":{hops}}}}}",
                        knl_sim::metrics::src_name(src),
                        us(start),
                        us(latency_ps),
                        tid(ev),
                        ev.line << 6
                    ),
                    &mut out,
                    &mut first,
                );
            }
            EventKind::Mark { id, start } => {
                push(
                    format!(
                        "{{\"name\":\"mark{id}\",\"cat\":\"mark\",\"ph\":\"{}\",\
                         \"ts\":{:.6},\"pid\":{pid},\"tid\":{}}}",
                        if start { 'B' } else { 'E' },
                        us(ev.time),
                        tid(ev)
                    ),
                    &mut out,
                    &mut first,
                );
            }
            EventKind::DevEnter { dev, depth, .. } => {
                push(
                    format!(
                        "{{\"name\":\"{} queue\",\"cat\":\"dev\",\"ph\":\"C\",\
                         \"ts\":{:.6},\"pid\":{pid},\"tid\":0,\
                         \"args\":{{\"depth\":{depth}}}}}",
                        knl_sim::metrics::dev_name(dev),
                        us(ev.time)
                    ),
                    &mut out,
                    &mut first,
                );
            }
            _ => {}
        }
    }
    let _ = write!(out, "]}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_trace_is_refused_at_its_first_bad_line() {
        let text = "# knl-trace v1 level=full\n# job 0\nE 1000 0 0 40 iss R\nC issues 1\n\
                    Z 1 1000\n# job 1\n# events_dropped=3\nE 900 1 2 80 mk 1 s\nZ 1 900\n";
        let t = parse_trace(text, true).expect("valid trace");
        assert_eq!((t.metrics.events, t.metrics.issues, t.dropped), (2, 1, 3));
        assert_eq!([t.events[0].0, t.events[1].0], [0, 1]);

        // The last line cut mid-number (`Z 1 90` still parses), as a killed
        // run or a full disk leaves it.
        let cut = text.strip_suffix("0\n").unwrap();
        assert_eq!(parse_trace(cut, true).err(), Some((9, 0)));
        // A marker without its number must not pass for the previous job.
        let bad_job = cut.replace("# job 1", "# job x");
        assert_eq!(parse_trace(&bad_job, true).err(), Some((6, 1)));
        // A count of zero, a line no writer emits, and the per-bin rows of
        // older traces, which hold time-binned counts a trace no longer has.
        for bad_row in ["L 40 0", "B 6 0 1", "U 3 0 1"] {
            let bad = text.replace("C issues 1", bad_row);
            assert_eq!(parse_trace(&bad, true).err(), Some((4, 0)), "{bad_row}");
        }
    }
}
