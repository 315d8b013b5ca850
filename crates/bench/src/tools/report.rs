//! `knl report` — fuse a telemetry series and an optional trace file's
//! metrics into one dashboard.
//!
//! The default output is a text report with unicode sparklines: queue
//! depth per memory device over sim time, per-tile serve heat, the
//! directory protocol-state census timeline, and invalidation/update/
//! write-back rates.
//! `--html PATH` additionally writes the same dashboard as a single
//! self-contained HTML page (no external assets).
//!
//! Telemetry files are the merged `results/<id>.telemetry` artifacts
//! written by `knl run` under `--telemetry`; `# job` section markers are
//! skipped and metric lines merge additively, so the report is
//! independent of how the sweep was split across jobs.

use crate::flags::{self, Arg, Flag, Stop};
use knl_sim::metrics::{dev_name, Metrics};
use knl_sim::TelemetrySeries;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;

const USAGE: &str = "\
usage: knl report TELEMETRY [flags]

Render a telemetry series (written by `knl run` under --telemetry) as a
text dashboard; optionally fuse a trace file.";

/// Sparkline glyph ramp, lowest to highest.
const RAMP: [char; 8] = [
    '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}', '\u{2588}',
];

/// Widest sparkline drawn; longer series are bucketed by max.
const MAX_WIDTH: usize = 64;

struct Args {
    telemetry: PathBuf,
    trace: Option<PathBuf>,
    html: Option<PathBuf>,
    top: usize,
}

const FLAGS: &[Flag<Args>] = &[
    Flag {
        names: &["--trace"],
        env: None,
        arg: Arg::Value("PATH"),
        help: "fold in a trace file's metrics (protocol totals)",
        set: |a, v| {
            a.trace = Some(PathBuf::from(v));
            Some(())
        },
    },
    Flag {
        names: &["--html"],
        env: None,
        arg: Arg::Value("PATH"),
        help: "also write the dashboard as self-contained HTML",
        set: |a, v| {
            a.html = Some(PathBuf::from(v));
            Some(())
        },
    },
    Flag {
        names: &["--top"],
        env: None,
        arg: Arg::Value("N"),
        help: "tiles shown in the per-tile heat section (default 8)",
        set: |a, v| v.parse().ok().map(|n| a.top = n),
    },
];

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, Stop> {
    let mut a = Args {
        telemetry: PathBuf::new(),
        trace: None,
        html: None,
        top: 8,
    };
    let parsed = flags::parse(FLAGS, &mut a, args, |_| None, &["TELEMETRY"])?;
    a.telemetry = PathBuf::from(&parsed.positional[0]);
    Ok(a)
}

pub fn run(args: impl IntoIterator<Item = String>) {
    let args = flags::or_exit(parse(args), USAGE, FLAGS);
    let series = load_series(&args.telemetry);
    let metrics = args.trace.as_deref().map(load_metrics);

    let mut out = dashboard(&args.telemetry, &series, args.top);
    if let Some(m) = &metrics {
        render_trace(&mut out, args.trace.as_deref().unwrap(), m);
    }

    print!("{out}");
    if let Some(html) = &args.html {
        std::fs::write(html, html_page(&out)).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", html.display());
            exit(1);
        });
        eprintln!("wrote {}", html.display());
    }
}

/// The series a telemetry file adds up to. Blank lines and comments (the
/// file header) are skipped; a `# job N` section marker must carry its
/// number and every other line must be a telemetry line.
fn parse_series(text: &str) -> Result<TelemetrySeries, super::BadLines> {
    let mut series = TelemetrySeries::default();
    super::check_lines(text, |line| {
        let line = line.trim();
        match line.strip_prefix("# job ") {
            Some(n) => n.trim().parse::<u32>().is_ok(),
            None => line.is_empty() || line.starts_with('#') || series.parse_line(line),
        }
    })?;
    Ok(series)
}

fn load_series(path: &Path) -> TelemetrySeries {
    let series = super::load(path, parse_series);
    if series.events == 0 {
        eprintln!("warning: no telemetry events in {}", path.display());
    }
    series
}

fn load_metrics(path: &Path) -> Metrics {
    super::load(path, |text| super::trace::parse_trace(text, false)).metrics
}

/// The text dashboard of one series, read from `path`.
fn dashboard(path: &Path, s: &TelemetrySeries, top: usize) -> String {
    let mut out = String::new();
    render_header(&mut out, path, s);
    render_queues(&mut out, s);
    render_tiles(&mut out, s, top);
    render_census(&mut out, s);
    render_rates(&mut out, s);
    out
}

/// The sparkline columns of a series' bins `0..=last_bin`: one per bin up
/// to [`MAX_WIDTH`] bins, else [`MAX_WIDTH`] runs of consecutive bins, each
/// keeping its max (peaks must stay visible). Rows are filled straight from
/// the sparse series, so no buffer grows with a bin index a file names.
struct Columns {
    bins: u128,
    width: usize,
}

impl Columns {
    fn new(s: &TelemetrySeries) -> Columns {
        let bins = u128::from(s.last_bin()) + 1;
        let width = bins.min(MAX_WIDTH as u128) as usize;
        Columns { bins, width }
    }

    /// Column `i` holds bins `⌊i·bins/width⌋` up to the next column's first.
    fn of(&self, bin: u64) -> usize {
        (((u128::from(bin) + 1) * self.width as u128 - 1) / self.bins) as usize
    }

    fn put(&self, row: &mut [f64], bin: u64, v: f64) {
        let c = &mut row[self.of(bin)];
        *c = c.max(v);
    }
}

/// Scale a row of [`Columns`] into a sparkline string; an all-zero row
/// renders as a flat run of the lowest glyph.
fn sparkline(vals: &[f64]) -> String {
    let max = vals.iter().cloned().fold(0.0f64, f64::max);
    vals.iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                RAMP[0]
            } else {
                let idx = (v / max * (RAMP.len() - 1) as f64).round() as usize;
                RAMP[idx.min(RAMP.len() - 1)]
            }
        })
        .collect()
}

fn render_header(out: &mut String, path: &Path, s: &TelemetrySeries) {
    let bins = Columns::new(s).bins;
    let _ = writeln!(out, "== knl-report: {} ==", path.display());
    let _ = writeln!(
        out,
        "interval {} ps x {bins} bins, {} events, sim end {:.3} ms",
        s.interval_ps,
        s.events,
        s.end_ps as f64 / 1e9
    );
}

fn render_queues(out: &mut String, s: &TelemetrySeries) {
    let _ = writeln!(out, "\n== queue depth by device ==");
    if s.dev_bins.is_empty() {
        let _ = writeln!(out, "(no device activity sampled)");
        return;
    }
    let cols = Columns::new(s);
    let mut devs: Vec<u8> = s.dev_bins.iter().map(|(&(d, _), _)| d).collect();
    devs.sort_unstable();
    devs.dedup();
    for dev in devs {
        let mut mean_depth = vec![0.0; cols.width];
        let mut peak = 0u32;
        let mut enters = 0u64;
        let mut writes = 0u64;
        let mut peak_enters = 0u64;
        for (&(d, bin), b) in s.dev_bins.iter() {
            if d != dev {
                continue;
            }
            if b.enters > 0 {
                cols.put(&mut mean_depth, bin, b.depth_sum as f64 / b.enters as f64);
            }
            peak = peak.max(b.depth_peak);
            enters += b.enters;
            writes += b.writes;
            peak_enters = peak_enters.max(b.enters);
        }
        // The busiest bin's lines at 64 B each, over the bin width: B/ps is
        // TB/s. A series with no interval has no rate.
        let peak_gbps = if s.interval_ps == 0 {
            0.0
        } else {
            peak_enters as f64 * 64.0 / s.interval_ps as f64 * 1e3
        };
        let _ = writeln!(
            out,
            "{:<6} {} peak {:>3}  enters {:>8}  writes {:>8}  peak {:>7.1} GB/s",
            dev_name(dev),
            sparkline(&mean_depth),
            peak,
            enters,
            writes,
            peak_gbps
        );
    }
}

fn render_tiles(out: &mut String, s: &TelemetrySeries, top: usize) {
    let _ = writeln!(out, "\n== per-tile heat (top {top} by serves) ==");
    if s.tile_bins.is_empty() {
        let _ = writeln!(out, "(no tile activity sampled)");
        return;
    }
    let cols = Columns::new(s);
    let mut tiles: Vec<u16> = s.tile_bins.iter().map(|(&(t, _), _)| t).collect();
    tiles.sort_unstable();
    tiles.dedup();
    let mut rows: Vec<(u16, u64, u64, u64, Vec<f64>)> = tiles
        .into_iter()
        .map(|tile| {
            let mut serves_per_bin = vec![0.0; cols.width];
            let (mut issues, mut serves, mut serve_ps) = (0u64, 0u64, 0u64);
            for (&(t, bin), b) in s.tile_bins.iter() {
                if t != tile {
                    continue;
                }
                cols.put(&mut serves_per_bin, bin, b.serves as f64);
                issues += b.issues;
                serves += b.serves;
                serve_ps += b.serve_ps;
            }
            (tile, issues, serves, serve_ps, serves_per_bin)
        })
        .collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
    for (tile, issues, serves, serve_ps, line) in rows.into_iter().take(top) {
        let avg_ns = if serves > 0 {
            serve_ps as f64 / serves as f64 / 1000.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "tile {:<3} {} issues {:>8}  serves {:>8}  avg {:>7.1} ns",
            tile,
            sparkline(&line),
            issues,
            serves,
            avg_ns
        );
    }
}

fn render_census(out: &mut String, s: &TelemetrySeries) {
    let _ = writeln!(out, "\n== directory census (lines per state) ==");
    let timeline = s.census_timeline();
    if timeline.is_empty() {
        let _ = writeln!(out, "(no directory transitions sampled)");
        return;
    }
    let cols = Columns::new(s);
    for (state, steps) in timeline {
        let mut vals = vec![0.0f64; cols.width];
        let mut peak = i64::MIN;
        // A level holds over the bins `from..=to`; each column keeps its max.
        let mut hold = |from: u64, to: u64, level: i64| {
            peak = peak.max(level);
            for c in &mut vals[cols.of(from)..=cols.of(to)] {
                *c = c.max(level.max(0) as f64);
            }
        };
        let (mut from, mut level) = (0, 0);
        for (bin, next) in steps {
            if bin > from {
                hold(from, bin - 1, level);
            }
            (from, level) = (bin, next);
        }
        hold(from, s.last_bin(), level);
        let _ = writeln!(
            out,
            "state {state} {} peak {:>8}  final {:>8}",
            sparkline(&vals),
            peak,
            level
        );
    }
}

fn render_rates(out: &mut String, s: &TelemetrySeries) {
    let _ = writeln!(out, "\n== coherence traffic rates ==");
    if s.rates.is_empty() {
        let _ = writeln!(out, "(no coherence traffic sampled)");
        return;
    }
    let cols = Columns::new(s);
    let mut rows: Vec<(&str, Vec<f64>, u64)> = [
        "invalidations",
        "updates",
        "write-backs",
        "ext write-backs",
        "mcache hits",
        "mcache misses",
        "mesh hops",
    ]
    .into_iter()
    .map(|name| (name, vec![0.0; cols.width], 0u64))
    .collect();
    for (&bin, r) in s.rates.iter() {
        let vals = [r.inv, r.upd, r.wb, r.wb_ext, r.mc_hit, r.mc_miss, r.hops];
        for (row, v) in rows.iter_mut().zip(vals) {
            cols.put(&mut row.1, bin, v as f64);
            row.2 += v;
        }
    }
    for (name, line, total) in rows {
        if total == 0 {
            continue;
        }
        let _ = writeln!(out, "{name:<15} {} total {total:>10}", sparkline(&line));
    }
}

fn render_trace(out: &mut String, path: &Path, m: &Metrics) {
    let _ = writeln!(out, "\n== trace metrics: {} ==", path.display());
    // Reuse the `knl trace` report body, minus its hot-line sections.
    for line in m.report(4).lines() {
        let _ = writeln!(out, "{line}");
    }
}

/// Wrap the text dashboard as one self-contained HTML page.
fn html_page(text: &str) -> String {
    let mut body = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => body.push_str("&amp;"),
            '<' => body.push_str("&lt;"),
            '>' => body.push_str("&gt;"),
            _ => body.push(c),
        }
    }
    format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>knl-report</title>\
         <style>body{{background:#111;color:#ddd;}}\
         pre{{font:13px/1.45 monospace;}}</style>\
         </head><body><pre>{body}</pre></body></html>\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_telemetry_is_refused_at_its_first_bad_line() {
        let text = "# knl-telemetry v1 interval_ps=1000\n# job 0\nI 1000\nQ 0 4 10 2 3 4 5\n\
                    Z 9 99\n# job 1\nI 1000\nP 3 4 1 2 3\nZ 2 120\n";
        let series = parse_series(text).expect("valid telemetry");
        assert_eq!(
            (series.interval_ps, series.events, series.end_ps),
            (1000, 11, 120)
        );

        // The last line cut mid-number (`Z 2 12` still parses), as a killed
        // run or a full disk leaves it.
        let cut = text.strip_suffix("0\n").unwrap();
        assert_eq!(parse_series(cut).unwrap_err(), (9, 0));
        let bad_job = cut.replace("# job 1", "# job x");
        assert_eq!(parse_series(&bad_job).unwrap_err(), (6, 1));
        // A section sampled at another interval: its bins are not these bins.
        let mixed = text.replacen("# job 1\nI 1000", "# job 1\nI 2000", 1);
        assert_eq!(parse_series(&mixed).unwrap_err(), (7, 0));
    }

    #[test]
    fn any_bin_index_that_parses_renders() {
        // Bin indexes at the top of u64, or whose dense rows would need
        // terabytes: each renders in MAX_WIDTH columns, its peak in the last.
        let last = |tail| format!("{}█{tail}", "▁".repeat(MAX_WIDTH - 1));
        let top = "I 100000000\nV 18446744073709551615 1 0 0 0 0 0 0\nZ 1 18446744073709551615\n";
        let huge = "Q 0 4000000000000 1 0 0 1 1\nZ 1 400000000000000000\n";
        let census = "G 7 S 2\nG 18446744073709551615 S -1\n";
        let final_level = "peak        2  final        1".to_string();
        // And the busiest bin's bandwidth: 20 lines of 64 B in 1 000 ps.
        let rate = "I 1000\nQ 0 4 10 2 3 4 5\nQ 0 5 20 0 0 0 0\nZ 30 5999\n";
        let gbps = "enters       30  writes        2  peak  1280.0 GB/s".to_string();
        for (text, want) in [
            (top, last(" total")),
            (huge, last(" peak   1")),
            (census, final_level),
            (rate, gbps),
        ] {
            let s = parse_series(text).expect("valid telemetry");
            let out = dashboard(Path::new("x.telemetry"), &s, 8);
            assert!(out.contains(&want), "{out}");
        }
    }
}
