//! Time-resolved telemetry: where the metrics answer "how much happened",
//! a [`TelemetrySeries`] answers "when". The [`TelemetrySampler`] folds
//! every [`crate::ProtocolEvent`] into series binned at a configurable
//! **simulated** interval:
//!
//! * per-device queue activity (arrivals, departures, observed depth),
//! * per-tile activity (issues, serves, summed serve latency),
//! * a directory-state census as signed per-bin occupancy *deltas*
//!   (prefix sums give each state's occupancy at every bin boundary), and
//! * protocol message rates (invalidations, updates, write-backs, mcache
//!   hits/misses, mesh hops).
//!
//! It is the only observer that bins time: the tracer's metrics are run
//! totals. Like `Metrics`, a series is plain sparse data that serializes
//! to deterministic lines, parses back and merges additively; the sampler
//! counts the bin it is in densely by id (`svmap::OpenRow`) and adds the
//! touched cells to the series when an event lands in another bin, at a
//! reset, and before anything reads the series.
//! Host time never enters a series (the crate's `clippy.toml` bans the
//! host-time types), so sampling is a pure observer.

use crate::engine::observe::{gstate_tag, ProtocolEvent};
use crate::svmap::{OpenRow, SortedVecMap};
use crate::trace::{num, one_char, strict_line};
use crate::SimTime;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default sampling interval: 100 µs of sim time.
pub const DEFAULT_INTERVAL_PS: SimTime = 100_000_000;

/// Telemetry knob carried by [`crate::ObserverConfig`]: the sampling
/// interval in integer picoseconds of sim time, `0` meaning off (the
/// default — an unconfigured machine attaches no sampler and keeps the
/// empty-hub fast path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryConfig {
    /// Width of one sampling bin in sim-time ps; `0` disables telemetry.
    pub interval_ps: SimTime,
}

impl TelemetryConfig {
    /// Off (no sampler attached).
    pub fn off() -> Self {
        TelemetryConfig { interval_ps: 0 }
    }

    /// On at [`DEFAULT_INTERVAL_PS`].
    pub fn on() -> Self {
        TelemetryConfig {
            interval_ps: DEFAULT_INTERVAL_PS,
        }
    }

    /// On at an explicit bin width (ps); `0` is off.
    pub fn every(interval_ps: SimTime) -> Self {
        TelemetryConfig { interval_ps }
    }

    /// Is a sampler requested at all?
    pub fn enabled(&self) -> bool {
        self.interval_ps > 0
    }
}

/// Per-device activity within one time bin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevBin {
    /// Lines that entered the device queue in this bin.
    pub enters: u64,
    /// …of which writes.
    pub writes: u64,
    /// Lines that left the device queue in this bin.
    pub leaves: u64,
    /// Peak queue depth observed at any arrival in this bin.
    pub depth_peak: u32,
    /// Sum of observed arrival depths (mean = `depth_sum / enters`).
    pub depth_sum: u64,
}

impl DevBin {
    fn add(&mut self, o: &DevBin) {
        self.enters += o.enters;
        self.writes += o.writes;
        self.leaves += o.leaves;
        self.depth_peak = self.depth_peak.max(o.depth_peak);
        self.depth_sum += o.depth_sum;
    }
}

/// Per-tile activity within one time bin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileBin {
    /// Requests that left this tile for a home CHA in this bin.
    pub issues: u64,
    /// Requests served for this tile's cores in this bin.
    pub serves: u64,
    /// Summed end-to-end latency of those serves (ps); the bin's mean
    /// serve latency is `serve_ps / serves`.
    pub serve_ps: u64,
}

impl TileBin {
    fn add(&mut self, o: &TileBin) {
        self.issues += o.issues;
        self.serves += o.serves;
        self.serve_ps += o.serve_ps;
    }
}

/// Protocol message rates within one time bin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RateBin {
    /// Invalidation messages.
    pub inv: u64,
    /// Update messages (update-based protocols).
    pub upd: u64,
    /// Write-backs (directory-implied).
    pub wb: u64,
    /// External write-backs (mcache victim evictions).
    pub wb_ext: u64,
    /// Memory-side cache hits.
    pub mc_hit: u64,
    /// Memory-side cache misses.
    pub mc_miss: u64,
    /// Mesh hops crossed (all legs).
    pub hops: u64,
}

impl RateBin {
    fn add(&mut self, o: &RateBin) {
        self.inv += o.inv;
        self.upd += o.upd;
        self.wb += o.wb;
        self.wb_ext += o.wb_ext;
        self.mc_hit += o.mc_hit;
        self.mc_miss += o.mc_miss;
        self.hops += o.hops;
    }
}

/// A deterministic, additively-mergeable set of time series sampled at a
/// fixed sim-time interval. Line tags: `I` interval, `Q` device bins, `P`
/// tile bins, `G` census deltas, `V` rate bins, `Z` trailer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySeries {
    /// Bin width (ps). `0` only for a freshly constructed empty series;
    /// set on first parse/merge.
    pub interval_ps: SimTime,
    /// Per-(device, bin) queue activity.
    pub dev_bins: SortedVecMap<(u8, u64), DevBin>,
    /// Per-(tile, bin) activity.
    pub tile_bins: SortedVecMap<(u16, u64), TileBin>,
    /// Directory state census as signed occupancy deltas per (bin, state
    /// tag). The `U`ncached pool is unbounded and not tracked; a state's
    /// census at the end of bin `b` is the prefix sum of its deltas up to
    /// and including `b`.
    pub census: SortedVecMap<(u64, char), i64>,
    /// Per-bin protocol message rates.
    pub rates: SortedVecMap<u64, RateBin>,
    /// Events folded in.
    pub events: u64,
    /// Latest event timestamp (ps).
    pub end_ps: SimTime,
}

impl TelemetrySeries {
    /// An empty series with the bin width fixed.
    pub fn with_interval(interval_ps: SimTime) -> Self {
        TelemetrySeries {
            interval_ps,
            ..Self::default()
        }
    }

    /// Highest populated bin index across every series (0 when empty).
    /// The id-major device and tile series are scanned; the bin-major
    /// census and rate series end in their highest bin.
    pub fn last_bin(&self) -> u64 {
        let q = self.dev_bins.iter().map(|(&(_, b), _)| b).max();
        let p = self.tile_bins.iter().map(|(&(_, b), _)| b).max();
        let g = self.census.last_key().map(|&(b, _)| b);
        let v = self.rates.last_key().copied();
        [q, p, g, v].into_iter().flatten().max().unwrap_or(0)
    }

    /// Merge another series into this one (additive; order-free). A side
    /// without an interval (a fresh series, a single parsed line) adopts
    /// the other's. Two different intervals do not merge — their bins mean
    /// different things: returns `false` and leaves `self` untouched.
    #[must_use = "a series of another interval is refused, not merged"]
    pub fn merge(&mut self, o: &TelemetrySeries) -> bool {
        if self.interval_ps == 0 {
            self.interval_ps = o.interval_ps;
        } else if o.interval_ps != 0 && o.interval_ps != self.interval_ps {
            return false;
        }
        for (k, b) in &o.dev_bins {
            self.dev_bins.entry_or_default(*k).add(b);
        }
        for (k, b) in &o.tile_bins {
            self.tile_bins.entry_or_default(*k).add(b);
        }
        for (k, d) in &o.census {
            *self.census.entry_or_default(*k) += d;
        }
        for (k, b) in &o.rates {
            self.rates.entry_or_default(*k).add(b);
        }
        self.events += o.events;
        self.end_ps = self.end_ps.max(o.end_ps);
        true
    }

    /// Serialize as deterministic telemetry lines. Maps iterate in
    /// ascending key order, so equal series render byte-identically.
    pub fn serialize_into(&self, out: &mut String) {
        let _ = writeln!(out, "I {}", self.interval_ps);
        for ((dev, bin), b) in &self.dev_bins {
            let _ = writeln!(
                out,
                "Q {dev} {bin} {} {} {} {} {}",
                b.enters, b.writes, b.leaves, b.depth_peak, b.depth_sum
            );
        }
        for ((tile, bin), b) in &self.tile_bins {
            let _ = writeln!(
                out,
                "P {tile} {bin} {} {} {}",
                b.issues, b.serves, b.serve_ps
            );
        }
        for ((bin, state), d) in &self.census {
            let _ = writeln!(out, "G {bin} {state} {d}");
        }
        for (bin, r) in &self.rates {
            let _ = writeln!(
                out,
                "V {bin} {} {} {} {} {} {} {}",
                r.inv, r.upd, r.wb, r.wb_ext, r.mc_hit, r.mc_miss, r.hops
            );
        }
        let _ = writeln!(out, "Z {} {}", self.events, self.end_ps);
    }

    /// Parse one telemetry line, merging it into `self`. Returns `false`
    /// for anything that is not a telemetry line (comments, garbage, a
    /// line with a missing, malformed or extra field, an `I` line
    /// disagreeing with an already-set interval) or a row no writer emits
    /// (a `Q` row with more writes than enters or a peak depth above its
    /// depth sum), and then leaves `self` untouched.
    pub fn parse_line(&mut self, line: &str) -> bool {
        strict_line(line, |tag, it, one: &mut TelemetrySeries| {
            match tag {
                "I" => one.interval_ps = num(it)?,
                "Q" => {
                    let key = (num(it)?, num(it)?);
                    let q = DevBin {
                        enters: num(it)?,
                        writes: num(it)?,
                        leaves: num(it)?,
                        depth_peak: num(it)?,
                        depth_sum: num(it)?,
                    };
                    let whole = q.writes <= q.enters && u64::from(q.depth_peak) <= q.depth_sum;
                    whole.then_some(())?;
                    *one.dev_bins.entry_or_default(key) = q;
                }
                "P" => {
                    let key = (num(it)?, num(it)?);
                    *one.tile_bins.entry_or_default(key) = TileBin {
                        issues: num(it)?,
                        serves: num(it)?,
                        serve_ps: num(it)?,
                    };
                }
                "G" => {
                    let key = (num(it)?, one_char(it)?);
                    *one.census.entry_or_default(key) = num(it)?;
                }
                "V" => {
                    let bin = num(it)?;
                    *one.rates.entry_or_default(bin) = RateBin {
                        inv: num(it)?,
                        upd: num(it)?,
                        wb: num(it)?,
                        wb_ext: num(it)?,
                        mc_hit: num(it)?,
                        mc_miss: num(it)?,
                        hops: num(it)?,
                    };
                }
                "Z" => {
                    one.events = num(it)?;
                    one.end_ps = num(it)?;
                }
                _ => return None,
            }
            Some(())
        })
        .is_some_and(|one| self.merge(&one))
    }

    /// Cumulative census per state, in ascending state-tag order — the
    /// prefix sums of the `G` deltas as `(bin, level after it)` for each
    /// bin holding a delta, in bin order. A level holds until the next
    /// entry; before the first it is zero.
    pub fn census_timeline(&self) -> Vec<(char, Vec<(u64, i64)>)> {
        let mut states: BTreeMap<char, Vec<(u64, i64)>> = BTreeMap::new();
        for (&(bin, s), &d) in self.census.iter() {
            let steps = states.entry(s).or_default();
            let level = steps.last().map_or(0, |&(_, l)| l);
            steps.push((bin, level.saturating_add(d)));
        }
        states.into_iter().collect()
    }
}

/// The sim-time window `[start, start + interval)` of the time bin the
/// sampler is accumulating: the per-event question "same bin as the last
/// event?" is two compares, and the division happens only when the answer
/// is no.
#[derive(Debug, Clone)]
struct BinWindow {
    interval: SimTime,
    start: SimTime,
    index: u64,
}

impl BinWindow {
    /// The window of bin 0 at bin width `interval` (ps, nonzero).
    fn new(interval: SimTime) -> Self {
        assert!(interval > 0, "a time bin has a width");
        BinWindow {
            interval,
            start: 0,
            index: 0,
        }
    }

    /// Does `time` fall in this bin?
    #[inline]
    fn holds(&self, time: SimTime) -> bool {
        // Not `time < start + interval`: the last bin's end is past `u64::MAX`.
        time >= self.start && time - self.start < self.interval
    }

    /// Move the window to the bin holding `time`.
    fn move_to(&mut self, time: SimTime) {
        self.index = time / self.interval;
        self.start = self.index * self.interval;
    }
}

/// The sampler's open bin: every series' cells for that bin as dense rows
/// (the census row is indexed by state tag).
#[derive(Debug, Clone, Default)]
struct SeriesCells {
    devs: OpenRow<DevBin>,
    tiles: OpenRow<TileBin>,
    census: OpenRow<i64>,
    /// `Some` once a rate event touched the bin, all-zero or not.
    rates: Option<RateBin>,
}

impl SeriesCells {
    /// Whether [`SeriesCells::close_into`] would add nothing.
    fn is_empty(&self) -> bool {
        self.devs.is_empty()
            && self.tiles.is_empty()
            && self.census.is_empty()
            && self.rates.is_none()
    }

    /// Add the touched cells to `series` as bin `bin`, and empty them.
    fn close_into(&mut self, bin: u64, series: &mut TelemetrySeries) {
        self.devs
            .drain(|dev, b| series.dev_bins.entry_or_default((dev as u8, bin)).add(&b));
        self.tiles.drain(|tile, b| {
            series
                .tile_bins
                .entry_or_default((tile as u16, bin))
                .add(&b)
        });
        self.census
            .drain(|state, d| *series.census.entry_or_default((bin, state as u8 as char)) += d);
        if let Some(r) = self.rates.take() {
            series.rates.entry_or_default(bin).add(&r);
        }
    }
}

/// The series of every closed bin, and the open bin's cells behind the
/// [`BinWindow`] that says which bin is open. The sampler counts into
/// [`OpenBin::at`] and into `closed` directly for what is not binned.
#[derive(Debug, Clone)]
struct OpenBin {
    window: BinWindow,
    cells: SeriesCells,
    /// Everything folded so far but what `cells` still holds.
    closed: TelemetrySeries,
}

impl OpenBin {
    /// Bin 0 open and empty, at bin width `interval` (ps).
    fn new(interval: SimTime) -> Self {
        OpenBin {
            window: BinWindow::new(interval),
            cells: SeriesCells::default(),
            closed: TelemetrySeries::with_interval(interval),
        }
    }

    /// The open bin's cells, after closing the open bin and opening the
    /// one holding `time` if `time` is not in it.
    #[inline]
    fn at(&mut self, time: SimTime) -> &mut SeriesCells {
        if !self.window.holds(time) {
            self.close();
            self.window.move_to(time);
        }
        &mut self.cells
    }

    /// Add the open bin's cells to `closed`.
    fn close(&mut self) {
        self.cells.close_into(self.window.index, &mut self.closed);
    }

    /// The series, open bin included: a copy with the bin closed into it
    /// while a bin is open (a sampler still attached to its machine),
    /// `closed` itself otherwise.
    fn view(&self) -> Cow<'_, TelemetrySeries> {
        if self.cells.is_empty() {
            return Cow::Borrowed(&self.closed);
        }
        let mut all = self.closed.clone();
        self.cells.clone().close_into(self.window.index, &mut all);
        Cow::Owned(all)
    }
}

/// The telemetry observer: folds [`ProtocolEvent`]s into a
/// [`TelemetrySeries`] at a fixed sim-time interval. A pure observer — it
/// only ever reads the event stream, so simulated timings, counters, and
/// cache state are bit-identical with or without it.
pub struct TelemetrySampler {
    /// Running non-`U` directory census by state tag, kept so a
    /// cache/directory reset can emit compensating deltas (the dropped
    /// entries all return to Uncached).
    live_census: OpenRow<i64>,
    series: OpenBin,
}

impl TelemetrySampler {
    /// Sampler at `cfg.interval_ps` (must be enabled; an off config
    /// attaches no sampler instead). Built only by the observer hub, from
    /// an [`crate::ObserverConfig`].
    pub(crate) fn new(cfg: TelemetryConfig) -> Self {
        assert!(cfg.enabled(), "use no sampler instead of interval 0");
        TelemetrySampler {
            live_census: OpenRow::default(),
            series: OpenBin::new(cfg.interval_ps),
        }
    }

    /// The sampling interval (ps).
    pub fn interval_ps(&self) -> SimTime {
        self.series.closed.interval_ps
    }

    /// Fold the open bin into the series. The hub does this when it
    /// detaches the sampler, so a detached sampler's
    /// [`TelemetrySampler::series`] is a borrow.
    pub(crate) fn close_bin(&mut self) {
        self.series.close();
    }

    /// The accumulated series, open bin included: a copy with the bin
    /// closed into it while a bin is open (a sampler still attached to its
    /// machine), the series itself otherwise.
    pub fn series(&self) -> Cow<'_, TelemetrySeries> {
        self.series.view()
    }

    /// Consume the sampler, returning its series.
    pub fn into_series(mut self: Box<Self>) -> TelemetrySeries {
        self.close_bin();
        self.series.closed
    }

    /// Serialize the accumulated series (see
    /// [`TelemetrySeries::serialize_into`]).
    pub fn serialize_into(&self, out: &mut String) {
        self.series().serialize_into(out);
    }

    /// Fold one event from `tile` into its time bin.
    pub(crate) fn on_event(&mut self, tile: u16, time: SimTime, event: &ProtocolEvent<'_>) {
        let s = &mut self.series.closed;
        s.events += 1;
        s.end_ps = s.end_ps.max(time);
        let open = self.series.at(time);
        match *event {
            ProtocolEvent::Issue { .. } => open.tiles.cell(usize::from(tile)).issues += 1,
            ProtocolEvent::Serve { latency_ps, .. } => {
                let t = open.tiles.cell(usize::from(tile));
                t.serves += 1;
                t.serve_ps += latency_ps;
            }
            // The line leaves one state's census for another's; the
            // unbounded `U` pool is not tracked.
            ProtocolEvent::Dir { from, entry, .. } => {
                let to = gstate_tag(&entry.state);
                for (tag, d) in [(from, -1), (to, 1)] {
                    if from != to && tag != 'U' {
                        *open.census.cell(state_index(tag)) += d;
                        *self.live_census.cell(state_index(tag)) += d;
                    }
                }
            }
            ProtocolEvent::Hop { hops, .. } => {
                open.rates.get_or_insert_default().hops += hops as u64;
            }
            ProtocolEvent::DevEnter { dev, write, depth } => {
                let d = open.devs.cell(usize::from(dev));
                d.enters += 1;
                if write {
                    d.writes += 1;
                }
                d.depth_peak = d.depth_peak.max(depth);
                d.depth_sum += depth as u64;
            }
            ProtocolEvent::DevLeave { dev } => open.devs.cell(usize::from(dev)).leaves += 1,
            ProtocolEvent::Mcache { hit, .. } => {
                let r = open.rates.get_or_insert_default();
                if hit {
                    r.mc_hit += 1;
                } else {
                    r.mc_miss += 1;
                }
            }
            ProtocolEvent::Inv { n } => open.rates.get_or_insert_default().inv += n as u64,
            ProtocolEvent::Update { n } => open.rates.get_or_insert_default().upd += n as u64,
            ProtocolEvent::Writeback { external } => {
                let r = open.rates.get_or_insert_default();
                if external {
                    r.wb_ext += 1;
                } else {
                    r.wb += 1;
                }
            }
            ProtocolEvent::Mark { .. }
            | ProtocolEvent::CoherentRead { .. }
            | ProtocolEvent::NtStore => {}
        }
    }

    /// The on-die caches and directory were cleared (fresh repetition).
    pub(crate) fn on_reset(&mut self) {
        // The directory was cleared: every cached line returns to
        // Uncached. Emit compensating deltas at the latest time seen so
        // census prefix sums stay exact across repetitions.
        let census = &mut self.series.at(self.series.closed.end_ps).census;
        self.live_census.drain(|state, n| {
            if n != 0 {
                *census.cell(state) -= n;
            }
        });
    }
}

/// Row index of a directory state tag (the ASCII letters of
/// [`gstate_tag`]).
fn state_index(tag: char) -> usize {
    debug_assert!(tag.is_ascii(), "state tags are ASCII letters");
    usize::from(tag as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{AccessKind, Machine};
    use crate::ObserverConfig;
    use knl_arch::{ClusterMode, CoreId, MachineConfig, MemoryMode};

    fn sampled_machine(interval: SimTime) -> Machine {
        Machine::with_observer_config(
            MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Cache),
            ObserverConfig::default().telemetry(TelemetryConfig::every(interval)),
        )
    }

    fn drive(m: &mut Machine, n: u64) -> SimTime {
        let mut t = 0;
        for i in 0..n {
            let c = CoreId((i % 8 * 2) as u16);
            let a = 4096 + (i % 32) * 64;
            let kind = match i % 3 {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::NtStore,
            };
            t = m.access(c, a, kind, t).complete;
        }
        t
    }

    #[test]
    fn bin_window_agrees_with_division() {
        let mut w = BinWindow::new(100);
        assert!(w.holds(0) && w.holds(99) && !w.holds(100));
        assert_eq!(w.index, 0);
        for t in [100, 250, 249, 99, 0, u64::MAX, u64::MAX - 99, 1] {
            if !w.holds(t) {
                w.move_to(t);
            }
            assert!(w.holds(t), "{t}");
            assert_eq!(w.index, t / 100, "{t}");
        }
        // The last bin's window ends past `u64::MAX`; nothing wraps into it.
        w.move_to(u64::MAX);
        assert!(w.holds(u64::MAX) && !w.holds(0) && !w.holds(u64::MAX - 100));
    }

    #[test]
    fn sampler_is_a_pure_observer() {
        let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Cache);
        let mut plain = Machine::new(cfg);
        let mut sampled = sampled_machine(DEFAULT_INTERVAL_PS);
        plain.set_jitter(0);
        sampled.set_jitter(0);
        let tp = drive(&mut plain, 128);
        let ts = drive(&mut sampled, 128);
        assert_eq!(tp, ts);
        assert_eq!(plain.counters(), sampled.counters());
        let series = sampled.telemetry().expect("sampler attached").series();
        assert!(series.events > 0);
        assert!(series.end_ps > 0);
    }

    #[test]
    fn series_round_trips_and_merges() {
        let mut m = sampled_machine(1_000_000);
        m.set_jitter(0);
        drive(&mut m, 200);
        let sampler = m.take_telemetry().expect("sampler attached");
        let a = sampler.into_series();
        let mut text = String::new();
        a.serialize_into(&mut text);
        let mut b = TelemetrySeries::default();
        for line in text.lines() {
            assert!(b.parse_line(line), "unparsed: {line}");
        }
        assert_eq!(a, b);

        // Parsing the same text twice equals merging two copies.
        let mut twice = TelemetrySeries::default();
        for line in text.lines().chain(text.lines()) {
            assert!(twice.parse_line(line));
        }
        let mut merged = a.clone();
        assert!(merged.merge(&a));
        assert_eq!(twice, merged);
    }

    #[test]
    fn series_of_another_interval_is_refused_whole() {
        let parsed = |lines: &[&str]| {
            let mut s = TelemetrySeries::default();
            for line in lines {
                assert!(s.parse_line(line), "{line}");
            }
            s
        };
        let mut a = parsed(&["I 1000", "Q 0 4 10 2 3 4 5", "Z 9 99"]);
        let b = parsed(&["I 2000", "Q 0 4 1 0 0 0 0", "V 7 1 0 0 0 0 0 0", "Z 3 500"]);
        let before = a.clone();
        assert!(!a.merge(&b), "bins of 1000 ps and of 2000 ps do not add");
        assert_eq!(a, before);
        // No interval on one side is not a different interval.
        let c = parsed(&["Q 0 4 1 0 0 0 0", "Z 3 500"]);
        assert!(a.merge(&c));
        assert_eq!((a.interval_ps, a.events, a.end_ps), (1000, 12, 500));
        let mut fresh = TelemetrySeries::default();
        assert!(fresh.merge(&b));
        assert_eq!(fresh, b);
    }

    #[test]
    fn non_telemetry_lines_rejected() {
        let mut s = TelemetrySeries::default();
        assert!(!s.parse_line("# comment"));
        assert!(!s.parse_line(""));
        assert!(!s.parse_line("H M 4 1 2 3 4 0"));
        assert!(!s.parse_line("Q 7"));
        assert_eq!(s, TelemetrySeries::default());
        // An `I` line disagreeing with the set interval is rejected.
        assert!(s.parse_line("I 1000"));
        assert!(!s.parse_line("I 2000"));

        // A line of every tag cut short or holding a non-number, as the
        // last line of a truncated file would: rejected, nothing merged.
        for good in [
            "Q 0 4 10 2 3 4 5",
            "P 3 4 1 2 3",
            "G 4 S 1",
            "V 4 1 2 3 4 5 6 7",
            "Z 9 99",
        ] {
            assert!(s.parse_line(good), "{good}");
        }
        let before = s.clone();
        for bad in [
            "I",
            "I x",
            "Q 0 4 10 2 x",
            "Q 0 4 10 2 3 4",
            "Q 300 4 10 2 3 4 5",
            "P 3 4 1 2",
            "P 3 4 1 x 3",
            "G 4 S",
            "G 4 S x",
            "G 4",
            "G 4 SX 1",
            "V 4 1 2 3 4 5 6",
            "V 4 1 2 3 x 5 6 7",
            "V 5 1",
            "Z 9",
            "Z 9 x",
            // Rows no writer emits: more writes than enters, a peak depth
            // above the sum of depths.
            "Q 0 4 1 9 0 50 3",
            "Q 0 4 1 2 0 0 0",
            "Q 0 4 10 2 3 6 5",
            // One field too many, per tag.
            "I 1000 1",
            "Q 0 4 10 2 3 4 5 6",
            "P 3 4 1 2 3 4",
            "G 4 S 1 1",
            "V 4 1 2 3 4 5 6 7 8",
            "Z 9 99 1",
        ] {
            assert!(!s.parse_line(bad), "accepted: {bad}");
            assert_eq!(s, before, "half-merged: {bad}");
        }
    }

    #[test]
    fn census_prefix_sums_return_to_zero_after_reset() {
        let mut m = sampled_machine(1_000_000);
        m.set_jitter(0);
        drive(&mut m, 64);
        m.reset_caches();
        let series = m.take_telemetry().expect("sampler attached").into_series();
        for (state, steps) in series.census_timeline() {
            assert_eq!(
                steps.last().expect("nonempty timeline").1,
                0,
                "state {state} census must return to 0 after a reset"
            );
        }
    }

    #[test]
    fn prepared_lines_count_once_in_the_census() {
        // State preparation takes several directory steps (flush, first
        // reader, second reader); each must shift the census by its own
        // from → to, so one prepared line is one line in the census.
        use crate::directory::LineState;
        use crate::machine::prep_line;
        for (state, tag) in [
            (LineState::Modified, 'M'),
            (LineState::Exclusive, 'E'),
            (LineState::Shared, 'S'),
            (LineState::Forward, 'S'),
        ] {
            let mut m = sampled_machine(1_000_000);
            // A previous holder, so the preparation really has to flush.
            let helper = CoreId(20);
            let t = prep_line(&mut m, CoreId(8), helper, 1 << 16, LineState::Exclusive, 0);
            prep_line(&mut m, CoreId(0), helper, 1 << 16, state, t);
            let series = m.take_telemetry().expect("sampler attached").into_series();
            let census: Vec<(char, i64)> = series
                .census_timeline()
                .into_iter()
                .map(|(s, steps)| (s, steps.last().expect("nonempty timeline").1))
                .filter(|&(_, n)| n != 0)
                .collect();
            assert_eq!(census, [(tag, 1)], "prepared {state:?}");
        }
    }

    #[test]
    fn device_bins_balance_enters_and_leaves() {
        let mut m = sampled_machine(DEFAULT_INTERVAL_PS);
        m.set_jitter(0);
        drive(&mut m, 256);
        let series = m.take_telemetry().expect("sampler attached").into_series();
        let enters: u64 = series.dev_bins.iter().map(|(_, b)| b.enters).sum();
        let leaves: u64 = series.dev_bins.iter().map(|(_, b)| b.leaves).sum();
        assert!(enters > 0, "workload must touch memory devices");
        // Background memory-side-cache fills enter a queue without a
        // tracked departure, so departures can only undercount arrivals.
        assert!(leaves > 0 && leaves <= enters, "{leaves} vs {enters}");
    }
}
