//! Aggregated, mergeable metrics over the traced events:
//!
//! * latency histograms keyed by **(source tag, hop distance)** — the
//!   paper's Fig. 4 latency map decomposed by supplier MESIF state and
//!   mesh distance,
//! * per-tile serve counts by source class and per-device queue
//!   statistics (lines in/out, peak and mean estimated depth),
//! * a hot-line profile ([`HotLines`], exact, in the line-dense
//!   [`PagedLines`]), and
//! * protocol totals (directory transitions by `from→to` pair,
//!   invalidations, updates, write-backs, mcache hits/misses).
//!
//! Every row is a total over the whole run: when things happened is the
//! telemetry sampler's question ([`crate::telemetry`]), not this one's.
//! `Metrics` is plain sparse data ([`SortedVecMap`]s); the tracer counts
//! the per-tile, per-device and latency-histogram rows densely by id
//! (`MetricsFold`) and adds them to its `Metrics` when they are read.
//! Serialization is deterministic (ascending key order) and merging
//! additive, so `knl trace` can re-aggregate per-job sections in any
//! grouping with identical results.

use crate::engine::observe::{gstate_tag, src_index, ProtocolEvent, SRC_TAGS};
use crate::mesh::MAX_HOPS;
use crate::paged::PagedLines;
use crate::svmap::{OpenRow, SortedVecMap};
use crate::trace::{num, one_char, strict_line};
use crate::SimTime;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Log₂ latency-histogram bins (bin `k` covers `[2^(k-1), 2^k)` ns).
pub const HIST_BINS: usize = 28;

/// Hot lines retained when serializing (the in-memory profile is exact;
/// the serialized top-N is marked approximate after a merge).
pub const HOT_LINES_TOP: usize = 32;

/// One latency histogram: moments plus log₂ ns bins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Samples recorded.
    pub count: u64,
    /// Sum of latencies (ps).
    pub sum_ps: u64,
    /// Minimum latency (ps).
    pub min_ps: u64,
    /// Maximum latency (ps).
    pub max_ps: u64,
    /// Log₂ bins over nanoseconds.
    pub bins: [u64; HIST_BINS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum_ps: 0,
            min_ps: u64::MAX,
            max_ps: 0,
            bins: [0; HIST_BINS],
        }
    }
}

fn bin_of(ps: u64) -> usize {
    let ns = ps / 1000;
    ((u64::BITS - ns.leading_zeros()) as usize).min(HIST_BINS - 1)
}

impl Hist {
    /// Record one latency sample.
    pub fn add(&mut self, ps: SimTime) {
        self.count += 1;
        self.sum_ps += ps;
        self.min_ps = self.min_ps.min(ps);
        self.max_ps = self.max_ps.max(ps);
        self.bins[bin_of(ps)] += 1;
    }

    /// Mean latency in ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ps as f64 / self.count as f64 / 1000.0
        }
    }

    /// Approximate median in ns: upper edge of the bin holding the
    /// median sample.
    pub fn p50_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = self.count.div_ceil(2);
        let mut seen = 0;
        for (k, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= target {
                return (1u64 << k) as f64;
            }
        }
        self.max_ps as f64 / 1000.0
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, o: &Hist) {
        self.count += o.count;
        self.sum_ps += o.sum_ps;
        self.min_ps = self.min_ps.min(o.min_ps);
        self.max_ps = self.max_ps.max(o.max_ps);
        for (a, b) in self.bins.iter_mut().zip(o.bins.iter()) {
            *a += b;
        }
    }
}

/// Per-tile serve counts by source class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileStat {
    /// Requests served for cores of this tile.
    pub serves: u64,
    /// …from the core's own L1.
    pub l1: u64,
    /// …from the tile's L2.
    pub l2: u64,
    /// …forwarded from a remote tile's cache.
    pub remote: u64,
    /// …from a memory device (DDR or flat MCDRAM).
    pub mem: u64,
    /// …from the memory-side cache.
    pub mcache: u64,
}

impl TileStat {
    fn add(&mut self, o: &TileStat) {
        self.serves += o.serves;
        self.l1 += o.l1;
        self.l2 += o.l2;
        self.remote += o.remote;
        self.mem += o.mem;
        self.mcache += o.mcache;
    }
}

/// Per-device queue statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DevStat {
    /// Lines entering the read path.
    pub reads: u64,
    /// Lines entering the write path.
    pub writes: u64,
    /// Peak estimated queue depth observed at any arrival.
    pub depth_peak: u32,
    /// Sum of observed depths (mean = `depth_sum / (reads + writes)`).
    pub depth_sum: u64,
}

impl DevStat {
    fn add(&mut self, o: &DevStat) {
        self.reads += o.reads;
        self.writes += o.writes;
        self.depth_peak = self.depth_peak.max(o.depth_peak);
        self.depth_sum += o.depth_sum;
    }
}

/// Exact per-line access counts. Every line it holds has a count of at
/// least 1.
#[derive(Debug, Clone, Default)]
pub struct HotLines {
    counts: PagedLines<u64>,
}

impl HotLines {
    /// Count `n` more accesses to `line` (`n` ≥ 1).
    #[inline]
    pub fn add(&mut self, line: u64, n: u64) {
        debug_assert!(n > 0, "a held line has a count");
        *self.counts.get_or_insert_default(line) += n;
    }

    /// The count of `line` (0 for a line never added).
    pub fn get(&self, line: u64) -> u64 {
        self.counts.get(line).copied().unwrap_or(0)
    }

    /// Every `(line, count)`, in ascending line order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(line, &n)| (line, n))
    }

    /// The `top` hottest lines, sorted by (count desc, line asc): one pass
    /// that keeps the best `top` seen so far. No two lines tie in that
    /// order, so the best `top` are the same lines whatever order they are
    /// visited in, and the pass walks the profile in storage order rather
    /// than sorting it by line first.
    pub fn top(&self, top: usize) -> Vec<(u64, u64)> {
        let mut best: Vec<(u64, u64)> = Vec::new();
        if top == 0 {
            return best;
        }
        let rank = |line: u64, n: u64| (std::cmp::Reverse(n), line);
        self.counts.for_each_unordered(|line, &n| {
            if best.len() == top {
                let (worst, m) = best[top - 1];
                if rank(line, n) > rank(worst, m) {
                    return;
                }
                best.pop();
            }
            let at = best.partition_point(|&(l, m)| rank(l, m) < rank(line, n));
            best.insert(at, (line, n));
        });
        best
    }
}

/// Equal when they hold the same lines with the same counts, whatever the
/// order they were added in.
impl PartialEq for HotLines {
    fn eq(&self, o: &HotLines) -> bool {
        self.iter().eq(o.iter())
    }
}

impl Eq for HotLines {}

/// The tracer's fold: what each tile was served, what each device took
/// in and the latencies served, tallied in dense rows indexed by id, and
/// everything else straight in `closed`. A histogram cell is one (source
/// tag, hops) histogram. The rows are run totals; they are added to
/// `closed` when the tracer is detached ([`MetricsFold::fold_rows`]) and
/// to a copy of it when an attached tracer is read ([`MetricsFold::view`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct MetricsFold {
    tiles: OpenRow<TileStat>,
    devs: OpenRow<DevStat>,
    /// Indexed by [`hist_cell`]: at most [`SRC_TAGS`] × ([`MAX_HOPS`] + 1)
    /// cells.
    hist: OpenRow<Hist>,
    /// Everything folded so far but what the rows still hold.
    closed: Metrics,
}

/// The [`MetricsFold::hist`] cell of `(src, hops)`, hop-major so that no
/// hop count can alias another source tag.
#[inline]
fn hist_cell(src: char, hops: u32) -> usize {
    debug_assert!(hops <= MAX_HOPS, "{hops} hops is off the die");
    hops as usize * SRC_TAGS.len() + src_index(src)
}

impl MetricsFold {
    /// Fold one event from `tile`. Returns `false`, counting nothing, for
    /// what the trace format leaves out: state preparation and the
    /// checker's oracle events.
    pub(crate) fn fold(
        &mut self,
        tile: u16,
        time: SimTime,
        line: u64,
        event: &ProtocolEvent<'_>,
    ) -> bool {
        let m = &mut self.closed;
        match *event {
            ProtocolEvent::Issue { .. } => m.issues += 1,
            ProtocolEvent::Serve {
                src,
                hops,
                latency_ps,
                ..
            } => {
                m.hot_lines.add(line, 1);
                self.hist.cell(hist_cell(src, hops)).add(latency_ps);
                let t = self.tiles.cell(usize::from(tile));
                t.serves += 1;
                match src {
                    'L' => t.l1 += 1,
                    'T' => t.l2 += 1,
                    'M' | 'E' | 'S' | 'F' | 'O' => t.remote += 1,
                    'H' => t.mcache += 1,
                    _ => t.mem += 1,
                }
            }
            ProtocolEvent::Dir { from, entry, .. } => {
                *m.dir_transitions
                    .entry_or_default((from, gstate_tag(&entry.state))) += 1
            }
            ProtocolEvent::Hop { hops, .. } => m.mesh_hops += hops as u64,
            ProtocolEvent::DevEnter { dev, write, depth } => {
                let d = self.devs.cell(usize::from(dev));
                if write {
                    d.writes += 1;
                } else {
                    d.reads += 1;
                }
                d.depth_peak = d.depth_peak.max(depth);
                d.depth_sum += depth as u64;
            }
            ProtocolEvent::Mcache { hit: true, .. } => m.mcache_hits += 1,
            ProtocolEvent::Mcache { hit: false, .. } => m.mcache_misses += 1,
            ProtocolEvent::Inv { n } => m.invalidations += n as u64,
            ProtocolEvent::Update { n } => m.updates += n as u64,
            ProtocolEvent::Writeback { .. } => m.writebacks += 1,
            ProtocolEvent::DevLeave { .. } | ProtocolEvent::Mark { .. } => {}
            ProtocolEvent::CoherentRead { .. } | ProtocolEvent::NtStore => return false,
        }
        let m = &mut self.closed;
        m.events += 1;
        m.end_time = m.end_time.max(time);
        true
    }

    /// Add the rows to `closed`, leaving them empty.
    pub(crate) fn fold_rows(&mut self) {
        let m = &mut self.closed;
        self.hist.drain(|cell, h| {
            let key = (
                SRC_TAGS[cell % SRC_TAGS.len()],
                (cell / SRC_TAGS.len()) as u32,
            );
            m.hist.entry_or_default(key).merge(&h);
        });
        self.tiles
            .drain(|tile, t| m.tiles.entry_or_default(tile as u16).add(&t));
        self.devs
            .drain(|dev, d| m.devices.entry_or_default(dev as u8).add(&d));
    }

    /// The metrics, rows included: a copy with the rows added while any
    /// row holds a count (a tracer still attached to its machine),
    /// `closed` itself otherwise.
    pub(crate) fn view(&self) -> Cow<'_, Metrics> {
        if self.tiles.is_empty() && self.devs.is_empty() && self.hist.is_empty() {
            return Cow::Borrowed(&self.closed);
        }
        let mut rows = self.clone();
        rows.fold_rows();
        Cow::Owned(rows.closed)
    }
}

/// Aggregated, mergeable trace metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Latency histograms keyed by (source tag, hop distance).
    pub hist: SortedVecMap<(char, u32), Hist>,
    /// Per-tile serve breakdown.
    pub tiles: SortedVecMap<u16, TileStat>,
    /// Per-device queue statistics.
    pub devices: SortedVecMap<u8, DevStat>,
    /// Directory transitions by (from, to) state tag.
    pub dir_transitions: SortedVecMap<(char, char), u64>,
    /// Exact per-line access counts (pruned to a top-N on serialize).
    pub hot_lines: HotLines,
    /// Requests that left a tile for the home CHA.
    pub issues: u64,
    /// Invalidation messages.
    pub invalidations: u64,
    /// Update messages (update-based protocols).
    pub updates: u64,
    /// Write-backs.
    pub writebacks: u64,
    /// Memory-side cache hits.
    pub mcache_hits: u64,
    /// Memory-side cache misses.
    pub mcache_misses: u64,
    /// Mesh hops crossed (all legs).
    pub mesh_hops: u64,
    /// Events aggregated.
    pub events: u64,
    /// Latest event timestamp.
    pub end_time: SimTime,
}

impl Metrics {
    /// Merge another aggregation into this one (additive; order-free).
    pub fn merge(&mut self, o: &Metrics) {
        for (k, h) in &o.hist {
            self.hist.entry_or_default(*k).merge(h);
        }
        for (k, t) in &o.tiles {
            self.tiles.entry_or_default(*k).add(t);
        }
        for (k, s) in &o.devices {
            self.devices.entry_or_default(*k).add(s);
        }
        for (k, n) in &o.dir_transitions {
            *self.dir_transitions.entry_or_default(*k) += n;
        }
        for (line, n) in o.hot_lines.iter() {
            self.hot_lines.add(line, n);
        }
        self.issues += o.issues;
        self.invalidations += o.invalidations;
        self.updates += o.updates;
        self.writebacks += o.writebacks;
        self.mcache_hits += o.mcache_hits;
        self.mcache_misses += o.mcache_misses;
        self.mesh_hops += o.mesh_hops;
        self.events += o.events;
        self.end_time = self.end_time.max(o.end_time);
    }

    /// Hot lines sorted by (count desc, line asc), truncated to `top`.
    pub fn top_lines(&self, top: usize) -> Vec<(u64, u64)> {
        self.hot_lines.top(top)
    }

    /// Serialize as deterministic metric lines (see the format note in
    /// [`crate::trace`]): `H` histograms, `T` tiles, `D` devices, `X`
    /// directory transitions, `L` hot lines (top [`HOT_LINES_TOP`]), `C`
    /// scalar counters, `Z` trailer.
    pub fn serialize_into(&self, out: &mut String) {
        self.serialize_with(&self.top_lines(HOT_LINES_TOP), out);
    }

    /// [`Metrics::serialize_into`] with the `L` rows handed in (the fold
    /// oracle keeps its own line profile).
    pub(crate) fn serialize_with(&self, hot_lines: &[(u64, u64)], out: &mut String) {
        for ((src, hops), h) in &self.hist {
            let _ = write!(
                out,
                "H {src} {hops} {} {} {} {}",
                h.count, h.sum_ps, h.min_ps, h.max_ps
            );
            let mut bins = String::new();
            for (i, b) in h.bins.iter().enumerate() {
                if i > 0 {
                    bins.push(',');
                }
                let _ = write!(bins, "{b}");
            }
            let _ = writeln!(out, " {bins}");
        }
        for (tile, t) in &self.tiles {
            let _ = writeln!(
                out,
                "T {tile} {} {} {} {} {} {}",
                t.serves, t.l1, t.l2, t.remote, t.mem, t.mcache
            );
        }
        for (dev, d) in &self.devices {
            let _ = writeln!(
                out,
                "D {dev} {} {} {} {}",
                d.reads, d.writes, d.depth_peak, d.depth_sum
            );
        }
        for ((from, to), n) in &self.dir_transitions {
            let _ = writeln!(out, "X {from} {to} {n}");
        }
        for (line, n) in hot_lines {
            let _ = writeln!(out, "L {line:x} {n}");
        }
        let _ = writeln!(out, "C issues {}", self.issues);
        let _ = writeln!(out, "C inv {}", self.invalidations);
        let _ = writeln!(out, "C upd {}", self.updates);
        let _ = writeln!(out, "C wb {}", self.writebacks);
        let _ = writeln!(out, "C mc_hit {}", self.mcache_hits);
        let _ = writeln!(out, "C mc_miss {}", self.mcache_misses);
        let _ = writeln!(out, "C hops {}", self.mesh_hops);
        let _ = writeln!(out, "Z {} {}", self.events, self.end_time);
    }

    /// Parse one metric line, merging it into `self`. Returns `false` for
    /// lines that are not metric lines (events, comments, garbage, an
    /// unknown tag such as the time-binned `B` and `U` rows of older
    /// traces, a line with a missing, malformed or extra field) or rows no
    /// writer emits (an `L` count of zero; an `H` row whose bins do not sum
    /// to its nonzero count or whose minimum exceeds its maximum; a `T` row
    /// whose serves are not the sum of its sources; a `D` row whose peak
    /// depth exceeds its depth sum), and then leaves `self` untouched.
    pub fn parse_line(&mut self, line: &str) -> bool {
        strict_line(line, |tag, it, one: &mut Metrics| {
            match tag {
                "H" => {
                    let key = (one_char(it)?, num(it)?);
                    let mut h = Hist {
                        count: num(it)?,
                        sum_ps: num(it)?,
                        min_ps: num(it)?,
                        max_ps: num(it)?,
                        bins: [0; HIST_BINS],
                    };
                    let mut bins = it.next()?.split(',');
                    for b in &mut h.bins {
                        *b = bins.next()?.parse().ok()?;
                    }
                    let whole = h.count > 0 && h.min_ps <= h.max_ps && sums_to(&h.bins, h.count);
                    (bins.next().is_none() && whole).then_some(())?;
                    *one.hist.entry_or_default(key) = h;
                }
                "T" => {
                    let tile: u16 = num(it)?;
                    let t = TileStat {
                        serves: num(it)?,
                        l1: num(it)?,
                        l2: num(it)?,
                        remote: num(it)?,
                        mem: num(it)?,
                        mcache: num(it)?,
                    };
                    sums_to(&[t.l1, t.l2, t.remote, t.mem, t.mcache], t.serves).then_some(())?;
                    *one.tiles.entry_or_default(tile) = t;
                }
                "D" => {
                    let dev: u8 = num(it)?;
                    let d = DevStat {
                        reads: num(it)?,
                        writes: num(it)?,
                        depth_peak: num(it)?,
                        depth_sum: num(it)?,
                    };
                    (u64::from(d.depth_peak) <= d.depth_sum).then_some(())?;
                    *one.devices.entry_or_default(dev) = d;
                }
                "X" => {
                    let key = (one_char(it)?, one_char(it)?);
                    *one.dir_transitions.entry_or_default(key) = num(it)?;
                }
                "L" => {
                    // A line is held because it was added, so no writer
                    // emits a zero.
                    let l = u64::from_str_radix(it.next()?, 16).ok()?;
                    one.hot_lines.add(l, num(it).filter(|&n| n > 0)?);
                }
                "C" => {
                    let field = it.next()?;
                    let n = num(it)?;
                    *match field {
                        "issues" => &mut one.issues,
                        "inv" => &mut one.invalidations,
                        "upd" => &mut one.updates,
                        "wb" => &mut one.writebacks,
                        "mc_hit" => &mut one.mcache_hits,
                        "mc_miss" => &mut one.mcache_misses,
                        "hops" => &mut one.mesh_hops,
                        _ => return None,
                    } = n;
                }
                "Z" => {
                    one.events = num(it)?;
                    one.end_time = num(it)?;
                }
                _ => return None,
            }
            Some(())
        })
        .map(|one| self.merge(&one))
        .is_some()
    }

    /// Human-readable report (the `knl trace` default output).
    pub fn report(&self, top: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== knl trace report ==");
        let _ = writeln!(
            out,
            "events={} issues={} mesh_hops={} end_time={:.3} ms",
            self.events,
            self.issues,
            self.mesh_hops,
            self.end_time as f64 / 1e9
        );
        let _ = writeln!(
            out,
            "inv={} upd={} wb={} mcache={}h/{}m",
            self.invalidations, self.updates, self.writebacks, self.mcache_hits, self.mcache_misses
        );

        if !self.hist.is_empty() {
            let _ = writeln!(out, "\n-- latency by (source, hops) [ns] --");
            let _ = writeln!(
                out,
                "{:<6} {:>4} {:>10} {:>9} {:>9} {:>9} {:>9}",
                "source", "hops", "count", "mean", "p50", "min", "max"
            );
            for ((src, hops), h) in &self.hist {
                let _ = writeln!(
                    out,
                    "{:<6} {:>4} {:>10} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                    src_name(*src),
                    hops,
                    h.count,
                    h.mean_ns(),
                    h.p50_ns(),
                    h.min_ps as f64 / 1000.0,
                    h.max_ps as f64 / 1000.0
                );
            }
        }

        if !self.tiles.is_empty() {
            let _ = writeln!(out, "\n-- hot tiles (top {top}) --");
            let _ = writeln!(
                out,
                "{:<5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "tile", "serves", "l1", "l2", "remote", "mem", "mcache"
            );
            let mut tiles: Vec<(&u16, &TileStat)> = self.tiles.iter().collect();
            tiles.sort_by(|a, b| b.1.serves.cmp(&a.1.serves).then(a.0.cmp(b.0)));
            for (tile, t) in tiles.into_iter().take(top) {
                let _ = writeln!(
                    out,
                    "{:<5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    tile, t.serves, t.l1, t.l2, t.remote, t.mem, t.mcache
                );
            }
        }

        if !self.devices.is_empty() {
            let _ = writeln!(out, "\n-- devices --");
            let _ = writeln!(
                out,
                "{:<8} {:>10} {:>10} {:>10} {:>10}",
                "device", "reads", "writes", "peak_q", "mean_q"
            );
            for (dev, d) in &self.devices {
                let total = d.reads + d.writes;
                let mean_q = if total == 0 {
                    0.0
                } else {
                    d.depth_sum as f64 / total as f64
                };
                let _ = writeln!(
                    out,
                    "{:<8} {:>10} {:>10} {:>10} {:>10.1}",
                    dev_name(*dev),
                    d.reads,
                    d.writes,
                    d.depth_peak,
                    mean_q
                );
            }
        }

        if !self.dir_transitions.is_empty() {
            let _ = writeln!(out, "\n-- directory transitions --");
            for ((from, to), n) in &self.dir_transitions {
                let _ = writeln!(out, "{from}->{to} {n}");
            }
        }

        let lines = self.top_lines(top);
        if !lines.is_empty() {
            let _ = writeln!(out, "\n-- hot lines (top {top}) --");
            for (line, n) in lines {
                let _ = writeln!(out, "{:#014x} {n}", line << 6);
            }
        }
        out
    }

    /// The latency histogram as CSV (`src,hops,count,mean_ns,...`).
    pub fn latency_csv(&self) -> String {
        let mut out = String::from("source,hops,count,mean_ns,p50_ns,min_ns,max_ns\n");
        for ((src, hops), h) in &self.hist {
            let _ = writeln!(
                out,
                "{},{},{},{:.2},{:.2},{:.2},{:.2}",
                src_name(*src),
                hops,
                h.count,
                h.mean_ns(),
                h.p50_ns(),
                h.min_ps as f64 / 1000.0,
                h.max_ps as f64 / 1000.0
            );
        }
        out
    }
}

/// Human name of a source tag.
pub fn src_name(src: char) -> &'static str {
    match src {
        'L' => "L1",
        'T' => "L2",
        'M' => "c2c-M",
        'E' => "c2c-E",
        'S' => "c2c-S",
        'F' => "c2c-F",
        'O' => "c2c-O",
        'D' => "ddr",
        'C' => "mcdram",
        'H' => "mcache",
        _ => "?",
    }
}

/// Whether `parts` add up to `total` (without overflowing).
fn sums_to(parts: &[u64], total: u64) -> bool {
    parts.iter().try_fold(0u64, |a, &b| a.checked_add(b)) == Some(total)
}

/// Human name of a device index (0–5 DDR channels, 6+ EDCs).
pub fn dev_name(dev: u8) -> String {
    if dev < 6 {
        format!("ddr{dev}")
    } else {
        format!("edc{}", dev - 6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::DirEntry;
    use crate::engine::observe::EventContext;
    use crate::protocol::{transition, Request};
    use crate::trace::{TraceLevel, Tracer};
    use knl_arch::{ProtocolKind, TileId};

    /// Fold `(time, tile, line, event)`s through a tracer, as the hub hands
    /// them over.
    fn folded(events: &[(SimTime, u16, u64, ProtocolEvent<'_>)]) -> Metrics {
        let mut tracer = Tracer::new(TraceLevel::Summary);
        for (time, tile, line, event) in events {
            let ctx = EventContext {
                thread: 0,
                tile: *tile,
            };
            tracer.on_event(ctx, *time, *line, event);
        }
        tracer.metrics().into_owned()
    }

    fn serve(src: char, hops: u32, latency_ps: u64) -> ProtocolEvent<'static> {
        ProtocolEvent::Serve {
            op: 'R',
            src,
            hops,
            latency_ps,
        }
    }

    #[test]
    fn histogram_moments() {
        let m = folded(&[
            (0, 0, 1, serve('M', 4, 100_000)),
            (10, 0, 1, serve('M', 4, 120_000)),
            (20, 0, 2, serve('E', 4, 80_000)),
        ]);
        let h = &m.hist[&('M', 4)];
        assert_eq!(h.count, 2);
        assert_eq!(h.min_ps, 100_000);
        assert_eq!(h.max_ps, 120_000);
        assert!((h.mean_ns() - 110.0).abs() < 1e-9);
        assert_eq!(m.hist.len(), 2);
        assert_eq!(m.tiles[&0].remote, 3);
        assert_eq!(m.hot_lines.get(1), 2);
    }

    #[test]
    fn serialize_parse_merge_round_trip() {
        let mut e = DirEntry::default();
        let out = transition(ProtocolKind::Mesif, &mut e, Request::Read, TileId(3));
        let dir = ProtocolEvent::Dir {
            from: 'U',
            request: Request::Read,
            tile: TileId(3),
            out,
            entry: &e,
        };
        let a = folded(&[
            (1_000, 3, 0x40, serve('M', 6, 107_000)),
            (
                2_000,
                3,
                0x40,
                ProtocolEvent::DevEnter {
                    dev: 7,
                    write: false,
                    depth: 5,
                },
            ),
            (2_500, 3, 0x40, dir),
            (3_000, 3, 0x41, ProtocolEvent::Inv { n: 2 }),
        ]);
        assert_eq!(a.dir_transitions[&('U', 'E')], 1);
        let mut s = String::new();
        a.serialize_into(&mut s);
        let mut b = Metrics::default();
        for line in s.lines() {
            assert!(b.parse_line(line), "unparsed: {line}");
        }
        assert_eq!(a, b);

        // Parsing the same text twice equals merging two copies.
        let mut twice = Metrics::default();
        for line in s.lines().chain(s.lines()) {
            assert!(twice.parse_line(line));
        }
        let mut merged = a.clone();
        merged.merge(&a);
        assert_eq!(twice, merged);
    }

    #[test]
    fn non_metric_lines_rejected() {
        let mut m = Metrics::default();
        assert!(!m.parse_line("# comment"));
        assert!(!m.parse_line("E 1 0 0 40 iss R"));
        assert!(!m.parse_line(""));
        assert!(!m.parse_line("H M"));
        assert_eq!(m, Metrics::default());

        // A line of every tag cut short or holding a non-number, as the
        // last line of a truncated file would: rejected, nothing merged.
        // `BINS` stands for a full list of histogram bins holding one
        // sample in bin 0, `ZEROS` for one holding none.
        let bins = format!("1{}", ",0".repeat(HIST_BINS - 1));
        let zeros = ["0"; HIST_BINS].join(",");
        let line = |row: &str| row.replace("BINS", &bins).replace("ZEROS", &zeros);
        for good in [
            "H M 4 1 900 900 900 BINS",
            "T 3 7 1 2 3 1 0",
            "D 1 5 6 7 8",
            "X S M 2",
            "L 40 3",
            "C inv 2",
            "Z 9 99",
        ] {
            assert!(m.parse_line(&line(good)), "{good}");
        }
        let before = m.clone();
        for bad in [
            "H M 4 1 2 3 4",
            "H M 4 1 2 3 4 0,0,1",
            "H M 4 1 2 3 4 BINS,0",
            "H M 4 1 2 3 4 x",
            "H M 4 1 x 3 4 BINS",
            "T 3 7 x y z a b",
            "T 3 7 1 2 3 1",
            "T 3 7 1 2 3 1 0 0",
            "D 1 5 6 7",
            "D 1 5 x 7 8",
            "D 2 5",
            "X S M",
            "X S M x",
            "L 40",
            "L 40 x",
            "L zz 3",
            // A count no writer emits: a line that was never added.
            "L 40 0",
            // The per-bin device and tile rows of older traces: time
            // resolution is the telemetry's, a trace holds run totals.
            "B 1 4 9",
            "U 3 4 9",
            // Rows no writer emits: bins that do not add up to the count,
            // an empty histogram, a minimum above the maximum, serves that
            // are not the sum of their sources, a peak depth above the sum
            // of depths.
            "H M 4 1 2 3 4 ZEROS",
            "H M 4 2 900 900 900 BINS",
            "H M 4 0 0 0 0 ZEROS",
            "H M 4 1 900 901 900 BINS",
            "T 3 7 1 2 3 0 0",
            "T 3 18446744073709551615 1 18446744073709551615 0 0 0",
            "D 1 5 6 9 8",
            "C inv",
            "C inv x",
            "C nosuch 2",
            "Z 9",
            "Z 9 x",
            // A one-character field holding a longer token.
            "H MX 4 1 900 900 900 BINS",
            "X SM Mq 2",
            "X S Mq 2",
            // One field too many, per tag.
            "H M 4 1 900 900 900 BINS extra",
            "D 1 5 6 7 8 9",
            "X S M 2 2",
            "L 40 3 3",
            "C inv 2 2",
            "Z 9 99 1",
        ] {
            assert!(!m.parse_line(&line(bad)), "accepted: {bad}");
            assert_eq!(m, before, "half-merged: {bad}");
        }
    }

    #[test]
    fn report_and_csv_nonempty() {
        let m = folded(&[(5_000, 1, 0x99, serve('S', 3, 55_000))]);
        let rep = m.report(8);
        assert!(rep.contains("latency by (source, hops)"));
        assert!(rep.contains("c2c-S"));
        let csv = m.latency_csv();
        assert!(csv.starts_with("source,hops,count"));
        assert!(csv.contains("c2c-S,3,1"));
    }

    #[test]
    fn owned_state_renders_and_classifies_like_other_remote_sources() {
        // The O protocols (MOESI, Dragon) serve reads from an Owned copy;
        // reports must name the state correctly and count it as a remote
        // cache-to-cache serve, not fall through to the "?" bucket.
        assert_eq!(src_name('O'), "c2c-O");
        let m = folded(&[
            (5_000, 2, 0x77, serve('O', 3, 80_000)),
            (6_000, 2, 0x77, ProtocolEvent::Update { n: 3 }),
        ]);
        assert_eq!(m.tiles.get(&2).unwrap().remote, 1);
        assert_eq!(m.updates, 3);
        let rep = m.report(4);
        assert!(rep.contains("c2c-O"), "{rep}");
        assert!(rep.contains("upd=3"), "{rep}");
        let mut text = String::new();
        m.serialize_into(&mut text);
        let mut back = Metrics::default();
        for line in text.lines() {
            assert!(back.parse_line(line), "unparsed: {line}");
        }
        assert_eq!(back.updates, 3);
    }

    /// The reference top-k for [`HotLines::top`], an ascending scan: lines
    /// arrive in ascending order, so a line displaces the current worst
    /// only with a strictly greater count, and joins behind the lines of
    /// its own count.
    fn top_by_ascending_scan(hot: &HotLines, top: usize) -> Vec<(u64, u64)> {
        let mut best: Vec<(u64, u64)> = Vec::new();
        if top == 0 {
            return best;
        }
        for (line, n) in hot.iter() {
            if best.len() == top {
                if n <= best[top - 1].1 {
                    continue;
                }
                best.pop();
            }
            let at = best.partition_point(|&(_, m)| m >= n);
            best.insert(at, (line, n));
        }
        best
    }

    #[test]
    fn order_free_top_equals_the_ascending_scan() {
        use knl_arch::SplitMixRng;
        for seed in [3u64, 0x70_9A, 0xDEAD_BEEF] {
            let mut rng = SplitMixRng::seed_from_u64(seed);
            let mut hot = HotLines::default();
            // Pages 0–8 created in order, so page 8 opens the second chunk;
            // lines 63 and 64 tie across that page and chunk boundary, as do
            // 7 and 8 across a page boundary inside the first chunk.
            for page in 0..9u64 {
                hot.add(page << 3 | 3, 1);
            }
            for line in [7, 8, 63, 64] {
                hot.add(line, 40);
            }
            // Then ~60 more pages in random order (three more chunks),
            // counts drawn from a narrow range so that ties straddle every
            // cut, and a few lines far away.
            for _ in 0..3000 {
                let line = match rng.range_u32(0, 20) {
                    0 => rng.next_u64() >> 8,
                    _ => rng.range_u64(9 * 8, 70 * 8),
                };
                hot.add(line, rng.range_u64(1, 3));
            }
            let held = hot.iter().count();
            assert!(held > 2 * HOT_LINES_TOP, "seed {seed}");
            assert_eq!(hot.top(4), [(7, 40), (8, 40), (63, 40), (64, 40)]);
            for top in [0, 1, 2, 3, 4, HOT_LINES_TOP, held, held + 1, usize::MAX] {
                let want = top_by_ascending_scan(&hot, top);
                assert_eq!(hot.top(top), want, "seed {seed}, top {top}");
                assert_eq!(want.len(), top.min(held));
            }
        }
    }

    #[test]
    fn top_lines_order_is_deterministic() {
        let m = folded(&[
            (0, 0, 7, serve('L', 0, 1_000)),
            (1, 0, 5, serve('L', 0, 1_000)),
            (2, 0, 5, serve('L', 0, 1_000)),
            (3, 0, 9, serve('L', 0, 1_000)),
        ]);
        assert_eq!(m.top_lines(3), vec![(5, 2), (7, 1), (9, 1)]);
    }
}
