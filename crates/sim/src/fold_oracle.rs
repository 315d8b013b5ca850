//! The reference the observers' fold is tested against.
//!
//! [`MetricsOracle`] and [`SamplerOracle`] fold an event the way the
//! tracer and the telemetry sampler did before they tallied in dense rows:
//! one `entry_or_default` search per event straight into the sparse maps
//! (the sampler's keyed by bin, one division per event), hot lines in a
//! `BTreeMap` that is collected and sorted to find the top N; the metrics
//! oracle also takes each event through its `EventKind` translation
//! first. Slow and obviously right. The tests feed seeded random spine
//! events to an oracle and to the real observer and require the same
//! serialized bytes — mid-stream, while rows hold counts, and at the end.

use crate::directory::{DirEntry, GlobalState, LineState};
use crate::engine::observe::{gstate_tag, EventContext, ProtocolEvent, SRC_TAGS};
use crate::mesh::MAX_HOPS;
use crate::metrics::{Metrics, HOT_LINES_TOP};
use crate::protocol::{Outcome, Request};
use crate::svmap::SortedVecMap;
use crate::telemetry::{TelemetryConfig, TelemetrySampler, TelemetrySeries};
use crate::trace::{EventKind, TraceEvent, TraceLevel, Tracer};
use crate::SimTime;
use knl_arch::{SplitMixRng, TileId};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The tracer's metrics, folded per event.
#[derive(Default)]
struct MetricsOracle {
    /// Everything but the line profile.
    m: Metrics,
    hot_lines: BTreeMap<u64, u64>,
}

impl MetricsOracle {
    fn record(&mut self, ev: &TraceEvent) {
        let m = &mut self.m;
        m.events += 1;
        m.end_time = m.end_time.max(ev.time);
        match ev.kind {
            EventKind::Issue { .. } => m.issues += 1,
            EventKind::Serve {
                src,
                hops,
                latency_ps,
                ..
            } => {
                m.hist.entry_or_default((src, hops)).add(latency_ps);
                let t = m.tiles.entry_or_default(ev.tile);
                t.serves += 1;
                match src {
                    'L' => t.l1 += 1,
                    'T' => t.l2 += 1,
                    'M' | 'E' | 'S' | 'F' | 'O' => t.remote += 1,
                    'H' => t.mcache += 1,
                    _ => t.mem += 1,
                }
                *self.hot_lines.entry(ev.line).or_default() += 1;
            }
            EventKind::Dir { from, to, .. } => {
                *m.dir_transitions.entry_or_default((from, to)) += 1;
            }
            EventKind::Hop { hops, .. } => m.mesh_hops += hops as u64,
            EventKind::DevEnter { dev, write, depth } => {
                let d = m.devices.entry_or_default(dev);
                if write {
                    d.writes += 1;
                } else {
                    d.reads += 1;
                }
                d.depth_peak = d.depth_peak.max(depth);
                d.depth_sum += depth as u64;
            }
            EventKind::DevLeave { .. } => {}
            EventKind::Mcache { hit, .. } => {
                if hit {
                    m.mcache_hits += 1;
                } else {
                    m.mcache_misses += 1;
                }
            }
            EventKind::Inv { n } => m.invalidations += n as u64,
            EventKind::Update { n } => m.updates += n as u64,
            EventKind::Writeback => m.writebacks += 1,
            EventKind::Mark { .. } => {}
        }
    }

    /// Hot lines sorted by (count desc, line asc), truncated to `top`.
    fn top_lines(&self, top: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.hot_lines.iter().map(|(&l, &n)| (l, n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(top);
        v
    }

    fn serialized(&self) -> String {
        let mut out = String::new();
        self.m
            .serialize_with(&self.top_lines(HOT_LINES_TOP), &mut out);
        out
    }
}

/// The telemetry sampler, folded per event.
struct SamplerOracle {
    interval_ps: SimTime,
    tile: u16,
    live_census: SortedVecMap<char, i64>,
    last_ps: SimTime,
    series: TelemetrySeries,
}

impl SamplerOracle {
    fn new(interval_ps: SimTime) -> Self {
        SamplerOracle {
            interval_ps,
            tile: 0,
            live_census: SortedVecMap::new(),
            last_ps: 0,
            series: TelemetrySeries::with_interval(interval_ps),
        }
    }

    fn census_shift(&mut self, bin: u64, from: char, to: char) {
        if from == to {
            return;
        }
        if from != 'U' {
            *self.series.census.entry_or_default((bin, from)) -= 1;
            *self.live_census.entry_or_default(from) -= 1;
        }
        if to != 'U' {
            *self.series.census.entry_or_default((bin, to)) += 1;
            *self.live_census.entry_or_default(to) += 1;
        }
    }

    fn on_event(&mut self, time: SimTime, event: &ProtocolEvent<'_>) {
        self.series.events += 1;
        self.series.end_ps = self.series.end_ps.max(time);
        self.last_ps = self.last_ps.max(time);
        let bin = time / self.interval_ps;
        let series = &mut self.series;
        match *event {
            ProtocolEvent::Issue { .. } => {
                series.tile_bins.entry_or_default((self.tile, bin)).issues += 1;
            }
            ProtocolEvent::Serve { latency_ps, .. } => {
                let t = series.tile_bins.entry_or_default((self.tile, bin));
                t.serves += 1;
                t.serve_ps += latency_ps;
            }
            ProtocolEvent::Dir { from, entry, .. } => {
                self.census_shift(bin, from, gstate_tag(&entry.state));
            }
            ProtocolEvent::Hop { hops, .. } => {
                series.rates.entry_or_default(bin).hops += hops as u64;
            }
            ProtocolEvent::DevEnter { dev, write, depth } => {
                let d = series.dev_bins.entry_or_default((dev, bin));
                d.enters += 1;
                if write {
                    d.writes += 1;
                }
                d.depth_peak = d.depth_peak.max(depth);
                d.depth_sum += depth as u64;
            }
            ProtocolEvent::DevLeave { dev } => {
                series.dev_bins.entry_or_default((dev, bin)).leaves += 1;
            }
            ProtocolEvent::Mcache { hit, .. } => {
                let r = series.rates.entry_or_default(bin);
                if hit {
                    r.mc_hit += 1;
                } else {
                    r.mc_miss += 1;
                }
            }
            ProtocolEvent::Inv { n } => series.rates.entry_or_default(bin).inv += n as u64,
            ProtocolEvent::Update { n } => series.rates.entry_or_default(bin).upd += n as u64,
            ProtocolEvent::Writeback { external } => {
                let r = series.rates.entry_or_default(bin);
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

    fn on_reset(&mut self) {
        let bin = self.last_ps / self.interval_ps;
        let held: Vec<(char, i64)> = self
            .live_census
            .iter()
            .map(|(&s, &n)| (s, n))
            .filter(|&(_, n)| n != 0)
            .collect();
        for (s, n) in held {
            *self.series.census.entry_or_default((bin, s)) -= n;
        }
        self.live_census = SortedVecMap::new();
    }

    fn serialized(&self) -> String {
        let mut out = String::new();
        self.series.serialize_into(&mut out);
        out
    }
}

/// Event times for a bin width of `interval`: mostly a walk back and forth
/// across one bin boundary, sometimes a jump to another boundary (earlier
/// ones too), rarely the far end of the clock.
struct Clock {
    interval: SimTime,
    boundary: SimTime,
}

impl Clock {
    fn next(&mut self, rng: &mut SplitMixRng) -> SimTime {
        match rng.next_u64() % 64 {
            0 => u64::MAX - rng.next_u64() % 3,
            1..=5 => {
                self.boundary = (1 + rng.next_u64() % 6) * self.interval;
                self.boundary
            }
            _ => (self.boundary + rng.next_u64() % 5).saturating_sub(2),
        }
    }
}

fn pick<T: Copy>(rng: &mut SplitMixRng, of: &[T]) -> T {
    of[(rng.next_u64() % of.len() as u64) as usize]
}

const TILES: [u16; 5] = [0, 1, 18, 37, u16::MAX];
const DEVS: [u8; 5] = [0, 5, 6, 13, u8::MAX];

/// A directory entry in each global state.
fn entries() -> [DirEntry; 5] {
    let owner = TileId(3);
    [
        GlobalState::Uncached,
        GlobalState::Exclusive { owner },
        GlobalState::Modified { owner },
        GlobalState::Shared { forward: None },
        GlobalState::Owned { owner },
    ]
    .map(|state| DirEntry {
        state,
        ..DirEntry::default()
    })
}

/// A `Dir` step into `entry` from state `from`; the tracer and the sampler
/// read the two state tags, nothing else.
fn dir(from: char, entry: &DirEntry) -> ProtocolEvent<'_> {
    ProtocolEvent::Dir {
        from,
        request: Request::Read,
        tile: TileId(3),
        out: Outcome {
            requester: LineState::Shared,
            writeback: false,
            invalidated: 0,
            updated: 0,
        },
        entry,
    }
}

/// A random spine event of every kind, each field over the values that
/// matter to a fold: every source tag, hop counts over the whole die with
/// its two ends drawn often (the corners of the tracer's dense histogram
/// row), zero counts, ids at the `u8` extreme, `Dir` steps between any two
/// states (`U → U` and `S → S` included), and the checker's oracle events.
fn random_event<'a>(rng: &mut SplitMixRng, entries: &'a [DirEntry]) -> ProtocolEvent<'a> {
    match rng.next_u64() % 16 {
        0 => ProtocolEvent::Issue { op: 'R' },
        1..=4 => ProtocolEvent::Serve {
            op: 'R',
            src: pick(rng, &SRC_TAGS),
            hops: match rng.next_u64() % 4 {
                0 => 0,
                1 => MAX_HOPS,
                _ => rng.next_u32() % (MAX_HOPS + 1),
            },
            latency_ps: rng.next_u64() % 300_000,
        },
        5..=6 => dir(
            pick(rng, &['U', 'E', 'M', 'S', 'O']),
            &entries[(rng.next_u64() % 5) as usize],
        ),
        7 => ProtocolEvent::Hop {
            leg: 'q',
            hops: rng.next_u32() % 2 * 5,
        },
        8 => ProtocolEvent::DevEnter {
            dev: pick(rng, &DEVS),
            write: rng.next_u64().is_multiple_of(2),
            depth: rng.next_u32() % 40,
        },
        9 => ProtocolEvent::DevLeave {
            dev: pick(rng, &DEVS),
        },
        10 => ProtocolEvent::Mcache {
            edc: 1,
            hit: rng.next_u64().is_multiple_of(2),
        },
        11 => ProtocolEvent::Inv {
            n: rng.next_u32() % 2 * 3,
        },
        12 => ProtocolEvent::Update {
            n: rng.next_u32() % 2,
        },
        13 => ProtocolEvent::Writeback {
            external: rng.next_u64().is_multiple_of(2),
        },
        14 => ProtocolEvent::Mark { id: 1, start: true },
        _ if rng.next_u64().is_multiple_of(2) => ProtocolEvent::NtStore,
        _ => ProtocolEvent::CoherentRead { from_memory: true },
    }
}

#[test]
fn tracer_fold_serializes_like_the_per_event_oracle() {
    // The trace holds run totals, so when a run happened is not in it: the
    // same events a million 100 µs bins later serialize to the same bytes.
    // A last event at the top of the clock in both runs makes their
    // trailers' end times agree too.
    const SHIFT: SimTime = 1_000_000 * 100_000_000;
    let entries = entries();
    for seed in 0..8u64 {
        let [drawn, shifted] = [0, SHIFT].map(|shift| {
            let mut rng = SplitMixRng::seed_from_u64(0x7ace + seed);
            let mut tracer = Tracer::new(TraceLevel::Summary);
            let mut oracle = MetricsOracle::default();
            // Sixty lines over a few pages, so counts tie far past the top 32,
            // and the occasional line anywhere in the address space.
            let line_of = |rng: &mut SplitMixRng| match rng.next_u64() % 16 {
                0 => rng.next_u64() >> 6,
                _ => 0x4_0000 + rng.next_u64() % 60,
            };
            let last = ProtocolEvent::Mark {
                id: 1,
                start: false,
            };
            for step in 0..=4000 {
                let (tile, thread) = (pick(&mut rng, &TILES), rng.next_u32() % 4);
                let mut event = random_event(&mut rng, &entries);
                let (mut time, line) = ((rng.next_u64() >> 24) + shift, line_of(&mut rng));
                if step == 4000 {
                    (time, event) = (SimTime::MAX, last);
                }
                tracer.on_event(EventContext { thread, tile }, time, line, &event);
                if let Some(kind) = EventKind::of(&event) {
                    oracle.record(&TraceEvent {
                        time,
                        thread,
                        tile,
                        line,
                        kind,
                    });
                }
                // Read through the still-attached tracer: the rows count.
                if step % 500 == 499 {
                    let mut got = String::new();
                    tracer.metrics().serialize_into(&mut got);
                    assert_eq!(got, oracle.serialized(), "seed {seed}, step {step}");
                }
            }
            assert!(oracle.hot_lines.len() > HOT_LINES_TOP);
            let first_and_last = [SRC_TAGS[0], SRC_TAGS[SRC_TAGS.len() - 1]];
            for key in first_and_last
                .map(|src| [(src, 0), (src, MAX_HOPS)])
                .concat()
            {
                assert!(oracle.m.hist.get(&key).is_some(), "seed {seed}: {key:?}");
            }
            tracer.fold_rows();
            assert!(matches!(tracer.metrics(), Cow::Borrowed(_)));
            let mut got = String::new();
            tracer.serialize_into(&mut got);
            let want = format!("# level=summary\n{}", oracle.serialized());
            assert_eq!(got, want, "seed {seed}");
            got
        });
        assert_eq!(
            drawn, shifted,
            "seed {seed}: the trace moved with the clock"
        );
    }
}

#[test]
fn top_lines_cut_inside_a_run_of_ties_keeps_the_lowest_lines() {
    // Forty lines of count 2 and three of count 3, added from the highest
    // line down: the cut at 32 falls among the ties and keeps the lowest.
    let mut tracer = Tracer::new(TraceLevel::Summary);
    let mut oracle = MetricsOracle::default();
    let serve = ProtocolEvent::Serve {
        op: 'R',
        src: 'D',
        hops: 1,
        latency_ps: 90_000,
    };
    let ctx = EventContext::default();
    let lines = (0..40u64).rev().map(|i| 0x1000 + 3 * i);
    for line in lines
        .clone()
        .chain(lines)
        .chain([0x1000 + 39 * 3, 0x1003, 0x2000])
    {
        tracer.on_event(ctx, 7, line, &serve);
        oracle.record(&TraceEvent {
            time: 7,
            thread: ctx.thread,
            tile: ctx.tile,
            line,
            kind: EventKind::of(&serve).expect("a serve is traced"),
        });
    }
    let top = tracer.metrics().top_lines(HOT_LINES_TOP);
    assert_eq!(top, oracle.top_lines(HOT_LINES_TOP));
    assert_eq!(top[..2], [(0x1003, 3), (0x1000 + 39 * 3, 3)]);
    assert_eq!(top[2], (0x1000, 2));
    assert_eq!(top[31], (0x1000 + 3 * 30, 2));
    for n in [0, 1, 2, 41, 42, usize::MAX] {
        assert_eq!(
            tracer.metrics().top_lines(n),
            oracle.top_lines(n),
            "top {n}"
        );
    }
}

#[test]
fn sampler_fold_serializes_like_the_per_event_oracle() {
    let entries = entries();
    for (seed, interval) in [
        (0u64, 1),
        (1, 7),
        (2, 1_000),
        (3, 100_000_000),
        (4, 1 << 40),
    ] {
        let mut rng = SplitMixRng::seed_from_u64(0x5a3b + seed);
        let mut clock = Clock {
            interval,
            boundary: interval,
        };
        let mut sampler = TelemetrySampler::new(TelemetryConfig::every(interval));
        let mut oracle = SamplerOracle::new(interval);
        // In bins the clock never visits: a census shift undone in the same
        // bin and two rate events that add nothing. The cells were touched,
        // so their rows are written, `G 19 S 0` and `V 20 0 0 0 0 0 0 0`.
        let (to_s, to_u) = (&entries[3], &entries[0]);
        for (bin, event) in [
            (19, dir('U', to_s)),
            (19, dir('S', to_u)),
            (20, ProtocolEvent::Hop { leg: 'q', hops: 0 }),
            (20, ProtocolEvent::Inv { n: 0 }),
        ] {
            sampler.on_event(0, bin * interval, &event);
            oracle.on_event(bin * interval, &event);
        }
        for step in 0..4000 {
            let event = random_event(&mut rng, &entries);
            let tile = pick(&mut rng, &TILES);
            oracle.tile = tile;
            let time = clock.next(&mut rng);
            sampler.on_event(tile, time, &event);
            oracle.on_event(time, &event);
            // A reset wherever the clock happens to be, mid-bin.
            if rng.next_u64().is_multiple_of(97) {
                sampler.on_reset();
                oracle.on_reset();
            }
            // Read through the still-attached sampler: the open bin counts.
            if step % 500 == 499 {
                let mut got = String::new();
                sampler.series().serialize_into(&mut got);
                let at = format!("interval {interval}, step {step}");
                assert_eq!(got, oracle.serialized(), "{at}");
            }
        }
        let text = oracle.serialized();
        assert!(text.contains("\nV 20 0 0 0 0 0 0 0\n"), "{text}");
        assert!(text.contains("\nG 19 S 0\n"), "{text}");
        let mut got = String::new();
        sampler.serialize_into(&mut got);
        assert_eq!(got, text, "interval {interval}, serialized while attached");
        sampler.close_bin();
        assert!(matches!(sampler.series(), Cow::Borrowed(_)));
        assert_eq!(Box::new(sampler).into_series(), oracle.series);
    }
}
