//! The observer-hub contract: checker, tracer, analyzer pre-pass and
//! telemetry sampler ride one event spine and are *pure* observers. Turning
//! them on at once must not move a single bit of simulated output — end
//! times, per-iteration durations, hardware counters, and (across `--jobs`
//! worker counts) the merged trace bytes are compared against the empty-hub
//! run — and what they write is pinned byte-for-byte in
//! `tests/golden/observed_transfer.txt` (one ping-ponged line, every event
//! kind) and `tests/golden/observed_stream.txt` (streams: many bins, many
//! lines, a reset in the middle). On both workloads the tracer's and the
//! sampler's totals must reconcile: they fold the same events.

#[path = "common/golden.rs"]
mod golden;

use golden::assert_golden;
use knl::arch::{ClusterMode, CoreId, MachineConfig, MemoryMode, ProtocolKind, Schedule};
use knl::benchsuite::cachebw::copy_bandwidth;
use knl::benchsuite::membw::{bandwidth_sample, Target};
use knl::benchsuite::{pointer_chase, SuiteParams, SweepExecutor};
use knl::sim::{
    AnalyzeLevel, CheckLevel, Counters, LineState, Machine, Metrics, ObserverConfig, Runner,
    StreamKind, TelemetryConfig, TelemetrySeries, TraceLevel,
};
use std::fmt::Write as _;

const ITERS: usize = 5;

fn configs() -> Vec<MachineConfig> {
    vec![
        // All flat-mode (the transfer workload's flag line sits at 1 GiB,
        // just past cache mode's addressable DDR range).
        MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat),
        MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat),
        MachineConfig::knl7210(ClusterMode::A2A, MemoryMode::Flat),
    ]
}

fn all_on() -> ObserverConfig {
    ObserverConfig::default()
        .check(CheckLevel::FullOracle)
        .trace(TraceLevel::Full)
        .analyze(AnalyzeLevel::Error)
}

/// Everything an observer could have perturbed, plus what the detached
/// tracer and telemetry sampler serialize to (`None` when that one was off).
struct Observed {
    end_time: u64,
    durations: Vec<Option<u64>>,
    counters: Counters,
    trace: Option<String>,
    telemetry: Option<String>,
}

/// Run the ownership-transfer workload on a fresh machine under `oc`.
fn run_case(cfg: &MachineConfig, oc: ObserverConfig) -> Observed {
    let mut m = Machine::with_observer_config(cfg.clone(), oc);
    let programs = pointer_chase::transfer_programs(CoreId(8), CoreId(0), ITERS);
    let result = Runner::new(&mut m, programs).run();
    let durations: Vec<_> = (0..ITERS).map(|k| result.duration_ps(1, k)).collect();
    m.finish_check();
    let trace = m.take_tracer().map(|tr| {
        let mut s = String::new();
        tr.serialize_into(&mut s);
        s
    });
    let telemetry = m.take_telemetry().map(|tel| {
        let mut s = String::new();
        tel.serialize_into(&mut s);
        s
    });
    Observed {
        end_time: result.end_time,
        durations,
        counters: m.counters(),
        trace,
        telemetry,
    }
}

#[test]
fn all_observers_on_is_bit_identical_to_off() {
    for cfg in configs() {
        let label = cfg.label();
        let off = run_case(&cfg, ObserverConfig::default());
        let on = run_case(&cfg, all_on());
        assert_eq!(off.end_time, on.end_time, "{label}: end_time moved");
        assert_eq!(
            off.durations, on.durations,
            "{label}: iteration durations moved"
        );
        assert_eq!(off.counters, on.counters, "{label}: counters moved");
        assert_eq!(off.trace, None, "{label}: empty hub must have no tracer");
        assert!(
            on.trace.is_some(),
            "{label}: full hub must hand back a trace"
        );
    }
}

#[test]
fn merged_trace_bytes_identical_across_jobs() {
    // The same merge the figure binaries' `TraceSink` performs: per-job
    // sections in canonical job order. Worker count must not leak into a
    // single byte of it.
    let configs = configs();
    let merged = |jobs: usize| -> String {
        let sections = SweepExecutor::new(jobs).run("observer-hub", &configs, |i, cfg| {
            let run = run_case(cfg, all_on());
            (i, run.end_time, run.trace.expect("tracing is on"))
        });
        let mut out = String::new();
        for (i, end, s) in sections {
            let _ = writeln!(out, "# job {i} end={end}");
            out.push_str(&s);
        }
        out
    };
    let serial = merged(1);
    let pooled = merged(2);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, pooled,
        "merged trace differs between --jobs 1 and 2"
    );
}

#[test]
fn observed_bytes_match_golden() {
    // What the four observers see and write, pinned as data: any change to
    // how the hub routes events or lifecycle hooks shows up as a diff in
    // the trace or telemetry section. Regenerate after an *intentional*
    // change to the event stream or a line format with
    // `KNL_UPDATE_GOLDEN=1 cargo test --test observer_hub`.
    let oc = all_on().telemetry(TelemetryConfig::every(1_000_000));
    let mut got = String::new();
    for kind in ProtocolKind::ALL {
        let cfg =
            MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat).with_protocol(kind);
        let run = run_case(&cfg, oc);
        let (trace, telemetry) = (run.trace.expect("tracing is on"), run.telemetry.unwrap());
        assert_totals_reconcile(&kind.to_string(), &trace, &telemetry);
        writeln!(got, "## {kind} end={}", run.end_time).unwrap();
        writeln!(got, "durations {:?}", run.durations).unwrap();
        writeln!(got, "{:?}", run.counters).unwrap();
        writeln!(got, "# trace").unwrap();
        got.push_str(&trace);
        writeln!(got, "# telemetry").unwrap();
        got.push_str(&telemetry);
    }
    assert_golden("observed_transfer.txt", &got);
}

/// The tracer and the sampler fold the same events, each into its own
/// container at its own bin width, so their totals must agree: serves and
/// issues, device enters and writes, and every message rate against the
/// trace's `C` counters.
fn assert_totals_reconcile(label: &str, trace: &str, telemetry: &str) {
    let mut m = Metrics::default();
    for line in trace.lines().filter(|l| !l.starts_with(['#', 'E'])) {
        assert!(m.parse_line(line), "{label}: trace line {line:?}");
    }
    let mut s = TelemetrySeries::default();
    for line in telemetry.lines() {
        assert!(s.parse_line(line), "{label}: telemetry line {line:?}");
    }
    let p = s
        .tile_bins
        .values()
        .fold((0, 0), |(i, n), b| (i + b.issues, n + b.serves));
    let t: u64 = m.tiles.values().map(|t| t.serves).sum();
    assert!(t > 0, "{label}: nothing served");
    assert_eq!(
        p,
        (m.issues, t),
        "{label}: P (issues, serves) vs C issues, T serves"
    );
    let q = s
        .dev_bins
        .values()
        .fold((0, 0), |(e, w), b| (e + b.enters, w + b.writes));
    let d = m
        .devices
        .values()
        .fold((0, 0), |(e, w), d| (e + d.reads + d.writes, w + d.writes));
    assert_eq!(
        q, d,
        "{label}: Q (enters, writes) vs D (reads + writes, writes)"
    );
    let v = s.rates.values().fold([0; 6], |a, r| {
        [
            a[0] + r.inv,
            a[1] + r.upd,
            a[2] + r.wb + r.wb_ext,
            a[3] + r.mc_hit,
            a[4] + r.mc_miss,
            a[5] + r.hops,
        ]
    });
    let c = [
        m.invalidations,
        m.updates,
        m.writebacks,
        m.mcache_hits,
        m.mcache_misses,
        m.mesh_hops,
    ];
    assert_eq!(
        v, c,
        "{label}: V (inv, upd, wb, mc_hit, mc_miss, hops) vs C"
    );
}

#[test]
fn observed_stream_bytes_match_golden() {
    // The transfer golden ping-pongs one line inside one trace bin, so it
    // never has more hot lines than the serialized top-N, more than a few
    // telemetry bins, or a reset. This one streams: an 8-thread triad, a
    // `reset_caches`, then four cache-to-cache buffer copies with a reset
    // after each, under a `Summary` trace and a 1 µs sampler — hundreds of
    // distinct lines with tied counts (the `L` cut and its tie-break),
    // dozens of bins per tile and device, clocks that start over between
    // the two workloads, the resets' compensating `G` deltas, and `V` rows
    // with and without the memory-side cache.
    let oc = ObserverConfig::default()
        .check(CheckLevel::Invariants)
        .trace(TraceLevel::Summary)
        .telemetry(TelemetryConfig::every(1_000_000));
    let mut params = SuiteParams::quick();
    params.iters = 3;
    params.mem_lines_per_thread = 96;
    params.mem_pool_buffers = 2;
    let mut got = String::new();
    for (cfg, target) in [
        (
            MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat),
            Target::Mcdram,
        ),
        // Plain DDR buffers behind the memory-side cache (`Target::CacheMode`
        // would first stream a pool 2.5x the cache).
        (
            MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Cache),
            Target::Ddr,
        ),
    ] {
        let mut m = Machine::with_observer_config(cfg.clone(), oc);
        let sched = Schedule::FillTiles;
        let triad = bandwidth_sample(&mut m, StreamKind::Triad, target, 8, sched, &params);
        m.reset_caches();
        let (owner, reader, helper) = (CoreId(8), CoreId(0), CoreId(16));
        let copy = copy_bandwidth(&mut m, owner, reader, helper, LineState::Shared, 8192, 3);
        // Sixteen of those lines once more, so the top 32 mix two counts.
        let again = copy_bandwidth(&mut m, owner, reader, helper, LineState::Modified, 1024, 1);
        m.finish_check();
        let (mut trace, mut telemetry) = (String::new(), String::new());
        m.take_tracer()
            .expect("tracing is on")
            .serialize_into(&mut trace);
        m.take_telemetry()
            .expect("telemetry is on")
            .serialize_into(&mut telemetry);
        assert_totals_reconcile(&cfg.label(), &trace, &telemetry);

        // The golden pins what this test is for only while the workload
        // still has these properties.
        let hot: Vec<u64> = trace
            .lines()
            .filter_map(|l| l.strip_prefix("L "))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(hot.len(), 32, "the hot-line section is cut at the top 32");
        assert!(hot[0] > hot[31], "the top 32 mix counts");
        assert_eq!(hot[31], hot[30], "the cut falls inside a run of ties");
        let last_bin = telemetry
            .lines()
            .filter_map(|l| l.strip_prefix("P "))
            .map(|l| l.split(' ').nth(1).unwrap().parse::<u64>().unwrap())
            .max()
            .expect("tile rows");
        assert!(last_bin >= 20, "only {last_bin} telemetry bins crossed");
        let census: Vec<i64> = telemetry
            .lines()
            .filter_map(|l| l.strip_prefix("G "))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(census.iter().any(|&d| d > 0), "no line was ever cached");
        assert_eq!(
            census.iter().sum::<i64>(),
            0,
            "the resets' compensating deltas return every line to Uncached"
        );

        writeln!(got, "## {} {}", cfg.label(), target.label()).unwrap();
        writeln!(got, "triad {:?}", triad.values()).unwrap();
        writeln!(got, "copy {:?} {:?}", copy.values(), again.values()).unwrap();
        writeln!(got, "{:?}", m.counters()).unwrap();
        writeln!(got, "# trace").unwrap();
        got.push_str(&trace);
        writeln!(got, "# telemetry").unwrap();
        got.push_str(&telemetry);
    }
    assert_golden("observed_stream.txt", &got);
}
