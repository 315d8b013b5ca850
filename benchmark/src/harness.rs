//! What every workload shares: the per-repetition context (spans, simulated
//! counts, output digest, checks), the FNV digest, order statistics and the
//! small host probes (`VmHWM`, fingerprint, temp dir).
//!
//! All timing is taken here, outside the crates, around calls into their
//! public functions (ROADMAP item 4a puts spans inside the crates later).

use knl_sim::{Counters, Machine};
use knl_stats::json::Json;
use std::collections::BTreeMap;
use std::fmt::{Debug, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// FNV-1a-64 over every simulated output of a repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Floats fold in by bit pattern, so -0.0 and NaN payloads count.
    pub fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    /// Result structs fold in through `Debug`, whose float formatting is
    /// shortest-round-trip, i.e. as discriminating as the bit pattern.
    pub fn debug(&mut self, v: &dyn Debug) {
        let mut s = String::new();
        let _ = write!(s, "{v:?}");
        self.bytes(s.as_bytes());
    }
}

/// One harness span: a call into a layer, seen from outside.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub rep: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated line accesses served inside the span (simulating spans only).
    pub accesses: u64,
}

/// The count `fig9_triad`'s host profile prints: every line access that
/// resolved somewhere in the hierarchy.
pub fn accesses(c: &Counters) -> u64 {
    c.l1_hits + c.l2_hits + c.remote_cache_hits + c.memory_accesses()
}

/// What one repetition produced besides wall-clock. Reset by [`Cx::begin_rep`].
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Sum of the final counters of every machine the repetition used.
    pub counters: Counters,
    /// Sum of every simulated duration the public results report, ps.
    pub sim_time_ps: u64,
    /// Serialized trace + telemetry bytes.
    pub observer_bytes: u64,
    /// Bytes written to the temp results dir.
    pub io_bytes: u64,
    /// Units of work done; simulated accesses are added by [`Cx::absorb`].
    pub work: u64,
    /// Digest over every simulated output.
    pub digest: Fnv,
    /// `mem_fig9_observed` only: digest over the fields it shares with `mem_fig9`.
    pub shared_digest: Fnv,
    pub attempted: u64,
    pub failed: u64,
    /// `tune_pipeline` only: (calib_err_pct, model_gap_pct, tuned_speedup_x).
    pub fidelity: Option<[f64; 3]>,
}

/// Per-process context handed to every repetition.
pub struct Cx {
    origin: Instant,
    tracing: bool,
    rep: u32,
    open: Vec<u32>,
    pub spans: Vec<Span>,
    pub tally: Tally,
}

impl Cx {
    pub fn new() -> Self {
        Cx {
            origin: Instant::now(),
            tracing: false,
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// Start repetition `rep`; spans are recorded only when `tracing`.
    pub fn begin_rep(&mut self, rep: u32, tracing: bool) {
        self.rep = rep;
        self.tracing = tracing;
        self.open.clear();
        self.tally = Tally::default();
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, name: &'static str) -> Option<u32> {
        if !self.tracing {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            rep: self.rep,
            start_ns,
            end_ns: start_ns,
            accesses: 0,
        });
        self.open.push(id);
        Some(id)
    }

    fn close_span(&mut self, id: Option<u32>, accesses: u64) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.open.pop();
            let s = &mut self.spans[id as usize];
            s.end_ns = end_ns;
            s.accesses = accesses;
        }
    }

    /// Run `f` as a span named after the layer it calls into.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Cx) -> T) -> T {
        let id = self.open_span(name);
        let out = f(self);
        self.close_span(id, 0);
        out
    }

    /// A span that simulates on `m`; also records the accesses it served.
    pub fn sim_span<T>(
        &mut self,
        name: &'static str,
        m: &mut Machine,
        f: impl FnOnce(&mut Machine) -> T,
    ) -> T {
        let id = self.open_span(name);
        let before = id.map_or(0, |_| accesses(&m.counters()));
        let out = f(m);
        let served = id.map_or(0, |_| accesses(&m.counters()) - before);
        self.close_span(id, served);
        out
    }

    /// Fold a finished machine's counters into the repetition's totals.
    pub fn absorb(&mut self, m: &Machine) {
        let c = m.counters();
        self.tally.work += accesses(&c);
        self.tally.counters.merge(&c);
    }

    /// Add simulated durations given in ns.
    pub fn sim_ns(&mut self, ns: &[f64]) {
        self.tally.sim_time_ps += ns.iter().map(|x| (x * 1e3).round() as u64).sum::<u64>();
    }

    /// Count one check; `ok == false` is a failed operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.tally.attempted += 1;
        if !ok {
            self.tally.failed += 1;
            eprintln!("CHECK FAILED (rep {}): {what}", self.rep);
        }
    }
}

/// Per-span-name totals of one repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Duration minus the part covered by child spans, seconds.
    pub self_s: f64,
    pub calls: u64,
    pub accesses: u64,
}

/// Self time, calls and accesses per span name for repetition `rep`.
/// A child is subtracted from its parent only, so Σ self = Σ top-level durations.
pub fn span_totals(spans: &[Span], rep: u32) -> BTreeMap<&'static str, SpanTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.rep == rep) {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.rep == rep) {
        let t = out.entry(s.name).or_default();
        t.self_s += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 * 1e-9;
        t.calls += 1;
        t.accesses += s.accesses;
    }
    out
}

/// Median, quartiles, min and count of a timing sample. With the ≤ 60
/// repetitions a run holds, no tail percentile has ten samples beyond it,
/// so none is claimed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub n: usize,
}

pub fn summarize(xs: &[f64]) -> Summary {
    Summary {
        median: knl_stats::median(xs),
        q1: knl_stats::quantile(xs, 0.25),
        q3: knl_stats::quantile(xs, 0.75),
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        n: xs.len(),
    }
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// nproc, CPU model, rustc and profile: what a reader needs before comparing
/// two result files from different hosts.
pub fn fingerprint() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu.to_string())),
        ("rustc", Json::Str(env!("KNL_BENCHMARK_RUSTC").to_string())),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
    ])
}

/// The only place the benchmark writes besides `--out`: a fresh directory
/// beside the executable (inside the checkout's build directory), removed on
/// drop — also when a check failed.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn create(tag: &str) -> std::io::Result<TempDir> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join(format!("knl-benchmark-tmp-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.median, s.q1, s.q3, s.min, s.n), (3.0, 2.0, 4.0, 1.0, 5));
        let even = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(even.median, 2.5);
        assert_eq!((even.q1, even.q3), (1.75, 3.25));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a-64 test vectors.
        let mut h = Fnv::default();
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_sees_float_bits_and_order() {
        let (mut a, mut b, mut c) = (Fnv::default(), Fnv::default(), Fnv::default());
        a.f64s(&[0.0, 1.0]);
        b.f64s(&[-0.0, 1.0]);
        c.f64s(&[1.0, 0.0]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let mut d = Fnv::default();
        d.debug(&(1.5f64, "x"));
        assert_ne!(d, Fnv::default());
    }

    fn span(name: &'static str, parent: Option<u32>, rep: u32, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            rep,
            start_ns: start,
            end_ns: end,
            accesses: 0,
        }
    }

    #[test]
    fn children_are_subtracted_once() {
        // a[0,100) { b[10,40) { c[20,30) }  b[50,60) }, and another rep's span.
        let spans = vec![
            span("a", None, 1, 0, 100),
            span("b", Some(0), 1, 10, 40),
            span("c", Some(1), 1, 20, 30),
            span("b", Some(0), 1, 50, 60),
            span("a", None, 2, 0, 1000),
        ];
        let t = span_totals(&spans, 1);
        assert_eq!(t["a"].calls, 1);
        assert_eq!(t["b"].calls, 2);
        assert!(
            (t["a"].self_s - 60e-9).abs() < 1e-15,
            "grandchild c is b's, not a's"
        );
        assert!((t["b"].self_s - 30e-9).abs() < 1e-15);
        assert!((t["c"].self_s - 10e-9).abs() < 1e-15);
        let total: f64 = t.values().map(|x| x.self_s).sum();
        assert!(
            (total - 100e-9).abs() < 1e-15,
            "Σ self = top-level duration"
        );
    }

    #[test]
    fn spans_nest_and_vanish_when_not_tracing() {
        let mut cx = Cx::new();
        cx.begin_rep(1, false);
        assert_eq!(cx.span("x", |cx| cx.span("y", |_| 7)), 7);
        assert!(cx.spans.is_empty());
        cx.begin_rep(2, true);
        cx.span("x", |cx| cx.span("y", |_| ()));
        cx.span("z", |_| ());
        let parents: Vec<_> = cx.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(parents, [("x", None), ("y", Some(0)), ("z", None)]);
        assert!(cx
            .spans
            .iter()
            .all(|s| s.rep == 2 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut cx = Cx::new();
        cx.begin_rep(0, false);
        cx.check(true, "fine");
        cx.check(false, "expected failure of this unit test");
        assert_eq!((cx.tally.attempted, cx.tally.failed), (2, 1));
    }
}
