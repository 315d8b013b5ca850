//! Run provenance: sidecar manifests tying every results artifact to the
//! sources, run configuration, and bench trajectory that produced it.
//!
//! Three of the last six PRs burned effort hand-diagnosing stale
//! `results/*.csv`; this module makes staleness mechanical. Every CSV a
//! [`crate::output::Table`] writes and every suite-cache JSON gains an
//! `<artifact>.manifest.json` sidecar recording:
//!
//! * a FNV-1a-64 digest over every `.rs` source in the workspace (any
//!   code change — simulator, suite, harness — changes the digest),
//! * the producing experiment's id and its parsed [`RunConf`] (effort,
//!   jobs, protocol, observer levels, telemetry interval), and
//! * the newest checked-in `BENCH_<n>.json` trajectory at stamping time.
//!
//! Manifests render through [`knl_stats::json::Json`], whose object keys
//! are sorted — re-stamping an unchanged tree is byte-stable. `knl
//! provenance` verifies (`--verify`, CI) or re-blesses (`--stamp`) the
//! whole `results/` tree; a re-bless refreshes the digest and trajectory
//! only, so an artifact stays attributed to the experiment and run
//! configuration that produced it.

use crate::runconf::RunConf;
use knl_stats::json::Json;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// Manifest format tag.
pub const FORMAT: &str = "knl-provenance-v1";

static SOURCE_DIGEST: OnceLock<String> = OnceLock::new();
/// Who is writing artifacts right now: the manifests' `binary` and `run`.
static PRODUCER: Mutex<Option<(String, Json)>> = Mutex::new(None);

/// Attribute every manifest written from now on to experiment `id` run
/// under `conf`, until the next call (the experiment driver calls this
/// before each experiment, so one process can produce many). A process
/// that never calls it writes its executable's name and `run: null`.
pub fn set_producer(id: &str, conf: &RunConf) {
    let effort = match conf.effort {
        crate::runconf::Effort::Quick => "quick",
        crate::runconf::Effort::Paper => "paper",
    };
    let run = Json::obj(vec![
        ("effort", Json::Str(effort.into())),
        ("jobs", Json::Num(conf.jobs as f64)),
        ("protocol", Json::Str(conf.protocol.name().into())),
        ("check", Json::Str(conf.check.name().into())),
        ("trace", Json::Str(conf.trace.name().into())),
        ("analyze", Json::Str(conf.analyze.name().into())),
        (
            "telemetry_interval_ps",
            Json::Num(conf.telemetry.interval_ps as f64),
        ),
    ]);
    *PRODUCER.lock().expect("producer poisoned") = Some((id.to_string(), run));
}

/// The workspace root (two levels above this crate's manifest dir).
pub fn workspace_root() -> PathBuf {
    let mut p = Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf();
    p.pop();
    p.pop();
    p
}

/// FNV-1a-64 digest over every `.rs` file under `crates/`, in sorted
/// relative-path order (path bytes and contents both fold in). Cached for
/// the process lifetime.
pub fn source_digest() -> &'static str {
    SOURCE_DIGEST.get_or_init(|| {
        let root = workspace_root().join("crates");
        let mut files = Vec::new();
        collect_rs(&root, &mut files);
        files.sort();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for f in &files {
            let rel = f.strip_prefix(&root).unwrap_or(f);
            fnv(&mut h, rel.to_string_lossy().as_bytes());
            if let Ok(bytes) = std::fs::read(f) {
                fnv(&mut h, &bytes);
            }
        }
        format!("fnv1a64:{h:016x}")
    })
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Every `.rs` file under `dir`, skipping `target/` build directories.
pub fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// The newest checked-in bench trajectory at the workspace root
/// (`BENCH_<n>.json` with the highest `n`), if any.
pub fn latest_trajectory() -> Option<String> {
    let root = workspace_root();
    let mut best: Option<(u32, String)> = None;
    for e in std::fs::read_dir(root).ok()?.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u32>().ok())
        {
            if best.as_ref().is_none_or(|(b, _)| n > *b) {
                best = Some((n, name));
            }
        }
    }
    best.map(|(_, name)| name)
}

/// Sidecar manifest path of an artifact (`x.csv` → `x.csv.manifest.json`).
pub fn manifest_path(artifact: &Path) -> PathBuf {
    let mut name = artifact
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(".manifest.json");
    artifact.with_file_name(name)
}

/// Build the manifest document for `artifact` as produced right now.
pub fn manifest_for(artifact: &Path) -> Json {
    let argv0_stem = || {
        let exe = std::env::args().next().unwrap_or_else(|| "unknown".into());
        let stem = Path::new(&exe).file_stem();
        stem.map_or(exe.clone(), |s| s.to_string_lossy().into_owned())
    };
    let (binary, run) = PRODUCER
        .lock()
        .expect("producer poisoned")
        .clone()
        .unwrap_or_else(|| (argv0_stem(), Json::Null));
    Json::obj(vec![
        ("format", Json::Str(FORMAT.into())),
        (
            "artifact",
            Json::Str(
                artifact
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default(),
            ),
        ),
        ("binary", Json::Str(binary)),
        ("source_digest", Json::Str(source_digest().into())),
        (
            "trajectory",
            latest_trajectory().map_or(Json::Null, Json::Str),
        ),
        ("run", run),
    ])
}

/// Write (or refresh) the sidecar manifest for `artifact`, unless it
/// already holds these bytes. Failures are silent: provenance must never
/// break a results run.
pub fn write_manifest(artifact: &Path) {
    write_doc(artifact, &manifest_for(artifact));
}

/// Re-bless `artifact` as a product of the current tree: refresh its
/// manifest's `source_digest` and `trajectory` and keep who produced it
/// (`binary`, `run`). Only an artifact without a readable manifest is
/// attributed to the stamping process.
pub fn stamp_manifest(artifact: &Path) {
    let mut doc = manifest_for(artifact);
    let old = std::fs::read_to_string(manifest_path(artifact))
        .ok()
        .and_then(|text| Json::parse(&text))
        .filter(|old| old.get("format").and_then(Json::as_str) == Some(FORMAT));
    if let (Json::Obj(new), Some(Json::Obj(mut old))) = (&mut doc, old) {
        for key in ["binary", "run"] {
            if let Some(kept) = old.remove(key) {
                new.insert(key.into(), kept);
            }
        }
    }
    write_doc(artifact, &doc);
}

fn write_doc(artifact: &Path, doc: &Json) {
    let mut text = doc.render();
    text.push('\n');
    let _ = crate::output::write_if_changed(&manifest_path(artifact), text.as_bytes());
}

/// Verification outcome of one artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Manifest present, source digest matches the current tree.
    Fresh,
    /// Manifest present but the tree changed since stamping.
    Stale {
        /// Digest recorded in the manifest.
        recorded: String,
    },
    /// No sidecar manifest next to the artifact.
    Missing,
    /// Sidecar exists but is unreadable/unparsable.
    Corrupt,
}

/// Verify one artifact's sidecar against the current source digest.
pub fn verify(artifact: &Path) -> Verdict {
    let Ok(text) = std::fs::read_to_string(manifest_path(artifact)) else {
        return Verdict::Missing;
    };
    let Some(doc) = Json::parse(&text) else {
        return Verdict::Corrupt;
    };
    if doc.get("format").and_then(Json::as_str) != Some(FORMAT) {
        return Verdict::Corrupt;
    }
    match doc.get("source_digest").and_then(Json::as_str) {
        Some(d) if d == source_digest() => Verdict::Fresh,
        Some(d) => Verdict::Stale {
            recorded: d.to_string(),
        },
        None => Verdict::Corrupt,
    }
}

/// All provenance-tracked artifacts under a results dir: `*.csv` and
/// `*.telemetry` at the top level plus `suite-cache/*.json`, manifests and
/// logs excluded, in sorted order.
pub fn tracked_artifacts(results: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let is_manifest = |p: &Path| p.to_string_lossy().ends_with(".manifest.json");
    if let Ok(entries) = std::fs::read_dir(results) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_file()
                && !is_manifest(&p)
                && p.extension()
                    .is_some_and(|x| x == "csv" || x == "telemetry")
            {
                out.push(p);
            }
        }
    }
    if let Ok(entries) = std::fs::read_dir(results.join("suite-cache")) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_file() && !is_manifest(&p) && p.extension().is_some_and(|x| x == "json") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_nonempty() {
        let d1 = source_digest();
        let d2 = source_digest();
        assert_eq!(d1, d2);
        assert!(d1.starts_with("fnv1a64:"));
        assert_eq!(d1.len(), "fnv1a64:".len() + 16);
    }

    #[test]
    fn manifest_round_trip_and_verdicts() {
        let dir = std::env::temp_dir().join("knl_provenance_test");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("table.csv");
        std::fs::write(&artifact, "a,b\n1,2\n").unwrap();

        assert_eq!(verify(&artifact), Verdict::Missing);
        write_manifest(&artifact);
        assert_eq!(verify(&artifact), Verdict::Fresh);

        // Tamper with the recorded digest → stale.
        let mp = manifest_path(&artifact);
        let text = std::fs::read_to_string(&mp).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("format").and_then(Json::as_str), Some(FORMAT));
        let tampered = text.replace("fnv1a64:", "fnv1a64:0");
        std::fs::write(&mp, tampered).unwrap();
        assert!(matches!(verify(&artifact), Verdict::Stale { .. }));

        std::fs::write(&mp, "not json").unwrap();
        assert_eq!(verify(&artifact), Verdict::Corrupt);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifests_name_the_producer_set_last() {
        // Under the lock every test that runs an experiment holds, so no
        // one else sets a producer meanwhile.
        let dir = std::env::temp_dir().join("knl_provenance_producer_test");
        let _serial = crate::output::ResultsDirGuard::set(&dir);
        *PRODUCER.lock().unwrap() = None;
        let field = |key: &str| manifest_for(Path::new("x.csv")).get(key).cloned();
        // Nothing set — what a foreign process (the repo benchmark) writes.
        let exe = std::env::args().next().unwrap();
        let stem = Path::new(&exe).file_stem().unwrap().to_string_lossy();
        assert_eq!(field("binary"), Some(Json::Str(stem.into_owned())));
        assert_eq!(field("run"), Some(Json::Null));
        let conf = RunConf {
            jobs: 3,
            ..Default::default()
        };
        for id in ["a", "b"] {
            set_producer(id, &conf);
            assert_eq!(field("binary"), Some(Json::Str(id.into())));
            let run = field("run").unwrap();
            assert_eq!(run.get("jobs"), Some(&Json::Num(3.0)));
            assert_eq!(run.get("effort").and_then(Json::as_str), Some("quick"));
        }
        *PRODUCER.lock().unwrap() = None;
    }

    #[test]
    fn stamp_refreshes_the_digest_and_keeps_the_producer() {
        let dir = std::env::temp_dir().join("knl_provenance_stamp_test");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("table1.csv");
        std::fs::write(&artifact, "a,b\n1,2\n").unwrap();
        // A manifest another binary wrote against an older tree.
        let run = Json::obj(vec![("effort", Json::Str("quick".into()))]);
        let foreign = Json::obj(vec![
            ("format", Json::Str(FORMAT.into())),
            ("artifact", Json::Str("table1.csv".into())),
            ("binary", Json::Str("table1".into())),
            (
                "source_digest",
                Json::Str("fnv1a64:0000000000000000".into()),
            ),
            ("trajectory", Json::Str("BENCH_0.json".into())),
            ("run", run.clone()),
        ]);
        std::fs::write(manifest_path(&artifact), foreign.render()).unwrap();
        assert!(matches!(verify(&artifact), Verdict::Stale { .. }));

        stamp_manifest(&artifact);
        assert_eq!(verify(&artifact), Verdict::Fresh);
        let text = std::fs::read_to_string(manifest_path(&artifact)).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("binary").and_then(Json::as_str), Some("table1"));
        assert_eq!(doc.get("run"), Some(&run));
        assert_eq!(
            doc.get("trajectory")
                .and_then(Json::as_str)
                .map(str::to_string),
            latest_trajectory()
        );

        // Nothing to keep: the stamping process becomes the producer.
        std::fs::write(manifest_path(&artifact), "not json").unwrap();
        stamp_manifest(&artifact);
        assert_eq!(verify(&artifact), Verdict::Fresh);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tracked_artifacts_skips_manifests_and_logs() {
        let dir = std::env::temp_dir().join("knl_provenance_tracked_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("suite-cache")).unwrap();
        std::fs::write(dir.join("a.csv"), "x\n").unwrap();
        std::fs::write(dir.join("a.csv.manifest.json"), "{}\n").unwrap();
        std::fs::write(dir.join("b.telemetry"), "I 1\n").unwrap();
        std::fs::write(dir.join("run.log"), "log\n").unwrap();
        std::fs::write(dir.join("suite-cache/c.json"), "{}\n").unwrap();
        std::fs::write(dir.join("suite-cache/c.json.manifest.json"), "{}\n").unwrap();
        let names: Vec<String> = tracked_artifacts(&dir)
            .into_iter()
            .map(|p| p.strip_prefix(&dir).unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a.csv", "b.telemetry", "suite-cache/c.json"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
