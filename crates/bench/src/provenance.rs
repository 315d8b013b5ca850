//! Run provenance: `results/INDEX`, one sorted line `<path> <digest> <id>
//! <flags>` per tracked artifact — the FNV-1a-64 digest of its bytes and the
//! `knl run` command that wrote them, with only the flags that decide bytes
//! (effort, protocol, telemetry interval). The driver names the producer
//! ([`producing`]); each artifact writer updates its line ([`write_artifact`]).
//! No producer (the repo benchmark, unit tests), no INDEX.

use crate::experiments::{self, Experiment};
use crate::output::{results_dir, write_if_changed};
use crate::runconf::RunConf;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The index file's name inside a results dir.
pub const INDEX: &str = "INDEX";

/// `<id> <flags>` of the run writing artifacts now, if any.
static PRODUCER: Mutex<Option<String>> = Mutex::new(None);

/// Run `body` with what it writes attributed to `knl run <id>` under `conf`.
pub fn producing<R>(id: &str, conf: &RunConf, body: impl FnOnce() -> R) -> R {
    *PRODUCER.lock().expect("producer poisoned") = Some(command(id, conf));
    let out = body();
    *PRODUCER.lock().expect("producer poisoned") = None;
    out
}

/// An INDEX line's `<id> <flags>` (telemetry in ps, 0 = off); see [`parse_command`].
pub fn command(id: &str, conf: &RunConf) -> String {
    let (effort, protocol) = (conf.effort.flag(), conf.protocol.name());
    let ps = conf.telemetry.interval_ps;
    format!("{id} {effort} --protocol={protocol} --telemetry={ps}")
}

/// The experiment and run configuration of a recorded command.
pub fn parse_command(command: &str) -> Option<(&'static Experiment, RunConf)> {
    let mut words = command.split(' ').map(str::to_string);
    let exp = experiments::find(&words.next()?)?;
    Some((exp, RunConf::parse(words, |_| None).ok()?))
}

/// FNV-1a-64 of `bytes`, as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let fnv = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    format!("{:016x}", bytes.iter().fold(0xcbf2_9ce4_8422_2325, fnv))
}

/// Is `rel` a tracked artifact: `*.csv` or `*.telemetry` at the top of
/// the results dir, or `suite-cache/*.json`?
fn is_tracked(rel: &str) -> bool {
    match rel.split_once('/') {
        None => rel.ends_with(".csv") || rel.ends_with(".telemetry"),
        Some((dir, file)) => dir == "suite-cache" && file.ends_with(".json") && !file.contains('/'),
    }
}

/// `output::write_if_changed`, then, while a producer is set and `path` is a
/// tracked artifact under the results dir, make its INDEX line name these
/// bytes and that producer (a failed write touches no line).
pub fn write_artifact(path: &Path, bytes: &[u8]) -> std::io::Result<bool> {
    let wrote = write_if_changed(path, bytes)?;
    let producer = PRODUCER.lock().expect("producer poisoned");
    let results = results_dir();
    let rel = path.strip_prefix(&results).ok().and_then(Path::to_str);
    if let (Some(command), Some(rel)) = (producer.as_ref(), rel.filter(|r| is_tracked(r))) {
        let index = results.join(INDEX);
        let old = std::fs::read_to_string(&index).unwrap_or_default();
        let mut lines: BTreeMap<&str, String> = old
            .lines()
            .filter_map(|l| Some((l.split(' ').next()?, format!("{l}\n"))))
            .collect();
        lines.insert(rel, format!("{rel} {} {command}\n", digest(bytes)));
        write_if_changed(&index, lines.into_values().collect::<String>().as_bytes())?;
    }
    Ok(wrote)
}

/// The INDEX: path → (digest, `<id> <flags>`).
pub type Index = BTreeMap<String, (String, String)>;

/// Parse the INDEX at `index`: one message for a missing file or the first
/// line that does not parse or sort strictly after the one before.
pub fn read_index(index: &Path) -> Result<Index, String> {
    let text = std::fs::read_to_string(index)
        .map_err(|e| format!("{}: cannot read: {e}", index.display()))?;
    let mut lines = Index::new();
    for (n, raw) in (1..).zip(text.lines()) {
        match parse_line(raw) {
            Some((path, line)) if lines.last_key_value().is_none_or(|(prev, _)| *prev < path) => {
                lines.insert(path, line);
            }
            _ => return Err(format!("{}:{n}: unparsable line {raw:?}", index.display())),
        }
    }
    Ok(lines)
}

/// `<tracked path> <digest> <command>` as an [`Index`] entry.
fn parse_line(raw: &str) -> Option<(String, (String, String))> {
    let mut words = raw.splitn(3, ' ');
    let (path, digest, command) = (words.next()?, words.next()?, words.next()?);
    let hex = digest.len() == 16 && digest.bytes().all(|b| b.is_ascii_hexdigit());
    let ok = hex && is_tracked(path) && parse_command(command).is_some();
    ok.then(|| (path.into(), (digest.into(), command.into())))
}

/// One message per disagreement between `lines` and the tracked files under
/// `dir`: a digest not the file's, a line naming no file, a file with no line.
pub fn problems(lines: &Index, dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for (path, (want, _)) in lines {
        match std::fs::read(dir.join(path)).map(|bytes| digest(&bytes)) {
            Ok(got) if got == *want => {}
            Ok(got) => out.push(format!("{path}: digest {got}, INDEX says {want}")),
            Err(_) => out.push(format!("{path}: INDEX line names no file")),
        }
    }
    for sub in ["", "suite-cache/"] {
        for entry in std::fs::read_dir(dir.join(sub)).into_iter().flatten() {
            let Ok(entry) = entry else { continue };
            let rel = format!("{sub}{}", entry.file_name().to_string_lossy());
            if entry.path().is_file() && is_tracked(&rel) && !lines.contains_key(&rel) {
                out.push(format!("{rel}: tracked file has no INDEX line"));
            }
        }
    }
    out
}

/// Where the retired sidecar manifest of `artifact` was: nothing is written
/// there now, so a caller sizing it counts 0 bytes (the repo benchmark).
pub fn manifest_path(artifact: &Path) -> PathBuf {
    PathBuf::from(format!("{}.manifest.json", artifact.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runconf::Effort;
    use knl_arch::ProtocolKind;
    use knl_sim::TelemetryConfig;

    /// A results dir (named apart per test) that checks clean: 2 artifacts, 2 untracked files.
    fn results(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("knl_provenance_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("suite-cache")).unwrap();
        let mut index = String::new();
        for (path, bytes) in [("a.csv", "x,y\n1,2\n"), ("suite-cache/c.json", "{}\n")] {
            std::fs::write(dir.join(path), bytes).unwrap();
            let run = "table1 --quick --protocol=mesif --telemetry=0";
            index += &format!("{path} {} {run}\n", digest(bytes.as_bytes()));
        }
        for (path, bytes) in [(INDEX, index.as_str()), ("run.log", ""), ("a.trace", "")] {
            std::fs::write(dir.join(path), bytes).unwrap();
        }
        assert_eq!(check(&dir), Vec::<String>::new());
        dir
    }

    fn check(dir: &Path) -> Vec<String> {
        read_index(&dir.join(INDEX)).map_or_else(|e| vec![e], |lines| problems(&lines, dir))
    }

    /// `check` finds exactly one problem, and its message contains `what`.
    fn fails_naming(dir: &Path, what: &str) {
        let found = check(dir);
        assert!(found.len() == 1 && found[0].contains(what), "{found:?}");
    }

    #[test]
    fn missing_index_fails() {
        let dir = results("missing");
        std::fs::remove_file(dir.join(INDEX)).unwrap();
        fails_naming(&dir, "INDEX: cannot read");
        fails_naming(Path::new("/nonexistent/results"), "INDEX: cannot read");
    }

    #[test]
    fn unparsable_line_fails() {
        let dir = results("unparsable");
        let good = std::fs::read_to_string(dir.join(INDEX)).unwrap();
        let (first, second) = good.split_once('\n').unwrap();
        let bad_indexes = [
            ("a.csv\n".to_string(), 1),
            (good.replacen(' ', " zz", 1), 1),
            (good.replacen("table1", "table9", 1), 1),
            (good.replacen("--quick", "--jobs=0", 1), 1),
            (good.replacen("a.csv", "a.log", 1), 1),
            (format!("{second}{first}\n"), 2),
            (format!("{good}{second}"), 3),
        ];
        for (bad, n) in bad_indexes {
            std::fs::write(dir.join(INDEX), &bad).unwrap();
            fails_naming(&dir, &format!("INDEX:{n}: unparsable line"));
        }
    }

    #[test]
    fn digest_mismatch_fails() {
        let dir = results("mismatch");
        std::fs::write(dir.join("a.csv"), "x,y\n1,3\n").unwrap();
        fails_naming(&dir, "a.csv: digest ");
    }

    #[test]
    fn line_without_file_fails() {
        let dir = results("no_file");
        std::fs::remove_file(dir.join("suite-cache/c.json")).unwrap();
        fails_naming(&dir, "suite-cache/c.json: INDEX line names no file");
    }

    #[test]
    fn file_without_line_fails() {
        let dir = results("no_line");
        std::fs::write(dir.join("b.telemetry"), "# knl-telemetry v1\n").unwrap();
        fails_naming(&dir, "b.telemetry: tracked file has no INDEX line");
    }

    #[test]
    fn recorded_flags_parse_back_to_the_same_run() {
        let key = |c: &RunConf| (c.effort, c.protocol, c.telemetry);
        for effort in [Effort::Quick, Effort::Paper] {
            for protocol in ProtocolKind::ALL {
                for ps in [0, 250, 100_000_000, 1_000_000_000] {
                    let mut conf = RunConf::default();
                    (conf.effort, conf.protocol) = (effort, protocol);
                    conf.telemetry = TelemetryConfig::every(ps);
                    let line = command("fig9_triad", &conf);
                    let (exp, back) = parse_command(&line).expect(&line);
                    assert_eq!((exp.id, key(&back)), ("fig9_triad", key(&conf)), "{line}");
                }
            }
        }
    }
}
