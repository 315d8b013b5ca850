//! Console tables and CSV output.

use std::borrow::Cow;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A simple aligned text table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |cells: &[String], out: &mut String| {
            for (c, w) in cells.iter().zip(&widths) {
                out.push_str(&format!("{:<w$}", c, w = w + 2));
            }
            out.push('\n');
        };
        line(&self.header, &mut out);
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * cols));
        out.push('\n');
        for r in &self.rows {
            line(r, &mut out);
        }
        out
    }

    /// The CSV text: the header, then every row, one record a line.
    pub(crate) fn csv(&self) -> String {
        let mut text = String::new();
        for record in std::iter::once(&self.header).chain(&self.rows) {
            text.push_str(&csv_record(record));
            text.push('\n');
        }
        text
    }

    /// Write as CSV under `results/<name>.csv` (creating the directory)
    /// through [`crate::provenance::write_artifact`]: the file is left
    /// alone when it already holds the same bytes, and a `knl run` gives it
    /// its INDEX line.
    pub fn write_csv(&self, name: &str) -> PathBuf {
        let dir = results_dir();
        fs::create_dir_all(&dir).expect("create results dir");
        let path = dir.join(format!("{name}.csv"));
        crate::provenance::write_artifact(&path, self.csv().as_bytes()).expect("write csv");
        path
    }

    /// What an experiment does with a finished table: print it to stdout,
    /// write `results/<name>.csv` and name that file on stderr.
    pub fn emit(&self, name: &str) {
        print!("{}", self.render());
        eprintln!("csv: {}", self.write_csv(name).display());
    }
}

/// The rows of a metric × configuration table from its columns: each
/// column holds one configuration's `(metric, cell)` pairs, and every
/// column names the same metrics in the same order.
pub(crate) fn metric_rows(columns: &[Vec<(String, String)>]) -> Vec<Vec<String>> {
    let Some(first) = columns.first() else {
        return Vec::new();
    };
    (0..first.len())
        .map(|i| {
            let mut row = vec![first[i].0.clone()];
            for column in columns {
                assert_eq!(column[i].0, first[i].0, "columns disagree on metric {i}");
                row.push(column[i].1.clone());
            }
            row
        })
        .collect()
}

/// Make `path` hold exactly `bytes`, writing only when it does not already:
/// the file's length is compared first and its bytes second. Returns
/// whether it wrote. Rewriting identical bytes is not free — on ext4,
/// truncating and refilling a file (or renaming a fresh one over it)
/// forces the data to disk — and every regeneration of an unchanged
/// artifact would pay that (DESIGN.md §6, "the observed run's second
/// pass").
pub(crate) fn write_if_changed(path: &Path, bytes: &[u8]) -> io::Result<bool> {
    let same_len = fs::metadata(path).is_ok_and(|md| md.len() == bytes.len() as u64);
    if same_len && fs::read(path).is_ok_and(|old| old == bytes) {
        return Ok(false);
    }
    fs::write(path, bytes)?;
    Ok(true)
}

/// One CSV record. A cell is quoted (RFC 4180: wrapped in `"`, embedded
/// quotes doubled) only when it contains a comma, a quote or a line
/// break; every other cell is written as it is.
fn csv_record(cells: &[String]) -> String {
    let cells: Vec<Cow<str>> = cells
        .iter()
        .map(|c| {
            if c.contains([',', '"', '\r', '\n']) {
                Cow::Owned(format!("\"{}\"", c.replace('"', "\"\"")))
            } else {
                Cow::Borrowed(c.as_str())
            }
        })
        .collect();
    cells.join(",")
}

/// The workspace root (two levels above this crate's manifest dir).
pub fn workspace_root() -> PathBuf {
    let mut p = Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf();
    p.pop();
    p.pop();
    p
}

/// `results/` at the workspace root (env override: `KNL_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    match std::env::var("KNL_RESULTS_DIR") {
        Ok(d) => PathBuf::from(d),
        Err(_) => workspace_root().join("results"),
    }
}

/// Test support: `KNL_RESULTS_DIR` points at `dir` while the guard lives.
/// The variable is process-wide and this crate's unit tests share one
/// process, so the guard also holds a lock: a test that redirects its
/// output can never have the variable pulled away mid-run by another.
#[cfg(test)]
pub(crate) struct ResultsDirGuard {
    previous: Option<std::ffi::OsString>,
    _lock: std::sync::MutexGuard<'static, ()>,
}

#[cfg(test)]
impl ResultsDirGuard {
    pub(crate) fn set(dir: &Path) -> Self {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // A holder that failed its assertion poisons the lock; it guards
        // no data, so the next test may take it all the same.
        let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let previous = std::env::var_os("KNL_RESULTS_DIR");
        std::env::set_var("KNL_RESULTS_DIR", dir);
        ResultsDirGuard {
            previous,
            _lock: lock,
        }
    }
}

#[cfg(test)]
impl Drop for ResultsDirGuard {
    fn drop(&mut self) {
        match self.previous.take() {
            Some(v) => std::env::set_var("KNL_RESULTS_DIR", v),
            None => std::env::remove_var("KNL_RESULTS_DIR"),
        }
    }
}

/// Format a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// A cell whose value may be absent: `fmt` of the value, or "-".
pub(crate) fn cell(x: Option<f64>, fmt: fn(f64) -> String) -> String {
    x.map_or_else(|| "-".to_string(), fmt)
}

/// Format a speedup with 1 decimal and an "x".
pub(crate) fn x1(x: f64) -> String {
    format!("{x:.1}x")
}

/// Format seconds in engineering units.
pub fn secs(x: f64) -> String {
    if x >= 1.0 {
        format!("{x:.2} s")
    } else if x >= 1e-3 {
        format!("{:.2} ms", x * 1e3)
    } else if x >= 1e-6 {
        format!("{:.2} µs", x * 1e6)
    } else {
        format!("{:.0} ns", x * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["xx".into(), "1".into()]);
        // Every cell, the last included, is padded to its column's width
        // plus two; the rule spans the padded widths.
        assert_eq!(
            t.render(),
            "== demo ==\na   bbbb  \n----------\nxx  1     \n"
        );
        assert_eq!(t.csv(), "a,bbbb\nxx,1\n");
        assert_eq!(
            metric_rows(&[
                vec![("lat".into(), "1.0".into()), ("bw".into(), "2".into())],
                vec![("lat".into(), "3.0".into()), ("bw".into(), "-".into())],
            ]),
            [["lat", "1.0", "3.0"], ["bw", "2", "-"]]
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn bad_row_panics() {
        Table::new("t", &["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_written() {
        let _dir = ResultsDirGuard::set(&std::env::temp_dir().join("knl_test_results"));
        let mut t = Table::new("t", &["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        let p = t.write_csv("unit_test_table");
        let s = std::fs::read_to_string(p).unwrap();
        assert_eq!(s, "x,y\n1,2\n");
    }

    /// A modification time no write in this test run can produce.
    fn backdate(path: &Path) -> std::time::SystemTime {
        let old = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000);
        let f = fs::File::options().write(true).open(path).unwrap();
        f.set_modified(old).unwrap();
        old
    }

    fn mtime(path: &Path) -> std::time::SystemTime {
        fs::metadata(path).unwrap().modified().unwrap()
    }

    #[test]
    fn write_if_changed_writes_only_differing_bytes() {
        let dir = std::env::temp_dir().join("knl_write_if_changed_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("a.txt");

        // Missing: written.
        assert!(write_if_changed(&p, b"abc,1\n").unwrap());
        assert_eq!(fs::read(&p).unwrap(), b"abc,1\n");

        // Identical: not written, content and mtime intact.
        let old = backdate(&p);
        assert!(!write_if_changed(&p, b"abc,1\n").unwrap());
        assert_eq!(fs::read(&p).unwrap(), b"abc,1\n");
        assert_eq!(mtime(&p), old);

        // Same length, one byte different; then longer; then shorter.
        for next in [&b"abc,2\n"[..], b"abc,22\n", b"ab\n", b""] {
            backdate(&p);
            assert!(write_if_changed(&p, next).unwrap(), "{next:?}");
            assert_eq!(fs::read(&p).unwrap(), next);
        }
        assert!(!write_if_changed(&p, b"").unwrap());

        // A directory in the way is an error, not a skipped write.
        assert!(write_if_changed(&dir, b"x").is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_written_twice_is_written_once() {
        let dir = std::env::temp_dir().join("knl_test_results_twice");
        let _ = fs::remove_dir_all(&dir);
        let _dir = ResultsDirGuard::set(&dir);
        let mut t = Table::new("t", &["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        // No producer: the CSV and no INDEX.
        let csv = t.write_csv("unit_test_twice");
        let index = dir.join(crate::provenance::INDEX);
        assert!(csv.is_file() && !index.exists());

        let line = |bytes: &[u8]| {
            let digest = crate::provenance::digest(bytes);
            format!("unit_test_twice.csv {digest} table1 --quick --protocol=mesif --telemetry=0\n")
        };
        let write = |t: &Table| {
            crate::provenance::producing("table1", &Default::default(), || {
                t.write_csv("unit_test_twice")
            })
        };
        write(&t);
        let (csv_bytes, index_text) =
            (fs::read(&csv).unwrap(), fs::read_to_string(&index).unwrap());
        assert_eq!(index_text, line(&csv_bytes));
        let (csv_old, index_old) = (backdate(&csv), backdate(&index));

        // The same table again: neither file is touched.
        assert_eq!(write(&t), csv);
        assert_eq!((mtime(&csv), mtime(&index)), (csv_old, index_old));
        assert_eq!(fs::read(&csv).unwrap(), csv_bytes);
        assert_eq!(fs::read_to_string(&index).unwrap(), index_text);

        // Another row: the CSV is rewritten and its line names the new bytes.
        t.row(vec!["3".into(), "4".into()]);
        write(&t);
        assert_eq!(fs::read_to_string(&csv).unwrap(), "x,y\n1,2\n3,4\n");
        assert_ne!(mtime(&csv), csv_old);
        assert_eq!(
            fs::read_to_string(&index).unwrap(),
            line(b"x,y\n1,2\n3,4\n")
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// RFC 4180 reader for the round-trip test: records of cells.
    fn split_csv(text: &str) -> Vec<Vec<String>> {
        let (mut records, mut record, mut cell, mut quoted) =
            (vec![], vec![], String::new(), false);
        let mut it = text.chars().peekable();
        while let Some(c) = it.next() {
            match c {
                '"' if quoted && it.peek() == Some(&'"') => cell.push(it.next().unwrap()),
                '"' => quoted = !quoted,
                ',' | '\n' if !quoted => {
                    record.push(std::mem::take(&mut cell));
                    if c == '\n' {
                        records.push(std::mem::take(&mut record));
                    }
                }
                _ => cell.push(c),
            }
        }
        records
    }

    #[test]
    fn csv_quotes_only_cells_that_need_it() {
        let _dir = ResultsDirGuard::set(&std::env::temp_dir().join("knl_test_results"));
        let mut t = Table::new("t", &["plain", "tuned w/o stagger, re-costed"]);
        t.row(vec!["KNL rings (0.5 ns)".into(), "a \"b\"".into()]);
        t.row(vec!["two\nlines".into(), "1.5".into()]);
        let s = std::fs::read_to_string(t.write_csv("unit_test_quoting")).unwrap();
        assert_eq!(
            s,
            "plain,\"tuned w/o stagger, re-costed\"\n\
             KNL rings (0.5 ns),\"a \"\"b\"\"\"\n\
             \"two\nlines\",1.5\n"
        );
        let mut want = vec![t.header.clone()];
        want.extend(t.rows.iter().cloned());
        assert_eq!(split_csv(&s), want);
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(secs(2.5), "2.50 s");
        assert_eq!(secs(0.0025), "2.50 ms");
        assert_eq!(secs(2.5e-6), "2.50 µs");
        assert_eq!(secs(250e-9), "250 ns");
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.254), "1.25");
        assert_eq!(x1(7.04), "7.0x");
        assert_eq!(cell(Some(2.5e-6), secs), "2.50 µs");
        assert_eq!(cell(None, f1), "-");
    }
}
