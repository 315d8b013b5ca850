//! The `knl` subcommands that are not experiments, each a function over
//! its argument list (the words after the subcommand).

pub mod mc;
pub mod provenance;
pub mod report;
pub mod trace;

use std::path::Path;
use std::process::exit;

/// The line number of the first unparseable line of a file and how many
/// more follow it: no report may be printed from such a file.
type BadLines = (usize, usize);

/// Hand every line of `text` to `accept` and report the ones it refused.
/// A last line without its newline counts as refused: every writer ends
/// its lines, so the file was cut there, and a number cut short still
/// parses.
fn check_lines(text: &str, mut accept: impl FnMut(&str) -> bool) -> Result<(), BadLines> {
    let cut_line = (!text.ends_with('\n')).then(|| text.lines().count());
    let mut bad = (1..)
        .zip(text.lines())
        .filter(|&(n, line)| !accept(line) || Some(n) == cut_line)
        .map(|(n, _)| n);
    match bad.next() {
        Some(first) => Err((first, bad.count())),
        None => Ok(()),
    }
}

/// `parse` over the file at `path`, for `knl trace` and `knl report`: exit
/// 1 when it cannot be read, exit 2 with `PATH:LINE` when a line is bad —
/// a report from the lines that did parse would be silently wrong.
fn load<T>(path: &Path, parse: impl FnOnce(&str) -> Result<T, BadLines>) -> T {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        exit(1);
    });
    parse(&text).unwrap_or_else(|(first, more)| {
        let path = path.display();
        eprintln!("{path}:{first}: unparseable line ({more} more after it)");
        exit(2);
    })
}
