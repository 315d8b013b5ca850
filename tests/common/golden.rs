//! The one bless/compare step of the golden-file tests: `assert_golden`
//! checks a rendered text against `tests/golden/<name>` byte for byte, or
//! rewrites the file when `KNL_UPDATE_GOLDEN` is set.

use std::path::PathBuf;

/// Compare `got` with `tests/golden/<name>` as a whole text, or write it
/// there under `KNL_UPDATE_GOLDEN`. A mismatch names the first differing
/// line (a missing or extra trailing newline included) and the command
/// that regenerates the file.
pub fn assert_golden(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let regen = concat!(
        "KNL_UPDATE_GOLDEN=1 cargo test --test ",
        env!("CARGO_CRATE_NAME")
    );
    if std::env::var_os("KNL_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}\nrun `{regen}` to create it", path.display()));
    if got == want {
        return;
    }
    let (mut g, mut w) = (got.split('\n'), want.split('\n'));
    let mut line = 1;
    loop {
        match (g.next(), w.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => panic!(
                "{name} drifted at line {line}:\n  got:  {}\n  want: {}\n\
                 run `{regen}` after an intentional change and review the diff",
                a.unwrap_or("<end of text>"),
                b.unwrap_or("<end of text>"),
            ),
        }
    }
}
