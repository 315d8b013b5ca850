//! Picosecond quantities are integers (`SimTime`/`u64`): a float sum drifts
//! with the order of its terms, so simulated time would depend on it. Convert
//! to float only where a number is reported. Clippy has no lint for a naming
//! rule, so this test scans every `.rs` file of the repository.

use knl_bench::provenance::{collect_rs, workspace_root};

#[test]
fn picosecond_quantities_are_not_floats() {
    let mut files = Vec::new();
    collect_rs(&workspace_root(), &mut files);
    assert!(files.len() > 100, "walked the wrong tree: {files:?}");
    // Split so this file does not match itself.
    let float_ps = concat!("_ps: ", "f64");
    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        for (n, line) in (1..).zip(text.lines()) {
            if line.contains(float_ps) {
                hits.push(format!("{}:{n}", file.display()));
            }
        }
    }
    assert!(hits.is_empty(), "use SimTime/u64 for `*_ps`: {hits:?}");
}
