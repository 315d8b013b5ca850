//! Perf-guard tests for the recorded bench trajectory (DESIGN.md §6).
//!
//! The deterministic part runs in every profile: the checked-in
//! `BENCH_13.json` must be canonical bytes (bit-exact round trip through
//! `knl_stats::json`) and must record every case the live suite defines,
//! in suite order, so the trajectory can never drift out of sync with the
//! code. Cases deleted from the suite since the recording stay in the file
//! (`knl-bench-record --baseline` reports them as `removed`).
//!
//! The timing part is release-only and warn-only by default: medians on a
//! shared single-CPU runner are too noisy to gate merges on, so a
//! violation prints a warning unless `KNL_BENCH_STRICT=1` is set (the CI
//! bench-record job sets it on the dedicated runner).

use knl_bench::benchcases::{simulator_throughput_suite, SUITE};
use knl_bench::microbench::parse_trajectory;
use knl_stats::json::Json;

/// Path of the checked-in trajectory for this PR, relative to the crate.
const TRAJECTORY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_13.json");

fn checked_in() -> (String, Json) {
    let text = std::fs::read_to_string(TRAJECTORY)
        .unwrap_or_else(|e| panic!("cannot read {TRAJECTORY}: {e}"));
    let doc = Json::parse(&text).expect("BENCH_13.json must be valid JSON");
    (text, doc)
}

#[test]
fn checked_in_trajectory_roundtrips_bit_exactly() {
    let (text, doc) = checked_in();
    // knl-bench-record writes `render()` plus a trailing newline; parsing
    // and re-rendering must reproduce the file byte for byte, which is
    // what makes re-recording an unchanged run a no-op diff.
    assert_eq!(format!("{}\n", doc.render()), text);
}

#[test]
fn checked_in_trajectory_matches_live_suite() {
    let (_, doc) = checked_in();
    assert_eq!(
        doc.get("format").and_then(Json::as_str),
        Some("knl-bench-trajectory-v1")
    );
    assert_eq!(doc.get("pr").and_then(Json::as_u64), Some(13));
    assert_eq!(doc.get("suite").and_then(Json::as_str), Some(SUITE));

    let suite = simulator_throughput_suite();
    let live_keys: Vec<String> = suite
        .iter()
        .map(|c| format!("{}/{}", c.group, c.name))
        .collect();
    let mut recorded = parse_trajectory(&doc).expect("trajectory must parse");
    recorded.retain(|r| live_keys.contains(&r.key()));
    let recorded_keys: Vec<String> = recorded.iter().map(|r| r.key()).collect();
    assert_eq!(
        recorded_keys, live_keys,
        "BENCH_13.json is out of sync with benchcases::simulator_throughput_suite \
         — re-run knl-bench-record"
    );
    for (r, c) in recorded.iter().zip(&suite) {
        assert_eq!(r.bytes, c.bytes, "{}: bytes-per-iter drifted", r.key());
        assert!(r.ns_per_iter > 0.0, "{}: non-positive time", r.key());
    }
}

/// The empty observer hub must stay close to the recorded baseline. The
/// tolerance is wide (4x) because this guards against structural
/// regressions (an always-taken dispatch loop creeping back into the hot
/// path), not scheduler jitter. Warn-only unless KNL_BENCH_STRICT=1.
#[cfg(not(debug_assertions))]
#[test]
fn empty_hub_stays_near_recorded_baseline() {
    use knl_bench::microbench::measure;

    let (_, doc) = checked_in();
    let recorded = parse_trajectory(&doc).expect("trajectory must parse");
    let baseline = recorded
        .iter()
        .find(|r| r.name == "remote_transfer_all_observers_off")
        .expect("baseline case present")
        .ns_per_iter;

    let mut case = simulator_throughput_suite()
        .into_iter()
        .find(|c| c.name == "remote_transfer_all_observers_off")
        .expect("live case present");
    let measured = measure(&mut case.run);

    let limit = baseline * 4.0;
    if measured > limit {
        let msg = format!(
            "empty-hub dispatch regressed: {measured:.1} ns/iter vs recorded \
             {baseline:.1} ns/iter (limit {limit:.1})"
        );
        if std::env::var("KNL_BENCH_STRICT").as_deref() == Ok("1") {
            panic!("{msg}");
        }
        println!("warning: {msg} — not failing without KNL_BENCH_STRICT=1");
    }
}
