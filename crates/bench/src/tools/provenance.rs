//! `knl provenance` — verifier/stamper for the `results/` tree.
//!
//! * `knl provenance --verify` (default): check every tracked artifact's
//!   sidecar manifest against the current source digest; exit non-zero if
//!   any is stale, missing, or corrupt. CI runs this so a results CSV
//!   produced by older sources can never silently survive a code change.
//! * `knl provenance --stamp`: re-bless the current artifacts as products
//!   of the current tree — refreshes each manifest's source digest and
//!   trajectory, keeps the experiment and run configuration that produced
//!   the artifact. Run after regenerating results, before committing them.
//! * `knl provenance --show PATH`: print one artifact's manifest.

use crate::output::results_dir;
use crate::provenance::{
    manifest_path, source_digest, stamp_manifest, tracked_artifacts, verify, Verdict,
};
use std::path::Path;

pub fn run(args: impl IntoIterator<Item = String>) {
    let args: Vec<String> = args.into_iter().collect();
    let mode = args.first().map(String::as_str).unwrap_or("--verify");
    match mode {
        "--verify" => run_verify(),
        "--stamp" => run_stamp(),
        "--show" => {
            let Some(path) = args.get(1) else {
                eprintln!("--show requires an artifact path");
                std::process::exit(2);
            };
            match std::fs::read_to_string(manifest_path(Path::new(path))) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("no manifest for {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        "--help" | "-h" => {
            println!(
                "usage: knl provenance [--verify|--stamp|--show PATH]\n\
                 \x20 --verify  check results/ manifests against the current\n\
                 \x20           sources (exit 1 on stale/missing; CI gate)\n\
                 \x20 --stamp   re-write manifests blessing current artifacts\n\
                 \x20 --show    print one artifact's manifest"
            );
        }
        other => {
            eprintln!("unknown argument: {other} (try --help)");
            std::process::exit(2);
        }
    }
}

fn run_verify() {
    let results = results_dir();
    let artifacts = tracked_artifacts(&results);
    if artifacts.is_empty() {
        eprintln!("no tracked artifacts under {}", results.display());
        return;
    }
    eprintln!("current source digest: {}", source_digest());
    let mut bad = 0usize;
    for a in &artifacts {
        let rel = a.strip_prefix(&results).unwrap_or(a).display();
        match verify(a) {
            Verdict::Fresh => eprintln!("  fresh   {rel}"),
            Verdict::Stale { recorded } => {
                eprintln!("  STALE   {rel} (stamped {recorded})");
                bad += 1;
            }
            Verdict::Missing => {
                eprintln!("  MISSING {rel} (no manifest)");
                bad += 1;
            }
            Verdict::Corrupt => {
                eprintln!("  CORRUPT {rel} (unreadable manifest)");
                bad += 1;
            }
        }
    }
    if bad > 0 {
        eprintln!(
            "{bad}/{} artifacts stale relative to the current tree; \
             regenerate them (or bless with `knl provenance --stamp`)",
            artifacts.len()
        );
        std::process::exit(1);
    }
    eprintln!("all {} artifacts fresh", artifacts.len());
}

fn run_stamp() {
    let results = results_dir();
    let artifacts = tracked_artifacts(&results);
    for a in &artifacts {
        stamp_manifest(a);
        eprintln!(
            "  stamped {}",
            a.strip_prefix(&results).unwrap_or(a).display()
        );
    }
    eprintln!(
        "stamped {} artifacts at {}",
        artifacts.len(),
        source_digest()
    );
}
