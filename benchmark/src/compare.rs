//! `--compare A.json B.json`: B (the change) against A (the base), judged by
//! the bounds in `BENCHMARK.json`. One row per (end-to-end metric, workload);
//! exact simulated counts are compared by equality, never as speed-ups.

use crate::harness::summarize;
use crate::run::FORMAT;
use crate::schema::{self, MetricDef};
use knl_stats::json::Json;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound allows, and the spread does not explain it.
    Regressed,
    /// Worse than the bound allows, but the run-to-run spread is wider than
    /// the bound and the two sides' repetitions interleave.
    Unresolved,
    Equal,
    Changed,
}

/// One side of a comparison: the reported value and the per-repetition
/// samples behind it.
pub struct Side {
    pub value: f64,
    pub samples: Vec<f64>,
}

/// Judge one end-to-end metric: B's value against A's by the bound, and — when
/// it is worse than the bound allows — whether the samples can carry a verdict.
pub fn judge(def: &MetricDef, a: &Side, b: &Side) -> (f64, Verdict) {
    let ratio = b.value / a.value;
    let worse_by = if def.higher_is_better {
        1.0 - ratio
    } else {
        ratio - 1.0
    };
    let bound = def.bound.unwrap_or(0.0);
    if worse_by <= bound {
        return (ratio, Verdict::Ok);
    }
    let (sa, sb) = (summarize(&a.samples), summarize(&b.samples));
    let spread = (sa.q3 - sa.q1).max(sb.q3 - sb.q1) / sa.median;
    let worse = |x: f64, y: f64| if def.higher_is_better { x < y } else { x > y };
    let separated = b
        .samples
        .iter()
        .all(|&x| a.samples.iter().all(|&y| worse(x, y)));
    if spread > bound && !separated {
        (ratio, Verdict::Unresolved)
    } else {
        (ratio, Verdict::Regressed)
    }
}

/// The runs of a result file: an `--all` file holds many, a `--workload` file one.
fn runs(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).ok_or(format!("{path}: not JSON"))?;
    if doc.get("format").and_then(Json::as_str) != Some(FORMAT) {
        return Err(format!("{path}: not a {FORMAT} file"));
    }
    Ok(match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.to_vec(),
        None => vec![doc],
    })
}

fn find<'a>(runs: &'a [Json], workload: &str, trace: bool) -> Option<&'a Json> {
    runs.iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("trace") == Some(&Json::Bool(trace))
    })
}

fn side(run: &Json, metric: &str) -> Option<Side> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        samples: m
            .get("samples")?
            .as_arr()?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<_>>()?,
    })
}

/// Print the comparison; `Ok(false)` on any `regressed` or `changed` row.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a_runs, b_runs) = (runs(a_path)?, runs(b_path)?);
    let mut counts = [0usize; 5];
    println!(
        "{:<20} {:<14} {:>14} {:>14} {:>9}  verdict (ratio = B / A, base A = {a_path})",
        "workload", "metric", "A", "B", "ratio"
    );
    for workload in crate::workloads::NAMES {
        if let (Some(a), Some(b)) = (
            find(&a_runs, workload, false),
            find(&b_runs, workload, false),
        ) {
            for def in schema::end_to_end() {
                let (Some(sa), Some(sb)) = (side(a, &def.name), side(b, &def.name)) else {
                    return Err(format!("{workload}: {} missing from a file", def.name));
                };
                let (ratio, verdict) = judge(&def, &sa, &sb);
                counts[verdict as usize] += 1;
                println!(
                    "{workload:<20} {:<14} {:>14.6} {:>14.6} {ratio:>9.4}  {verdict:?} (bound {}, {} {})",
                    def.name,
                    sa.value,
                    sb.value,
                    def.bound.unwrap_or(0.0),
                    def.unit,
                    if def.higher_is_better { "higher is better" } else { "lower is better" },
                );
            }
        }
        if let (Some(a), Some(b)) = (find(&a_runs, workload, true), find(&b_runs, workload, true)) {
            for def in schema::per_layer()
                .iter()
                .filter(|d| schema::is_exact(&d.name))
            {
                let value = |run: &Json| side(run, &def.name).map(|s| s.value.to_bits());
                let (va, vb) = (value(a), value(b));
                let verdict = if va.is_some() && va == vb {
                    Verdict::Equal
                } else {
                    Verdict::Changed
                };
                counts[verdict as usize] += 1;
                if verdict == Verdict::Changed {
                    let show = |bits: Option<u64>| bits.map(f64::from_bits);
                    println!(
                        "{workload:<20} {:<30} {:?} -> {:?}  Changed",
                        def.name,
                        show(va),
                        show(vb)
                    );
                }
            }
        }
    }
    let [ok, regressed, unresolved, equal, changed] = counts;
    println!(
        "{ok} ok, {regressed} regressed, {unresolved} unresolved; \
         exact simulated counts: {equal} equal, {changed} changed"
    );
    if ok + regressed + unresolved + equal + changed == 0 {
        return Err("the two files share no (workload, trace) run".into());
    }
    Ok(regressed == 0 && changed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher_is_better: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s".into(),
            higher_is_better,
            bound: Some(bound),
        }
    }

    /// A side whose reported value is the best of its samples.
    fn side(samples: &[f64], higher_is_better: bool) -> Side {
        let pick = if higher_is_better { f64::max } else { f64::min };
        Side {
            value: samples.iter().copied().reduce(pick).unwrap(),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn within_the_bound_is_ok_in_both_directions() {
        let lower = def(false, 0.10);
        let base = side(&[1.0; 3], false);
        assert_eq!(
            judge(&lower, &base, &side(&[1.09; 3], false)).1,
            Verdict::Ok
        );
        assert_eq!(judge(&lower, &base, &side(&[0.5; 3], false)).1, Verdict::Ok);
        let higher = def(true, 0.10);
        let base = side(&[10.0; 3], true);
        assert_eq!(judge(&higher, &base, &side(&[9.5; 3], true)).1, Verdict::Ok);
        assert_eq!(
            judge(&higher, &base, &side(&[20.0; 3], true)).1,
            Verdict::Ok
        );
    }

    #[test]
    fn beyond_the_bound_is_regressed_when_runs_are_tight() {
        let (a, b) = (
            side(&[1.0, 1.01, 1.02], false),
            side(&[1.2, 1.21, 1.22], false),
        );
        let (ratio, v) = judge(&def(false, 0.10), &a, &b);
        assert!((ratio - 1.2).abs() < 1e-12);
        assert_eq!(v, Verdict::Regressed);
        let (a, b) = (side(&[10.0; 3], true), side(&[8.0; 3], true));
        assert_eq!(judge(&def(true, 0.10), &a, &b).1, Verdict::Regressed);
    }

    #[test]
    fn wide_interleaved_runs_are_unresolved_not_regressed() {
        let a = side(&[1.0, 1.4, 0.8, 1.3, 0.9], false);
        let b = side(&[1.2, 1.5, 0.95, 1.45, 1.0], false);
        assert_eq!(judge(&def(false, 0.10), &a, &b).1, Verdict::Unresolved);
        // Wide but fully separated: every B run is worse than every A run.
        let b_far = side(&[2.0, 2.6, 1.9, 2.4, 2.1], false);
        assert_eq!(judge(&def(false, 0.10), &a, &b_far).1, Verdict::Regressed);
    }
}
