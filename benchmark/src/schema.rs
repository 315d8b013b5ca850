//! `BENCHMARK.json` is the single list of metric names, units, directions and
//! bounds; it is compiled in, so the program and the file cannot disagree
//! about what is emitted (the tests below hold the program to it).

use knl_stats::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may worsen.
    pub bound: Option<f64>,
}

fn document() -> Json {
    Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

fn metrics(section: &str) -> Vec<MetricDef> {
    let doc = document();
    let list = doc
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric list");
    list.iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Json::as_str).expect("metric field");
            MetricDef {
                name: text("name").to_string(),
                unit: text("unit").to_string(),
                higher_is_better: text("better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

pub fn end_to_end() -> Vec<MetricDef> {
    metrics("end_to_end")
}

pub fn per_layer() -> Vec<MetricDef> {
    metrics("per_layer")
}

pub fn run_seconds() -> f64 {
    document()
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds")
}

/// Per-layer metrics that are deterministic simulated quantities: compared
/// across commits by equality, never as speed-ups.
pub fn is_exact(name: &str) -> bool {
    (name.starts_with("sim.") && !name.ends_with(".s") && !name.ends_with(".calls"))
        || name.starts_with("model.")
        || name == "bench.io.bytes"
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, workloads};

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn file_has_exactly_the_contract_keys_and_limits() {
        let Json::Obj(doc) = document() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = doc.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(BENCHMARK_JSON.len() <= 64 << 10);
        let secs = run_seconds();
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
        assert!(
            (1..=16).contains(&end_to_end().len()),
            "≤ 16 end-to-end metrics"
        );
        assert!(
            (1..=128).contains(&per_layer().len()),
            "≤ 128 per-layer metrics"
        );
        for m in end_to_end() {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = end_to_end()
            .into_iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let widest = end_to_end()
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the widest bound"
        );
    }

    #[test]
    fn workloads_match_the_program() {
        let doc = document();
        let listed: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(listed, workloads::NAMES);
        assert!((2..=8).contains(&listed.len()));
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why}"
            );
        }
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<String> = workloads::NAMES.iter().map(|s| s.to_string()).collect();
        for m in end_to_end().into_iter().chain(per_layer()) {
            assert!(valid_name(&m.name), "bad name {}", m.name);
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok));
            names.push(m.name);
        }
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
    }

    /// Every name the program emits is listed, and every listed name is emitted.
    #[test]
    fn emitted_names_equal_listed_names() {
        let listed = |defs: Vec<MetricDef>| -> Vec<(String, String)> {
            defs.into_iter().map(|m| (m.name, m.unit)).collect()
        };
        assert_eq!(run::emitted_names(false), listed(end_to_end()));
        assert_eq!(run::emitted_names(true), listed(per_layer()));
    }

    #[test]
    fn exact_metrics_are_the_simulated_ones() {
        let exact: Vec<String> = per_layer()
            .into_iter()
            .map(|m| m.name)
            .filter(|n| is_exact(n))
            .collect();
        assert_eq!(exact.len(), 17, "{exact:?}");
        assert!(is_exact("sim.time_ps") && is_exact("model.calib_err_pct"));
        assert!(!is_exact("sim.reset.s") && !is_exact("sim.machine_build.calls"));
        assert!(!is_exact("probe.engine.l1_hit_ns"));
    }
}
