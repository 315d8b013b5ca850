//! The experiment registry: every table and figure regenerator is one row
//! of [`EXPERIMENTS`], run by `knl run <id>` through [`run`].

use crate::collective_fig::{self, CollectiveKind};
use crate::runconf::RunConf;
use crate::sweep::TraceSink;

mod ablation;
mod fig10_sort;
mod fig1_tree;
mod fig4_latency_map;
mod fig5_cachebw;
mod fig9_triad;
mod hybrid_explorer;
mod protocols;
mod speedups;
mod table1;
mod table2;

/// One regenerator.
pub struct Experiment {
    /// Name on the command line; also the progress label, the stem of the
    /// default `results/<id>.trace` / `.telemetry` files and the `binary`
    /// value of the manifests it writes.
    pub id: &'static str,
    /// What it regenerates in the paper.
    pub paper_ref: &'static str,
    /// One line for `knl list`.
    pub about: &'static str,
    /// The body: sweeps under the parsed command line, machines submitted
    /// to the driver's sink, tables on stdout, CSVs under `results/`.
    pub run: fn(&RunConf, &TraceSink),
}

/// Every experiment, in the order `knl run all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        paper_ref: "Table I",
        about: "cache-to-cache latency, bandwidth, contention, congestion x 5 cluster modes",
        run: table1::run,
    },
    Experiment {
        id: "table2",
        paper_ref: "Table II",
        about: "memory latency and bandwidth x 5 cluster modes, flat and cache",
        run: table2::run,
    },
    Experiment {
        id: "fig1_tree",
        paper_ref: "Fig. 1",
        about: "model-tuned reduction tree for 64 cores, cache mode",
        run: fig1_tree::run,
    },
    Experiment {
        id: "fig4_latency_map",
        paper_ref: "Fig. 4",
        about: "latency core 0 -> every core for M/E/I lines, SNC4-flat",
        run: fig4_latency_map::run,
    },
    Experiment {
        id: "fig5_cachebw",
        paper_ref: "Fig. 5",
        about: "cache-to-cache copy bandwidth vs size, SNC4-cache",
        run: fig5_cachebw::run,
    },
    Experiment {
        id: "fig6_barrier",
        paper_ref: "Fig. 6",
        about: "barrier: model-tuned vs OpenMP-like vs MPI-like, min-max model band",
        run: |c, s| collective_fig::run("fig6_barrier", CollectiveKind::Barrier, c, s),
    },
    Experiment {
        id: "fig7_broadcast",
        paper_ref: "Fig. 7",
        about: "broadcast: the same comparison",
        run: |c, s| collective_fig::run("fig7_broadcast", CollectiveKind::Broadcast, c, s),
    },
    Experiment {
        id: "fig8_reduce",
        paper_ref: "Fig. 8",
        about: "reduce: the same comparison",
        run: |c, s| collective_fig::run("fig8_reduce", CollectiveKind::Reduce, c, s),
    },
    Experiment {
        id: "fig9_triad",
        paper_ref: "Fig. 9",
        about: "triad bandwidth vs threads, MCDRAM vs DRAM, two schedules, SNC4-flat",
        run: fig9_triad::run,
    },
    Experiment {
        id: "fig10_sort",
        paper_ref: "Fig. 10",
        about: "merge sort vs threads against the memory and overhead models",
        run: fig10_sort::run,
    },
    Experiment {
        id: "speedups",
        paper_ref: "§IV-B.3",
        about: "headline speedups of the model-tuned collectives, single-copy MPI what-if",
        run: speedups::run,
    },
    Experiment {
        id: "ablation",
        paper_ref: "extension",
        about: "which simulator mechanism produces which measured phenomenon",
        run: ablation::run,
    },
    Experiment {
        id: "hybrid_explorer",
        paper_ref: "extension (§II-C)",
        about: "the hybrid memory mode the paper describes but never evaluates",
        run: hybrid_explorer::run,
    },
    Experiment {
        id: "protocols",
        paper_ref: "extension",
        about: "capability models under MESIF, MESI, MOESI and Dragon, side by side",
        run: protocols::run,
    },
];

/// The row named `id`.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Run one experiment the way `knl run <id>` does: attribute what it
/// writes to `(id, conf)`, give it its one sink, write the sink's trace
/// and telemetry files once the body returns.
pub fn run(exp: &Experiment, conf: &RunConf) {
    crate::provenance::set_producer(exp.id, conf);
    let sink = TraceSink::new(conf, exp.id);
    (exp.run)(conf, &sink);
    sink.write().expect("write trace");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_the_fourteen_in_order() {
        // Unique and non-empty by inspection of the literal; `all` is the
        // driver's word, never an id.
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(
            ids.join(" "),
            "table1 table2 fig1_tree fig4_latency_map fig5_cachebw fig6_barrier fig7_broadcast \
             fig8_reduce fig9_triad fig10_sort speedups ablation hybrid_explorer protocols"
        );
        for e in EXPERIMENTS {
            assert!(!e.paper_ref.is_empty() && !e.about.is_empty(), "{}", e.id);
            assert_eq!(find(e.id).map(|found| found.id), Some(e.id));
        }
        assert!(find("all").is_none() && find("").is_none());
    }

    #[test]
    fn every_id_is_in_the_design_index_and_the_readme_quick_start() {
        let root = crate::provenance::workspace_root();
        let read = |name: &str| std::fs::read_to_string(root.join(name)).expect(name);
        let between = |text: &str, from: &str, to: &str| {
            let (_, rest) = text
                .split_once(from)
                .unwrap_or_else(|| panic!("no {from:?}"));
            rest.split_once(to)
                .map_or(rest, |(section, _)| section)
                .to_string()
        };
        let design = read("DESIGN.md");
        let index = between(&design, "\n## 4. Experiment index", "\n## 5. ");
        let readme = read("README.md");
        let quick_start = between(
            &readme,
            "\n## Regenerating the paper's tables and figures",
            "\n## ",
        );
        for e in EXPERIMENTS {
            let command = format!("knl run {}`", e.id);
            assert!(index.contains(&command), "DESIGN.md §4 lacks `{command}");
            let command = format!("-- run {}", e.id);
            assert!(quick_start.contains(&command), "README lacks `{command}`");
        }

        // `cargo test` compiles the examples and nothing else lists them:
        // the Quickstart names every file under `examples/`, and the README
        // names no other.
        let examples = root.join("examples");
        let listed = between(&readme, "\n## Quickstart", "\n## ");
        for entry in std::fs::read_dir(&examples).expect("examples/") {
            let path = entry.expect("examples/ entry").path();
            let name = path.file_stem().expect("file name").to_string_lossy();
            let command = format!("--example {name} ");
            assert!(listed.contains(&command), "README lacks `{command}`");
        }
        for rest in readme.split("--example ").skip(1) {
            let name = rest.split_whitespace().next().unwrap_or_default();
            let file = examples.join(format!("{name}.rs"));
            assert!(
                file.is_file(),
                "README names example `{name}`, no such file"
            );
        }
    }
}
