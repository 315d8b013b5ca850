//! Regenerates **Fig. 5**: bandwidth of cache-to-cache copies in
//! SNC4-cache mode vs message size (64 B – 256 KB), for M and E states and
//! three partner locations (same tile / same quadrant / remote quadrant).
//!
//! Each (location, state) series runs on its own fresh `Machine`
//! (`copy_bandwidth` resets caches and salts addresses per iteration), so
//! the series are parallel jobs under `--jobs` with the output merged in
//! canonical order — bit-identical to `--jobs 1`.

use crate::output::{f2, Table};
use crate::runconf::{Effort, RunConf};
use crate::sweep::{executor, machine, TraceSink};
use knl_arch::{ClusterMode, CoreId, MachineConfig, MemoryMode};
use knl_benchsuite::cachebw::{copy_bandwidth, fig5_partners};
use knl_sim::LineState;

pub fn run(conf: &RunConf, sink: &TraceSink) {
    let (iters, sizes): (usize, Vec<u64>) = match conf.effort {
        Effort::Paper => (11, (6..=18).map(|p| 1u64 << p).collect()),
        Effort::Quick => (5, vec![64, 1 << 10, 16 << 10, 256 << 10]),
    };
    let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Cache);
    let reader = CoreId(0);
    let partners = fig5_partners(&cfg.topology(), reader);

    let series: Vec<(String, CoreId, LineState)> = partners
        .iter()
        .flat_map(|(loc, owner)| {
            [LineState::Modified, LineState::Exclusive]
                .into_iter()
                .map(move |st| (loc.to_string(), *owner, st))
        })
        .collect();
    eprintln!(
        "fig5: {} series x {} sizes ({} jobs) ...",
        series.len(),
        sizes.len(),
        conf.jobs
    );
    let measured = executor(conf).run("fig5", &series, |i, (_, owner, st)| {
        let mut m = machine(conf, cfg.clone());
        // Helper on a tile distinct from both reader and owner.
        let helper = (0..m.config().num_cores() as u16)
            .map(CoreId)
            .find(|c| c.tile() != reader.tile() && c.tile() != owner.tile())
            .expect("helper tile");
        let row = sizes
            .iter()
            .map(|&bytes| {
                copy_bandwidth(&mut m, *owner, reader, helper, *st, bytes, iters).median()
            })
            .collect::<Vec<f64>>();
        m.finish_check();
        sink.submit(i, &mut m);
        row
    });

    let mut table = Table::new(
        "Fig. 5 — copy bandwidth, SNC4-cache [GB/s]",
        &["bytes", "location", "state", "GB/s"],
    );
    for ((loc, _, st), gbps) in series.iter().zip(measured) {
        for (&bytes, g) in sizes.iter().zip(gbps) {
            table.row(vec![
                bytes.to_string(),
                loc.clone(),
                st.letter().to_string(),
                f2(g),
            ]);
        }
    }
    table.emit("fig5_cachebw");
}
