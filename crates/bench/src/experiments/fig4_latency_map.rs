//! Regenerates **Fig. 4**: latency of cache-line transfers between core 0
//! and every other core in SNC4-flat mode, for M, E, and I states.
//!
//! Each partner core is measured on its own freshly constructed `Machine`
//! (the address regions and `prep_lines` make the per-partner measurements
//! independent), so partners are parallel jobs under `--jobs`; the merged
//! map is bit-identical to a `--jobs 1` run.

use crate::output::{f1, Table};
use crate::runconf::{Effort, RunConf};
use crate::sweep::{executor, machine, TraceSink};
use knl_arch::{ClusterMode, CoreId, MachineConfig, MemoryMode};
use knl_benchsuite::pointer_chase::{invalid_latency, transfer_latency};
use knl_sim::LineState;

pub fn run(conf: &RunConf, sink: &TraceSink) {
    let iters = if conf.effort == Effort::Paper { 21 } else { 5 };
    let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat);
    let origin = CoreId(0);
    let states = [
        LineState::Modified,
        LineState::Exclusive,
        LineState::Invalid,
    ];
    let num_cores = cfg.num_cores() as u16;

    let partners: Vec<u16> = (1..num_cores).collect();
    eprintln!(
        "measuring {} partners x {} states x {iters} iterations ({} jobs) ...",
        partners.len(),
        states.len(),
        conf.jobs
    );
    // One row per partner: the median latency in each of `states`.
    let rows = executor(conf).run("fig4", &partners, |i, &partner| {
        let mut m = machine(conf, cfg.clone());
        let owner = CoreId(partner);
        // Helper: any tile different from both owner and origin.
        let helper = (0..num_cores)
            .map(CoreId)
            .find(|c| c.tile() != owner.tile() && c.tile() != origin.tile())
            .expect("machine has ≥3 tiles");
        let row = states.map(|st| {
            let sample = if st == LineState::Invalid {
                invalid_latency(&mut m, origin, iters, partner as u64)
            } else {
                transfer_latency(&mut m, owner, origin, helper, st, iters)
            };
            sample.median()
        });
        m.finish_check();
        sink.submit(i, &mut m);
        row
    });

    let mut table = Table::new(
        "Fig. 4 — latency core 0 -> core c, SNC4-flat [ns]",
        &["core", "tile", "quadrant", "M", "E", "I"],
    );
    let topo = cfg.topology();
    for (&c, [m, e, i]) in partners.iter().zip(&rows) {
        let core = CoreId(c);
        table.row(vec![
            c.to_string(),
            core.tile().to_string(),
            topo.tile_quadrant(core.tile()).to_string(),
            f1(*m),
            f1(*e),
            f1(*i),
        ]);
    }
    table.emit("fig4_latency_map");

    // Shape summary: same-tile fast (core 1 shares core 0's tile), remote
    // flat-ish, I = memory.
    let (tile, remote) = rows.split_first().expect("core 0 has partners");
    let tile_m = tile[0];
    let rm_min = remote.iter().map(|r| r[0]).fold(f64::INFINITY, f64::min);
    let rm_max = remote.iter().map(|r| r[0]).fold(0.0, f64::max);
    println!();
    println!(
        "tile M: {tile_m:.1} ns; remote M range: {rm_min:.1}-{rm_max:.1} ns (paper: 34 vs 107-122)"
    );
}
