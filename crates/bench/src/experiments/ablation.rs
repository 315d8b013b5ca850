//! Ablations of the design choices DESIGN.md calls out: each knob is
//! switched off/varied and the affected capability re-measured, showing
//! which mechanism *produces* which phenomenon (rather than the phenomenon
//! being baked in).
//!
//! Every ablation row builds its own `Machine` from a varied config, so the
//! rows are independent jobs and run under `--jobs` workers; rows are merged
//! back in parameter order, keeping the output bit-identical to `--jobs 1`.

use crate::output::{f1, Table};
use crate::runconf::RunConf;
use crate::sweep::{executor, machine, TraceSink};
use knl_arch::{ClusterMode, CoreId, MachineConfig, MemoryMode, Schedule};
use knl_benchsuite::congestion::{congestion, congestion_with_pairs};
use knl_benchsuite::contention::{self, contention};
use knl_benchsuite::membw::{bandwidth_sample, Target};
use knl_benchsuite::{SuiteParams, SweepExecutor};
use knl_core::tree_opt::{optimize_tree, tree_cost, TreeKind};
use knl_core::CapabilityModel;
use knl_sim::{Machine, StreamKind};

pub fn run(conf: &RunConf, sink: &TraceSink) {
    let exec = executor(conf);
    // One merged trace across the ablation sweeps; each sweep claims a
    // disjoint job-index range so sections stay in a canonical order.
    let mut base = 0;
    base += ablate_directory_serialization(conf, &exec, sink, base);
    base += ablate_ddr_write_mixing(conf, &exec, sink, base);
    base += ablate_mlp_caps(conf, &exec, sink, base);
    ablate_tree_staggering();
    ablate_mesh_occupancy(conf, &exec, sink, base);
}

/// Ablation 1: the per-line serialization at the home CHA is what produces
/// the paper's contention law T_C(N) = α + β·N. Turning it off flattens β.
fn ablate_directory_serialization(
    conf: &RunConf,
    exec: &SweepExecutor,
    sink: &TraceSink,
    base: usize,
) -> usize {
    let mut table = Table::new(
        "Ablation — CHA per-line serialization produces the contention law",
        &["cha_line_serialize", "α [ns]", "β [ns/thread]", "r²"],
    );
    let variants = [34_000u64, 17_000, 0];
    let fits = exec.run("ablation_directory", &variants, |i, &serialize_ps| {
        let mut cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
        cfg.timing.cha_line_serialize_ps = serialize_ps;
        let mut m = machine(conf, cfg);
        m.set_jitter(0);
        let fit = contention::fit(&contention(
            &mut m,
            &[1, 4, 8, 16, 24, 31],
            Schedule::Scatter,
            5,
        ));
        m.finish_check();
        sink.submit(base + i, &mut m);
        fit
    });
    for (serialize_ps, fit) in variants.iter().zip(fits) {
        table.row(vec![
            format!("{} ns", serialize_ps / 1000),
            f1(fit.alpha),
            f1(fit.beta),
            format!("{:.3}", fit.r2),
        ]);
    }
    table.emit("ablation_directory");
    println!();
    variants.len()
}

/// Ablation 2: DDR's mixed-write discount is what lets copy/triad approach
/// the read peak despite the 36 GB/s write-only ceiling.
fn ablate_ddr_write_mixing(
    conf: &RunConf,
    exec: &SweepExecutor,
    sink: &TraceSink,
    base: usize,
) -> usize {
    let mut table = Table::new(
        "Ablation — DDR mixed-write service vs streaming kernels [GB/s]",
        &["write_mixed", "copy", "triad", "write"],
    );
    let mut params = SuiteParams::quick();
    params.iters = 5;
    params.mem_lines_per_thread = 1024;
    let variants = [4_990u64, 10_600];
    let rows = exec.run("ablation_write_mixing", &variants, |i, &mixed_ps| {
        let mut cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
        cfg.timing.ddr_write_mixed_ps_per_line = mixed_ps;
        let mut m = machine(conf, cfg);
        m.set_jitter(0);
        let gbps = [StreamKind::Copy, StreamKind::Triad, StreamKind::Write].map(|kind| {
            m.reset_devices();
            m.reset_caches();
            bandwidth_sample(&mut m, kind, Target::Ddr, 32, Schedule::FillTiles, &params).median()
        });
        m.finish_check();
        sink.submit(base + i, &mut m);
        gbps
    });
    for (mixed_ps, [copy, triad, write]) in variants.iter().zip(rows) {
        table.row(vec![
            format!("{:.1} ns/line", *mixed_ps as f64 / 1000.0),
            f1(copy),
            f1(triad),
            f1(write),
        ]);
    }
    table.emit("ablation_write_mixing");
    println!("(write-only stays at its ceiling; copy/triad collapse without the discount)\n");
    variants.len()
}

/// Ablation 3: bounded MLP is what shapes single-thread bandwidth; the
/// aggregate peak is unaffected (device-bound).
fn ablate_mlp_caps(conf: &RunConf, exec: &SweepExecutor, sink: &TraceSink, base: usize) -> usize {
    let mut table = Table::new(
        "Ablation — core MLP cap vs DDR read bandwidth [GB/s]",
        &["ov_mem_vec", "1 thread", "32 threads"],
    );
    let mut params = SuiteParams::quick();
    params.iters = 5;
    params.mem_lines_per_thread = 1024;
    let variants = [4u32, 17, 34];
    let rows = exec.run("ablation_mlp", &variants, |i, &ov| {
        let mut cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
        cfg.timing.ov_mem_vec = ov;
        let mut m = machine(conf, cfg);
        m.set_jitter(0);
        let one = bandwidth_sample(
            &mut m,
            StreamKind::Read,
            Target::Ddr,
            1,
            Schedule::FillTiles,
            &params,
        )
        .median();
        m.reset_devices();
        m.reset_caches();
        let many = bandwidth_sample(
            &mut m,
            StreamKind::Read,
            Target::Ddr,
            32,
            Schedule::FillTiles,
            &params,
        )
        .median();
        m.finish_check();
        sink.submit(base + i, &mut m);
        (one, many)
    });
    for (ov, (one, many)) in variants.iter().zip(rows) {
        table.row(vec![ov.to_string(), f1(one), f1(many)]);
    }
    table.emit("ablation_mlp");
    println!("(single-thread scales with MLP; saturated aggregate does not)\n");
    variants.len()
}

/// Ablation 4: the staggered child starts (contention order) are what make
/// the optimal trees skewed; with uniform starts the optimizer degenerates
/// toward balanced shapes and loses its edge under the true (staggered)
/// cost.
fn ablate_tree_staggering() {
    let model = CapabilityModel::paper_reference();
    let mut flat = model.clone();
    // Uniform starts: kill the per-child contention ordering (β = 0 keeps
    // only the flat α for every child).
    flat.contention.beta = 0.0;
    let mut table = Table::new(
        "Ablation — staggered starts vs uniform starts (Eq. 1 cost, ns)",
        &[
            "n",
            "tuned (staggered)",
            "tuned w/o stagger, re-costed",
            "penalty",
        ],
    );
    for n in [8usize, 16, 32] {
        let staggered = optimize_tree(&model, n, TreeKind::Broadcast);
        let uniform_shape = optimize_tree(&flat, n, TreeKind::Broadcast);
        // Evaluate the uniform-optimized shape under the TRUE cost model.
        let recost = tree_cost(&model, &uniform_shape.tree, TreeKind::Broadcast);
        table.row(vec![
            n.to_string(),
            f1(staggered.cost_ns),
            f1(recost),
            format!("{:.1}%", (recost / staggered.cost_ns - 1.0) * 100.0),
        ]);
    }
    table.emit("ablation_stagger");
}

/// Ablation 5: mesh link occupancy and the congestion benchmark. Two
/// findings, mirroring the paper:
/// 1. With the paper's placement-blind benchmark, latency stays flat under
///    link-occupancy modeling — the "no congestion" result is emergent, and
///    stays flat even with slow rings because pairs spread across rings
///    (the paper: "we cannot produce layouts that stress specific rows or
///    columns").
/// 2. The *simulator* knows tile coordinates: placing every pair along one
///    grid column shares a single ring, and with slowed rings congestion
///    finally appears — what the paper's benchmark could never provoke.
fn ablate_mesh_occupancy(conf: &RunConf, exec: &SweepExecutor, sink: &TraceSink, base: usize) {
    let mut table = Table::new(
        "Ablation — mesh link occupancy vs P2P congestion (per-pair ns)",
        &["fabric", "placement", "1 pair", "8 pairs", "ratio"],
    );
    let variants = [
        ("analytic (default)", 0u64),
        ("occupancy, KNL rings (0.5 ns)", 500),
        ("occupancy, 100x slower rings", 50_000),
    ];
    let rows = exec.run("ablation_mesh", &variants, |i, &(_, service)| {
        let mut cfg = MachineConfig::knl7210(ClusterMode::Quadrant, MemoryMode::Flat);
        cfg.timing.mesh_ring_service_ps = service;
        let mut m = machine(conf, cfg);
        m.set_jitter(0);

        // Paper placement: blind spread.
        let pts = congestion(&mut m, &[1, 8], 5);
        let blind = [pts[0].1, pts[1].1];

        // Adversarial placement: every pair along one grid column.
        let col_pairs = same_column_pairs(&m, 8);
        let column =
            [&col_pairs[..1], &col_pairs[..]].map(|pairs| congestion_with_pairs(&mut m, pairs, 5));
        m.finish_check();
        sink.submit(base + i, &mut m);
        [blind, column]
    });
    for ((label, _), placements) in variants.iter().zip(rows) {
        for (placement, [one, eight]) in
            ["blind (paper)", "same-column"].into_iter().zip(placements)
        {
            table.row(vec![
                label.to_string(),
                placement.to_string(),
                f1(one),
                f1(eight),
                format!("{:.2}x", eight / one),
            ]);
        }
    }
    table.emit("ablation_mesh");
}

/// Pairs whose both endpoints sit in one grid column (stressing a single
/// vertical ring). Endpoints pair the top half of the column against the
/// bottom half; cores of the same tile are split across pairs.
fn same_column_pairs(m: &Machine, want: usize) -> Vec<(CoreId, CoreId)> {
    let topo = m.topology();
    // Find the column with the most active tiles.
    let col = (0..knl_arch::topology::GRID_COLS)
        .max_by_key(|&x| {
            (0..topo.num_tiles() as u16)
                .filter(|&t| topo.tile_position(knl_arch::TileId(t)).0 == x)
                .count()
        })
        .unwrap();
    let mut tiles: Vec<u16> = (0..topo.num_tiles() as u16)
        .filter(|&t| topo.tile_position(knl_arch::TileId(t)).0 == col)
        .collect();
    tiles.sort_by_key(|&t| topo.tile_position(knl_arch::TileId(t)).1);
    let mut pairs = Vec::new();
    let half = tiles.len() / 2;
    for i in 0..half {
        let a = tiles[i];
        let b = tiles[tiles.len() - 1 - i];
        // Two pairs per tile pair (one per core).
        pairs.push((CoreId(a * 2), CoreId(b * 2)));
        pairs.push((CoreId(a * 2 + 1), CoreId(b * 2 + 1)));
        if pairs.len() >= want {
            break;
        }
    }
    pairs.truncate(want);
    pairs
}
