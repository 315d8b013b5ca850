//! Every simulator program the Figs. 6–8 collectives build, pinned as data.
//!
//! Each public `simspec::*_programs` builder over its inputs: n ∈ {1, 2, 5,
//! 16, 64} ranks, the figures' two schedules, two iterations, and for the
//! tree builders three plans (binomial, the Eq. 1 tree mapped one rank per
//! node, and the Eq. 1 tree over tile leaders with flat tiles). The
//! dissemination barrier runs at m ∈ {1, 2, 3}. One header per case:
//!
//! ```text
//! ## <builder> <plan> <schedule> n=<n> fnv=<digest>
//! ```
//!
//! The digest is FNV-1a over the hardware thread and the `Debug` form of
//! every op of every rank, raw addresses included. Cases with n ≤ 5 also
//! list each rank's ops, one line per rank, with the addresses named by
//! their `SimLayout` role (`flag[3]`, `central`, ...). Regenerate after an
//! *intentional* change to a builder with
//!
//! ```text
//! KNL_UPDATE_GOLDEN=1 cargo test --test collective_programs
//! ```
//!
//! and review the diff like source.

#[path = "common/golden.rs"]
mod golden;

use golden::assert_golden;
use knl::arch::{ClusterMode, MachineConfig, MemoryMode, NumaKind, Schedule};
use knl::collectives::plan::{tile_groups, RankPlan};
use knl::collectives::simspec::{self, SimLayout};
use knl::model::tree_opt::binomial_tree;
use knl::model::{optimize_tree, CapabilityModel, TreeKind};
use knl::sim::{Arena, Op, Program};
use std::fmt::Write as _;

const RANKS: [usize; 5] = [1, 2, 5, 16, 64];
const SCHEDULES: [Schedule; 2] = [Schedule::FillTiles, Schedule::Scatter];
const LISTED_UP_TO: usize = 5;
const ITERS: usize = 2;

type PlanBuilder = fn(&RankPlan, &SimLayout, Schedule, usize, usize) -> Vec<Program>;
type FlatBuilder = fn(usize, &SimLayout, Schedule, usize, usize) -> Vec<Program>;

const PLAN_BUILDERS: [(&str, PlanBuilder, TreeKind); 6] = [
    (
        "tree_broadcast",
        simspec::tree_broadcast_programs,
        TreeKind::Broadcast,
    ),
    (
        "tree_reduce",
        simspec::tree_reduce_programs,
        TreeKind::Reduce,
    ),
    (
        "mpi_broadcast",
        simspec::mpi_broadcast_programs,
        TreeKind::Broadcast,
    ),
    (
        "mpi_broadcast_single_copy",
        simspec::mpi_broadcast_single_copy_programs,
        TreeKind::Broadcast,
    ),
    ("mpi_reduce", simspec::mpi_reduce_programs, TreeKind::Reduce),
    (
        "mpi_barrier",
        simspec::mpi_barrier_programs,
        TreeKind::Reduce,
    ),
];

const FLAT_BUILDERS: [(&str, FlatBuilder); 3] = [
    ("central_barrier", simspec::central_barrier_programs),
    ("flat_broadcast", simspec::flat_broadcast_programs),
    ("central_reduce", simspec::central_reduce_programs),
];

/// The three plans a tree builder runs over, for `kind`'s Eq. 1 tree.
fn plans(kind: TreeKind, n: usize, sched: Schedule, cores: usize) -> [(&'static str, RankPlan); 3] {
    let model = CapabilityModel::paper_reference();
    let leaders = tile_groups(n, sched, cores).len();
    [
        ("binomial", RankPlan::direct(&binomial_tree(n))),
        (
            "tuned-direct",
            RankPlan::direct(&optimize_tree(&model, n, kind).tree),
        ),
        (
            "hierarchical",
            RankPlan::hierarchical(&optimize_tree(&model, leaders, kind).tree, n, sched, cores),
        ),
    ]
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `addr` named by its role in `layout`.
fn line_name(layout: &SimLayout, addr: u64) -> String {
    if addr == layout.central {
        return "central".into();
    }
    let roles = [
        ("flag", &layout.flag),
        ("ack", &layout.ack),
        ("staging", &layout.staging),
        ("envelope", &layout.envelope),
    ];
    for (role, lines) in roles {
        if let Some(i) = lines.iter().position(|&a| a == addr) {
            return format!("{role}[{i}]");
        }
    }
    format!("{addr:#x}")
}

fn op_text(layout: &SimLayout, op: &Op) -> String {
    match *op {
        Op::WaitUntil(t) => format!("until {t}"),
        Op::MarkStart(k) => format!("start {k}"),
        Op::MarkEnd(k) => format!("end {k}"),
        Op::Compute(t) => format!("compute {t}"),
        Op::Read(a) => format!("read {}", line_name(layout, a)),
        Op::Write(a) => format!("write {}", line_name(layout, a)),
        Op::SetFlag { addr, val } => format!("set {}={val}", line_name(layout, addr)),
        Op::WaitFlag { addr, val } => format!("wait {}>={val}", line_name(layout, addr)),
        ref other => format!("{other:?}"),
    }
}

fn case(out: &mut String, header: &str, n: usize, layout: &SimLayout, programs: &[Program]) {
    assert_eq!(programs.len(), n, "{header}: one program per rank");
    let digest = programs.iter().fold(0xcbf2_9ce4_8422_2325, |h, p| {
        let h = fnv1a(h, format!("{:?}", p.hw).as_bytes());
        p.ops
            .iter()
            .fold(h, |h, op| fnv1a(h, format!("{op:?};").as_bytes()))
    });
    writeln!(out, "## {header} n={n} fnv={digest:016x}").unwrap();
    if n <= LISTED_UP_TO {
        for (rank, p) in programs.iter().enumerate() {
            let ops: Vec<String> = p.ops.iter().map(|op| op_text(layout, op)).collect();
            writeln!(out, "r{rank} hw={}: {}", p.hw.0, ops.join("; ")).unwrap();
        }
    }
}

fn listing() -> String {
    let cfg = MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat);
    let cores = cfg.num_cores();
    let map = cfg.address_map(&cfg.topology());
    let mut out = String::new();
    for n in RANKS {
        let layout = SimLayout::alloc(&mut Arena::new(&map), NumaKind::Mcdram, n);
        for sched in SCHEDULES {
            let s = sched.name();
            for (name, build, kind) in PLAN_BUILDERS {
                for (plan_name, plan) in plans(kind, n, sched, cores) {
                    let programs = build(&plan, &layout, sched, cores, ITERS);
                    case(
                        &mut out,
                        &format!("{name} {plan_name} {s}"),
                        n,
                        &layout,
                        &programs,
                    );
                }
            }
            for (name, build) in FLAT_BUILDERS {
                let programs = build(n, &layout, sched, cores, ITERS);
                case(&mut out, &format!("{name} flat {s}"), n, &layout, &programs);
            }
            for m in 1..=3 {
                let programs =
                    simspec::dissemination_barrier_programs(n, m, &layout, sched, cores, ITERS);
                case(
                    &mut out,
                    &format!("dissemination m={m} {s}"),
                    n,
                    &layout,
                    &programs,
                );
            }
        }
    }
    out
}

#[test]
fn collective_programs_match_the_golden_file() {
    assert_golden("collective_programs.txt", &listing());
}
