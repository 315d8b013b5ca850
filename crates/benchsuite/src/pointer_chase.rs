//! Single-cache-line transfer latency by state and placement (Table I
//! latency rows, Fig. 4), BenchIT-style: dependent accesses, medians.
//! Fig. 4 runs [`transfer_latency`] and [`invalid_latency`] per partner
//! core; each drives [`Machine::access`] directly, with no Op-IR form.

use crate::state_prep::prep_lines;
use knl_arch::CoreId;
use knl_sim::{AccessKind, LineState, Machine, SimTime};
use knl_stats::Sample;

/// Gap between iterations (lets shared resources drain).
const ITER_GAP_PS: SimTime = 5_000_000;

/// Local (L1) load latency: warm line, dependent re-reads.
pub fn local_latency(m: &mut Machine, core: CoreId, iters: usize) -> Sample {
    let addr = 1 << 22;
    let mut now = m.access(core, addr, AccessKind::Read, 0).complete;
    let mut s = Sample::new();
    for _ in 0..iters {
        let out = m.access(core, addr, AccessKind::Read, now);
        s.push((out.complete - now) as f64 / 1000.0);
        now = out.complete + 1_000;
    }
    s
}

/// Latency of `reader` loading one line held by `owner`'s tile in `state`.
/// A fresh line is prepared each iteration (as BenchIT re-arranges state
/// between passes). `helper` (a third tile) assists S/F preparation.
pub fn transfer_latency(
    m: &mut Machine,
    owner: CoreId,
    reader: CoreId,
    helper: CoreId,
    state: LineState,
    iters: usize,
) -> Sample {
    let mut s = Sample::new();
    let mut now: SimTime = 0;
    for i in 0..iters {
        let addr = (1u64 << 23) + (i as u64) * 64;
        now = prep_lines(m, owner, helper, addr, 1, state, now);
        let out = m.access(reader, addr, AccessKind::Read, now);
        s.push((out.complete - now) as f64 / 1000.0);
        now = out.complete + ITER_GAP_PS;
    }
    s
}

/// Latency of reading lines nobody caches (served by memory), over a
/// disjoint address region per `salt`, so repeated sweeps (e.g. one per
/// partner core in Fig. 4) never re-touch cached lines.
pub fn invalid_latency(m: &mut Machine, reader: CoreId, iters: usize, salt: u64) -> Sample {
    let mut s = Sample::new();
    let mut now: SimTime = 0;
    let region = (1u64 << 25) + salt * (iters as u64 + 1) * 4096;
    for i in 0..iters {
        let addr = region + (i as u64) * 4096; // distinct sets, never cached
        let out = m.access(reader, addr, AccessKind::Read, now);
        s.push((out.complete - now) as f64 / 1000.0);
        now = out.complete + ITER_GAP_PS;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::{ClusterMode, MachineConfig, MemoryMode};

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::knl7210(ClusterMode::Snc4, MemoryMode::Flat));
        m.set_jitter(0);
        m
    }

    #[test]
    fn local_is_l1() {
        let mut m = machine();
        let s = local_latency(&mut m, CoreId(0), 11);
        assert!((s.median() - 3.8).abs() < 0.5, "{}", s.median());
    }

    #[test]
    fn tile_state_ordering() {
        // Table I: tile M(34) > E(18) > S/F(14).
        let mut m = machine();
        let owner = CoreId(0);
        let reader = CoreId(1);
        let helper = CoreId(20);
        let lm = transfer_latency(&mut m, owner, reader, helper, LineState::Modified, 9).median();
        let le = transfer_latency(&mut m, owner, reader, helper, LineState::Exclusive, 9).median();
        let ls = transfer_latency(&mut m, owner, reader, helper, LineState::Shared, 9).median();
        assert!(lm > le && le > ls, "M={lm} E={le} S={ls}");
        assert!((lm - 34.0).abs() < 8.0, "tile M {lm}");
        assert!((ls - 14.0).abs() < 4.0, "tile S {ls}");
    }

    #[test]
    fn remote_in_paper_band() {
        let mut m = machine();
        let owner = CoreId(40);
        let reader = CoreId(0);
        let helper = CoreId(20);
        let lm = transfer_latency(&mut m, owner, reader, helper, LineState::Modified, 9).median();
        assert!((90.0..160.0).contains(&lm), "remote M {lm}");
        let ls = transfer_latency(&mut m, owner, reader, helper, LineState::Shared, 9).median();
        assert!(ls < lm, "S {ls} < M {lm}");
    }

    #[test]
    fn invalid_is_memory_latency() {
        let mut m = machine();
        let s = invalid_latency(&mut m, CoreId(0), 9, 0);
        assert!((110.0..190.0).contains(&s.median()), "{}", s.median());
    }

    #[test]
    fn latency_map_covers_all_partners() {
        // Fig. 4's loop: core 0 reads an M line from every other core.
        let mut m = machine();
        let origin = CoreId(0);
        let map: Vec<(u16, f64)> = (1..64u16)
            .map(|partner| {
                let owner = CoreId(partner);
                let helper = (0..64)
                    .map(CoreId)
                    .find(|c| c.tile() != owner.tile() && c.tile() != origin.tile())
                    .expect("machine has ≥3 tiles");
                let s = transfer_latency(&mut m, owner, origin, helper, LineState::Modified, 3);
                (partner, s.median())
            })
            .collect();
        assert_eq!(map.len(), 63);
        // Same-tile partner (core 1) must be the fastest M transfer.
        let tile_lat = map.iter().find(|(c, _)| *c == 1).unwrap().1;
        for (c, l) in &map {
            if *c != 1 {
                assert!(*l > tile_lat, "core {c}: {l} vs tile {tile_lat}");
            }
        }
    }
}
