//! Putting lines into a desired MESIF state using *real* coherent operations
//! (the same way the BenchIT harness arranges states on hardware).

use knl_arch::CoreId;
use knl_sim::{AccessKind, LineState, Machine, SimTime};

/// Gap inserted between preparation and measurement so preparation traffic
/// has fully drained (directory serialization slots, device queues).
pub const SETTLE_PS: SimTime = 2_000_000;

/// Prepare `lines` lines starting at `base` so that `owner`'s tile holds
/// them in `state`. `helper` must live on a *different* tile; it is used to
/// create S/F states. Returns the time after which measurement may start.
pub fn prep_lines(
    m: &mut Machine,
    owner: CoreId,
    helper: CoreId,
    base: u64,
    lines: u64,
    state: LineState,
    mut now: SimTime,
) -> SimTime {
    assert_ne!(
        owner.tile(),
        helper.tile(),
        "helper must be on another tile"
    );
    for i in 0..lines {
        let addr = base + i * 64;
        match state {
            LineState::Modified => {
                now = m.access(owner, addr, AccessKind::Write, now).complete;
            }
            LineState::Exclusive => {
                // NT store invalidates every cached copy; the next read gets E.
                now = m.access(owner, addr, AccessKind::NtStore, now).complete;
                now = m.access(owner, addr, AccessKind::Read, now).complete;
            }
            LineState::Shared | LineState::Owned => {
                // Owner dirties, helper reads: under MESIF the owner
                // downgrades to S (helper F); under MOESI/Dragon the owner
                // keeps the dirty line as O with the helper sharing.
                now = m.access(owner, addr, AccessKind::Write, now).complete;
                now = m.access(helper, addr, AccessKind::Read, now).complete;
            }
            LineState::Forward => {
                // Helper first (E), then owner reads: owner becomes F.
                now = m.access(helper, addr, AccessKind::NtStore, now).complete;
                now = m.access(helper, addr, AccessKind::Read, now).complete;
                now = m.access(owner, addr, AccessKind::Read, now).complete;
            }
            LineState::Invalid => {
                now = m.access(owner, addr, AccessKind::NtStore, now).complete;
            }
        }
    }
    now + SETTLE_PS
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::{ClusterMode, MachineConfig, MemoryMode};

    fn machine() -> Machine {
        let mut m = Machine::new(MachineConfig::knl7210(
            ClusterMode::Quadrant,
            MemoryMode::Flat,
        ));
        m.set_jitter(0);
        m
    }

    #[test]
    fn all_states_reachable() {
        let mut m = machine();
        let owner = CoreId(0);
        let helper = CoreId(10);
        for (state, expect) in [
            (LineState::Modified, LineState::Modified),
            (LineState::Exclusive, LineState::Exclusive),
            (LineState::Shared, LineState::Shared),
            (LineState::Forward, LineState::Forward),
            (LineState::Invalid, LineState::Invalid),
        ] {
            let base = 1 << 20;
            let t = prep_lines(&mut m, owner, helper, base, 4, state, 0);
            assert!(t > 0);
            for i in 0..4u64 {
                assert_eq!(
                    m.line_state(base + i * 64, owner.tile()),
                    expect,
                    "state {state:?} line {i}"
                );
            }
            m.reset_caches();
        }
    }

    #[test]
    #[should_panic(expected = "another tile")]
    fn same_tile_helper_rejected() {
        let mut m = machine();
        prep_lines(&mut m, CoreId(0), CoreId(1), 0, 1, LineState::Shared, 0);
    }
}
