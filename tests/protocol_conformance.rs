//! Protocol-generic conformance harness: every coherence protocol (MESIF,
//! MESI, MOESI, Dragon) runs the same property suite through the one
//! directory transition function, [`transition`].
//!
//! Three property families:
//!
//! * **Totality** — every `(state, event)` pair transitions without
//!   panicking, including directory states the protocol itself never
//!   produces (a checker may hand a MESI back end an O entry; the table
//!   must absorb it, not crash).
//! * **Single-writer safety** — after any write grant exactly one tile
//!   holds dirty data, and under the invalidation-based protocols no other
//!   tile holds *any* copy. Checked both on hand-built states and along
//!   seeded random op sequences validated step-by-step with the protocol's
//!   own [`validate`].
//! * **Dragon update reach** — update messages reach every sharer: nobody
//!   is invalidated by a write or an NT store, and the reported `updated`
//!   count equals the number of other holders.

use knl::arch::{ProtocolKind, SplitMixRng, TileId};
use knl::sim::protocol::{transition, validate};
use knl::sim::{DirEntry, GlobalState, LineState, Request, TileSet};

fn t(i: u16) -> TileId {
    TileId(i)
}

/// Every directory-state *shape* that can exist, legal for the protocol or
/// not: the transition table must be total over all of them.
fn all_state_shapes() -> Vec<DirEntry> {
    let mk = |state: GlobalState, sharers: &[TileId]| DirEntry {
        state,
        sharers: sharers.iter().copied().collect(),
        ..DirEntry::default()
    };
    vec![
        mk(GlobalState::Uncached, &[]),
        mk(GlobalState::Exclusive { owner: t(0) }, &[]),
        mk(GlobalState::Modified { owner: t(0) }, &[]),
        mk(GlobalState::Shared { forward: None }, &[t(0)]),
        mk(
            GlobalState::Shared {
                forward: Some(t(0)),
            },
            &[t(0), t(1)],
        ),
        mk(GlobalState::Owned { owner: t(0) }, &[t(0), t(1)]),
    ]
}

#[test]
fn every_state_event_pair_is_total() {
    // Requester 0 is a holder in most shapes, 2 never is: both directions
    // of every event, from every shape, under every protocol.
    for kind in ProtocolKind::ALL {
        for (si, proto_entry) in all_state_shapes().into_iter().enumerate() {
            for requester in [t(0), t(2)] {
                let ctx = |ev: &str| format!("{kind:?} shape#{si} {ev} from {requester:?}");

                let mut e = proto_entry;
                let g = transition(kind, &mut e, Request::Read, requester);
                assert_ne!(
                    g.requester,
                    LineState::Invalid,
                    "{}: a served read must leave a valid copy",
                    ctx("read")
                );
                assert_eq!(e.state_of(requester), g.requester, "{}", ctx("read"));

                let mut e = proto_entry;
                let g = transition(kind, &mut e, Request::Write, requester);
                assert!(
                    e.state_of(requester).dirty(),
                    "{}: writer must end dirty, got {:?}",
                    ctx("write"),
                    e.state_of(requester)
                );
                assert!(
                    g.invalidated == 0 || g.updated == 0,
                    "{}: a grant cannot both invalidate and update",
                    ctx("write")
                );

                let mut e = proto_entry;
                transition(kind, &mut e, Request::NtStore, t(0));

                let mut e = proto_entry;
                let g = transition(kind, &mut e, Request::Evict, requester);
                assert_eq!(
                    (g.requester, e.state_of(requester)),
                    (LineState::Invalid, LineState::Invalid),
                    "{}: evicted tile still holds the line",
                    ctx("evict")
                );
            }
        }
    }
}

#[test]
fn single_writer_safety_from_every_shape() {
    for kind in ProtocolKind::ALL {
        for (si, proto_entry) in all_state_shapes().into_iter().enumerate() {
            for requester in [t(0), t(2)] {
                let mut e = proto_entry;
                transition(kind, &mut e, Request::Write, requester);
                let dirty: Vec<u16> = (0..4).filter(|&i| e.state_of(t(i)).dirty()).collect();
                assert_eq!(
                    dirty,
                    vec![requester.0],
                    "{kind:?} shape#{si}: exactly the writer must be dirty"
                );
                if kind.invalidation_based() {
                    assert_eq!(
                        e.state_of(requester),
                        LineState::Modified,
                        "{kind:?} shape#{si}"
                    );
                    assert_eq!(
                        e.num_holders(),
                        1,
                        "{kind:?} shape#{si}: invalidation-based write must leave \
                         the writer as the only holder"
                    );
                }
            }
        }
    }
}

/// Seeded random op sequences driven through the table itself; after
/// every step the entry must pass the protocol's own structural validation
/// — so each protocol can only reach its own legal states.
#[test]
fn random_sequences_stay_structurally_legal() {
    const TILES: u16 = 5;
    const OPS: usize = 200;
    for kind in ProtocolKind::ALL {
        for seed in 0..4u64 {
            let mut rng = SplitMixRng::for_job(0xC0FEE ^ seed, kind as u64);
            let mut e = DirEntry::default();
            for step in 0..OPS {
                let tile = t(rng.range_u32(0, TILES as u32) as u16);
                let request = match rng.range_u32(0, 4) {
                    0 => Request::Read,
                    1 => Request::Write,
                    2 => Request::Evict,
                    _ => Request::NtStore,
                };
                transition(kind, &mut e, request, tile);
                if let Err(msg) = validate(kind, &e) {
                    panic!("{kind:?} seed {seed} step {step}: {msg}\n  entry: {e:?}");
                }
                let dirty = (0..TILES).filter(|&i| e.state_of(t(i)).dirty()).count();
                assert!(
                    dirty <= 1,
                    "{kind:?} seed {seed} step {step}: {dirty} dirty holders"
                );
            }
        }
    }
}

#[test]
fn dragon_updates_reach_every_sharer() {
    let dragon = ProtocolKind::Dragon;

    // Four readers build a 4-way shared line.
    let mut e = DirEntry::default();
    for i in 0..4 {
        transition(dragon, &mut e, Request::Read, t(i));
    }
    assert_eq!(e.num_holders(), 4);
    let version_before = e.version;

    // A member write updates the other three in place.
    let g = transition(dragon, &mut e, Request::Write, t(1));
    assert_eq!(g.updated, 3, "update must reach every other sharer");
    assert_eq!(g.invalidated, 0, "Dragon never invalidates on write");
    for i in 0..4 {
        assert_ne!(
            e.state_of(t(i)),
            LineState::Invalid,
            "tile {i} lost its copy despite update semantics"
        );
    }
    assert_eq!(
        e.version, version_before,
        "updated copies stay valid: no version bump"
    );

    // A non-member write joins, then updates all four previous holders.
    let g = transition(dragon, &mut e, Request::Write, t(4));
    assert_eq!(g.updated, 4);
    assert_eq!(e.num_holders(), 5);

    // An NT store refreshes every holder instead of sweeping them.
    let sweep = transition(dragon, &mut e, Request::NtStore, t(0));
    assert_eq!(sweep.updated, 5);
    assert_eq!(sweep.invalidated, 0);
    assert!(!sweep.writeback, "the NT stream itself carries the data");
    assert_eq!(e.num_holders(), 5, "holders survive an NT store");
}

#[test]
fn invalidation_protocols_sweep_on_nt_store() {
    for kind in [ProtocolKind::Mesif, ProtocolKind::Mesi, ProtocolKind::Moesi] {
        let mut e = DirEntry::default();
        for i in 0..3 {
            transition(kind, &mut e, Request::Read, t(i));
        }
        let holders = e.num_holders();
        let sweep = transition(kind, &mut e, Request::NtStore, t(0));
        assert_eq!(sweep.invalidated, holders, "{kind:?}");
        assert_eq!(sweep.updated, 0, "{kind:?}");
        assert_eq!(e.num_holders(), 0, "{kind:?}: NT store must sweep clean");
    }
}

#[test]
fn foreign_states_are_rejected_by_validate() {
    let owned = DirEntry {
        state: GlobalState::Owned { owner: t(0) },
        sharers: TileSet::from([t(0), t(1)]),
        ..DirEntry::default()
    };
    let forwarded = DirEntry {
        state: GlobalState::Shared {
            forward: Some(t(0)),
        },
        sharers: TileSet::from([t(0), t(1)]),
        ..DirEntry::default()
    };
    // O is legal exactly for MOESI and Dragon; F exactly for MESIF.
    for kind in ProtocolKind::ALL {
        let o_legal = matches!(kind, ProtocolKind::Moesi | ProtocolKind::Dragon);
        assert_eq!(validate(kind, &owned).is_ok(), o_legal, "{kind:?} on O");
        let f_legal = kind == ProtocolKind::Mesif;
        assert_eq!(validate(kind, &forwarded).is_ok(), f_legal, "{kind:?} on F");
    }
}
