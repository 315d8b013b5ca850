//! The coherence protocols — MESIF, MESI, MOESI, Dragon — as one directory
//! transition table.
//!
//! [`transition`] is what the home directory does with a [`Request`] under
//! a [`ProtocolKind`]: how the line's [`GlobalState`] and sharer set change,
//! and what that cost ([`Outcome`]: the requester's resulting state, a
//! forced write-back, invalidation or update messages sent). The engine
//! (`engine/serve.rs`), the model checker (`knl mc`), the conformance
//! harness and the table golden (`tests/protocol_tables.rs`) all call this
//! one function; [`validate`] is the matching legality
//! predicate the runtime checker and the model checker share.
//!
//! The four protocols differ in three policy bits, all read off the
//! [`ProtocolKind`]:
//!
//! | | `has_forward` | `has_owned` | `invalidation_based` |
//! |---|---|---|---|
//! | MESIF  | yes | no  | yes |
//! | MESI   | no  | no  | yes |
//! | MOESI  | no  | yes | yes |
//! | Dragon | no  | yes | no  |
//!
//! * `has_forward` — the latest reader of a shared line becomes its clean
//!   F holder and answers the next read; without it memory serves shared
//!   reads, so the Table I "S/F" rows collapse to memory latency.
//! * `has_owned` — a remote read of a Modified line leaves the dirty data
//!   cached at its owner (O, supplying) instead of forcing a write-back.
//! * `invalidation_based` — a store kills the other copies and retires the
//!   coherence epoch; Dragon instead *updates* them in place (no version
//!   bump, the writer becomes the dirty supplier Sm, modeled as O), which
//!   is its capability-model signature: repeated reader hits where the
//!   invalidation protocols pay a coherence miss, paid for by per-sharer
//!   update rounds on every write.
//!
//! Everything else — E on a first read, silent evictions of clean copies,
//! O collapsing back to M when its last clean sharer leaves — is common.
//! The table is *total*: any `(state, request)` pair, including states the
//! protocol itself never produces, transitions without panicking (pinned
//! row by row in `tests/golden/protocol_tables.txt`).

use crate::directory::{DirEntry, GlobalState, LineState, TileSet};
use knl_arch::{ProtocolKind, TileId};

/// What a tile asks of a line's home directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// A read by a tile that holds no copy.
    Read,
    /// A write: read-for-ownership, or the upgrade of a copy already held.
    Write,
    /// The tile drops its copy (capacity eviction or explicit flush).
    Evict,
    /// A non-temporal store overwrites the line in memory; the cached
    /// copies are swept. The issuing tile plays no role in the sweep.
    NtStore,
}

/// What a transition did, as the engine charges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// State the requesting tile's copy ends in.
    pub requester: LineState,
    /// Dirty data must be flushed to memory (a downgrade of M without an
    /// O state, the eviction of a dirty copy, an invalidating NT sweep of
    /// a dirty line).
    pub writeback: bool,
    /// Copies at other tiles that were invalidated.
    pub invalidated: usize,
    /// Copies at other tiles that were refreshed in place (Dragon).
    pub updated: usize,
}

/// Serve `request` from tile `t` at `entry`'s home directory under `kind`.
#[inline]
pub fn transition(
    kind: ProtocolKind,
    entry: &mut DirEntry,
    request: Request,
    t: TileId,
) -> Outcome {
    use GlobalState::{Exclusive, Modified, Owned, Shared, Uncached};
    let (mut writeback, mut invalidated, mut updated) = (false, 0, 0);
    // Whom a shared read leaves answering the next one.
    let forward = kind.has_forward().then_some(t);
    match (request, entry.state) {
        (Request::Read, Uncached) => {
            entry.sharers = TileSet::EMPTY;
            entry.state = Exclusive { owner: t };
        }
        // The owner re-reads its own line: nothing moves.
        (Request::Read, Exclusive { owner } | Modified { owner } | Owned { owner })
            if owner == t => {}
        // The owner keeps the dirty line and keeps supplying: no
        // write-back — the O protocols' defining transition.
        (Request::Read, Modified { owner }) if kind.has_owned() => {
            entry.sharers = TileSet::from([owner, t]);
            entry.state = Owned { owner };
        }
        // The previous owner downgrades to S, which is clean: a Modified
        // line is flushed on the way.
        (Request::Read, Exclusive { owner } | Modified { owner }) => {
            writeback = entry.dirty();
            entry.sharers = TileSet::from([owner, t]);
            entry.state = Shared { forward };
        }
        (Request::Read, Shared { .. }) => {
            entry.sharers.insert(t);
            entry.state = Shared { forward };
        }
        // Join as a clean sharer; the dirty owner keeps supplying.
        (Request::Read, Owned { .. }) => entry.sharers.insert(t),

        // Under write-update the sole holder's write has nobody to refresh
        // and, unlike an invalidating E→M upgrade, no epoch to retire.
        (Request::Write, Exclusive { owner } | Modified { owner })
            if owner == t && !kind.invalidation_based() =>
        {
            entry.state = Modified { owner: t };
        }
        (
            Request::Write,
            Uncached | Exclusive { .. } | Modified { .. } | Shared { .. } | Owned { .. },
        ) => {
            let others = entry.holders().without(t);
            let survivors = if kind.invalidation_based() {
                // The version is bumped on *every* write: even a silent
                // E→M upgrade must invalidate the sibling core's L1 copy
                // within the tile (the machine re-fills the writer's own
                // caches with the new version, so only stale copies die).
                entry.version = entry.version.wrapping_add(1);
                invalidated = others.len();
                TileSet::EMPTY
            } else {
                // Every remote copy is refreshed by the update round and
                // stays valid: no invalidations, no version bump.
                updated = others.len();
                others
            };
            if survivors.is_empty() {
                entry.sharers = TileSet::EMPTY;
                entry.state = Modified { owner: t };
            } else {
                // The latest writer becomes the dirty supplier.
                entry.sharers = survivors;
                entry.sharers.insert(t);
                entry.state = Owned { owner: t };
            }
        }

        (Request::Evict, Uncached) => {}
        (Request::Evict, Exclusive { owner } | Modified { owner }) if owner == t => {
            writeback = entry.dirty();
            entry.state = Uncached;
        }
        // A tile without a copy owes nothing.
        (Request::Evict, Exclusive { .. } | Modified { .. }) => {}
        (Request::Evict, Shared { forward }) => {
            entry.sharers.remove(t);
            entry.state = if entry.sharers.is_empty() {
                Uncached
            } else {
                // If the F holder left, memory supplies until the next read.
                Shared {
                    forward: forward.filter(|&f| f != t),
                }
            };
        }
        (Request::Evict, Owned { owner }) => {
            entry.sharers.remove(t);
            if owner == t {
                // The dirty supplier leaves: flush to memory; survivors
                // are plain clean sharers (memory now supplies).
                writeback = true;
                entry.state = if entry.sharers.is_empty() {
                    Uncached
                } else {
                    Shared { forward: None }
                };
            } else if entry.sharers == TileSet::from([owner]) {
                // The last clean sharer left: the owner stands alone and
                // the line collapses to plain dirty-exclusive M.
                entry.sharers = TileSet::EMPTY;
                entry.state = Modified { owner };
            }
        }

        (
            Request::NtStore,
            Uncached | Exclusive { .. } | Modified { .. } | Shared { .. } | Owned { .. },
        ) => {
            let holders = entry.num_holders();
            if kind.invalidation_based() {
                // One invalidation to *each* holder, a dirty copy flushed
                // first — the same accounting as the RFO path.
                invalidated = holders;
                writeback = entry.invalidate_all();
            } else if holders > 0 {
                // The NT stream writes memory itself and the update round
                // refreshes every cached copy with the same data, so all
                // copies end *clean*: plain Shared served by memory, no
                // flush, no version bump.
                updated = holders;
                if let Exclusive { owner } | Modified { owner } = entry.state {
                    entry.sharers.insert(owner);
                }
                entry.state = Shared { forward: None };
            }
        }
    }
    Outcome {
        requester: entry.state_of(t),
        writeback,
        invalidated,
        updated,
    }
}

/// Structural legality of `entry` under `kind` — the exact predicate the
/// runtime [`crate::invariants::CoherenceChecker`] applies after every
/// directory transition and the model checker (`knl mc`) proves over
/// every reachable state: owner states carry no sharer set, shared states
/// a non-empty one that lists the designated supplier, and no state
/// foreign to the protocol appears (O without `has_owned`, an F holder
/// without `has_forward`).
pub fn validate(kind: ProtocolKind, entry: &DirEntry) -> Result<(), String> {
    let DirEntry { state, sharers, .. } = *entry;
    match state {
        GlobalState::Uncached | GlobalState::Exclusive { .. } | GlobalState::Modified { .. } => {
            if !sharers.is_empty() {
                return Err(format!(
                    "{state:?} must have an empty sharer list, got {sharers:?}"
                ));
            }
        }
        GlobalState::Shared { .. } | GlobalState::Owned { .. } if sharers.is_empty() => {
            return Err(format!("{state:?} with empty sharer list"));
        }
        GlobalState::Shared { forward: Some(f) } if !sharers.contains(f) => {
            return Err(format!("F holder {f:?} not in sharer list {sharers:?}"));
        }
        GlobalState::Owned { owner } if !sharers.contains(owner) => {
            return Err(format!("owner {owner:?} not in sharer list {sharers:?}"));
        }
        GlobalState::Shared { .. } | GlobalState::Owned { .. } => {}
    }
    if let Some(s) = entry.supplier() {
        if entry.state_of(s) == LineState::Invalid {
            return Err(format!("supplier {s:?} does not hold the line ({state:?})"));
        }
    }
    if matches!(state, GlobalState::Owned { .. }) && !kind.has_owned() {
        return Err(format!("Owned state is illegal under {kind}"));
    }
    if let GlobalState::Shared { forward: Some(f) } = state {
        if !kind.has_forward() {
            return Err(format!("forward holder {f:?} is illegal under {kind}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ProtocolKind::{Dragon, Mesi, Mesif, Moesi};

    fn t(i: u16) -> TileId {
        TileId(i)
    }

    fn read(kind: ProtocolKind, e: &mut DirEntry, tile: u16) -> Outcome {
        transition(kind, e, Request::Read, t(tile))
    }

    fn write(kind: ProtocolKind, e: &mut DirEntry, tile: u16) -> Outcome {
        transition(kind, e, Request::Write, t(tile))
    }

    /// Evict; returns whether a write-back is due.
    fn evict(kind: ProtocolKind, e: &mut DirEntry, tile: u16) -> bool {
        transition(kind, e, Request::Evict, t(tile)).writeback
    }

    fn nt_store(kind: ProtocolKind, e: &mut DirEntry) -> Outcome {
        transition(kind, e, Request::NtStore, t(0))
    }

    // ------------------------------------------------------------------
    // MESIF — the KNL default, calibration target of Tables I/II.
    // ------------------------------------------------------------------

    #[test]
    fn first_read_is_exclusive() {
        let mut e = DirEntry::default();
        assert_eq!(read(Mesif, &mut e, 0).requester, LineState::Exclusive);
        assert_eq!(e.state_of(t(0)), LineState::Exclusive);
        assert_eq!(e.state_of(t(1)), LineState::Invalid);
        assert_eq!(e.supplier(), Some(t(0)));
    }

    #[test]
    fn second_read_creates_forward() {
        let mut e = DirEntry::default();
        read(Mesif, &mut e, 0);
        assert_eq!(read(Mesif, &mut e, 1).requester, LineState::Forward);
        assert_eq!(e.state_of(t(0)), LineState::Shared);
        assert_eq!(e.state_of(t(1)), LineState::Forward);
        // Only the F holder supplies.
        assert_eq!(e.supplier(), Some(t(1)));
        assert_eq!(e.num_holders(), 2);
    }

    #[test]
    fn forward_moves_to_latest_reader() {
        let mut e = DirEntry::default();
        read(Mesif, &mut e, 0);
        read(Mesif, &mut e, 1);
        read(Mesif, &mut e, 2);
        assert_eq!(e.state_of(t(1)), LineState::Shared);
        assert_eq!(e.state_of(t(2)), LineState::Forward);
        assert_eq!(e.num_holders(), 3);
    }

    #[test]
    fn write_invalidates_sharers_and_bumps_version() {
        let mut e = DirEntry::default();
        read(Mesif, &mut e, 0);
        read(Mesif, &mut e, 1);
        read(Mesif, &mut e, 2);
        let v0 = e.version;
        assert_eq!(write(Mesif, &mut e, 0).invalidated, 2);
        assert_eq!(e.state_of(t(0)), LineState::Modified);
        assert_eq!(e.state_of(t(1)), LineState::Invalid);
        assert_ne!(e.version, v0);
    }

    #[test]
    fn write_upgrade_from_exclusive_sends_no_invalidations_but_bumps_version() {
        let mut e = DirEntry::default();
        read(Mesif, &mut e, 0);
        let v0 = e.version;
        let g = write(Mesif, &mut e, 0);
        assert_eq!(g.invalidated, 0, "E→M upgrade is silent on the mesh");
        assert_ne!(e.version, v0, "sibling-core L1 copies must still die");
        assert!(e.dirty());
    }

    #[test]
    fn read_of_modified_downgrades_owner() {
        let mut e = DirEntry::default();
        write(Mesif, &mut e, 0);
        assert_eq!(read(Mesif, &mut e, 1).requester, LineState::Forward);
        assert_eq!(e.state_of(t(0)), LineState::Shared);
        assert!(!e.dirty(), "downgrade implies write-back");
    }

    #[test]
    fn evict_dirty_reports_writeback() {
        let mut e = DirEntry::default();
        write(Mesif, &mut e, 0);
        assert!(evict(Mesif, &mut e, 0));
        assert_eq!(e.state_of(t(0)), LineState::Invalid);
        assert_eq!(e.num_holders(), 0);
    }

    #[test]
    fn evict_forward_falls_back_to_memory() {
        let mut e = DirEntry::default();
        read(Mesif, &mut e, 0);
        read(Mesif, &mut e, 1);
        assert!(!evict(Mesif, &mut e, 1)); // F holder evicts
        assert_eq!(e.supplier(), None, "no F holder -> memory supplies");
        assert_eq!(e.state_of(t(0)), LineState::Shared);
    }

    #[test]
    fn evict_last_sharer_uncaches() {
        let mut e = DirEntry::default();
        read(Mesif, &mut e, 0);
        read(Mesif, &mut e, 1);
        evict(Mesif, &mut e, 0);
        evict(Mesif, &mut e, 1);
        assert_eq!(e.state, GlobalState::Uncached);
    }

    #[test]
    fn single_writer_invariant() {
        // Whatever sequence of grants happens, at most one tile may ever be
        // in M/E, and M/E excludes sharers.
        let mut e = DirEntry::default();
        let seq = [
            (false, 0),
            (true, 1),
            (false, 2),
            (false, 0),
            (true, 2),
            (true, 0),
            (false, 1),
            (true, 1),
        ];
        for (is_write, tile) in seq {
            if is_write {
                write(Mesif, &mut e, tile);
            } else {
                read(Mesif, &mut e, tile);
            }
            let count = |states: [LineState; 2]| {
                (0..3)
                    .filter(|&x| states.contains(&e.state_of(t(x))))
                    .count()
            };
            let owners = count([LineState::Modified, LineState::Exclusive]);
            assert!(owners <= 1);
            if owners == 1 {
                let sharers = count([LineState::Shared, LineState::Forward]);
                assert_eq!(sharers, 0, "M/E excludes S/F copies");
            }
        }
    }

    #[test]
    fn evict_forward_then_reread_restores_forward() {
        // Once the F holder evicts, memory supplies — until the next read,
        // whose requester becomes the new forwarder.
        let mut e = DirEntry::default();
        read(Mesif, &mut e, 0);
        read(Mesif, &mut e, 1);
        evict(Mesif, &mut e, 1);
        assert_eq!(e.supplier(), None);
        assert_eq!(read(Mesif, &mut e, 2).requester, LineState::Forward);
        assert_eq!(e.supplier(), Some(t(2)));
        assert_eq!(e.state_of(t(0)), LineState::Shared);
    }

    #[test]
    fn evict_non_holder_is_noop() {
        let mut e = DirEntry::default();
        write(Mesif, &mut e, 0);
        let v = e.version;
        assert!(
            !evict(Mesif, &mut e, 1),
            "a tile without a copy owes no write-back"
        );
        assert_eq!(e.state_of(t(0)), LineState::Modified);
        assert_eq!(e.version, v);
        let mut s = DirEntry::default();
        read(Mesif, &mut s, 0);
        read(Mesif, &mut s, 1);
        assert!(!evict(Mesif, &mut s, 2));
        assert_eq!(s.num_holders(), 2);
    }

    #[test]
    fn evict_last_sharer_then_read_is_exclusive() {
        // Last-sharer downgrade: S with one holder collapses to Uncached on
        // evict, so the next reader starts a fresh E epoch.
        let mut e = DirEntry::default();
        read(Mesif, &mut e, 0);
        read(Mesif, &mut e, 1);
        evict(Mesif, &mut e, 1);
        evict(Mesif, &mut e, 0);
        assert_eq!(e.state, GlobalState::Uncached);
        assert!(e.sharers.is_empty(), "no stale sharers may survive");
        assert_eq!(read(Mesif, &mut e, 2).requester, LineState::Exclusive);
    }

    #[test]
    fn mesif_read_of_remote_modified_writes_back() {
        let mut e = DirEntry::default();
        read(Mesif, &mut e, 0);
        write(Mesif, &mut e, 0);
        let g = read(Mesif, &mut e, 1);
        assert!(g.writeback);
        assert_eq!(g.requester, LineState::Forward);
        // Owner's own re-read of its M line flushes nothing.
        let mut e = DirEntry::default();
        write(Mesif, &mut e, 0);
        assert!(!read(Mesif, &mut e, 0).writeback);
    }

    // ------------------------------------------------------------------
    // Where MESI, MOESI and Dragon differ.
    // ------------------------------------------------------------------

    #[test]
    fn first_read_is_exclusive_under_every_protocol() {
        for kind in ProtocolKind::ALL {
            let mut e = DirEntry::default();
            let g = read(kind, &mut e, 3);
            assert_eq!(g.requester, LineState::Exclusive, "{kind}");
            assert!(!g.writeback, "{kind}");
            assert_eq!(e.supplier(), Some(t(3)), "{kind}");
        }
    }

    #[test]
    fn mesi_shared_reads_have_no_forwarder() {
        let mut e = DirEntry::default();
        read(Mesi, &mut e, 0);
        let g = read(Mesi, &mut e, 1);
        assert_eq!(g.requester, LineState::Shared);
        assert_eq!(e.state, GlobalState::Shared { forward: None });
        // No supplier ⇒ the engine serves shared reads from memory.
        assert_eq!(e.supplier(), None);
        assert!(validate(Mesi, &e).is_ok());
    }

    #[test]
    fn mesi_read_of_modified_writes_back_and_shares() {
        let mut e = DirEntry::default();
        read(Mesi, &mut e, 0);
        write(Mesi, &mut e, 0);
        let g = read(Mesi, &mut e, 1);
        assert!(g.writeback);
        assert_eq!(g.requester, LineState::Shared);
        assert_eq!(e.state, GlobalState::Shared { forward: None });
        assert!(!e.dirty());
    }

    #[test]
    fn moesi_read_of_modified_keeps_dirty_owner_supplying() {
        let mut e = DirEntry::default();
        read(Moesi, &mut e, 0);
        write(Moesi, &mut e, 0);
        let g = read(Moesi, &mut e, 1);
        assert!(!g.writeback, "O protocols never flush on a read");
        assert_eq!(g.requester, LineState::Shared);
        assert_eq!(e.state, GlobalState::Owned { owner: t(0) });
        assert_eq!(e.supplier(), Some(t(0)));
        assert!(e.dirty());
        assert_eq!(e.state_of(t(0)), LineState::Owned);
        assert_eq!(e.state_of(t(1)), LineState::Shared);
        assert!(validate(Moesi, &e).is_ok());
    }

    #[test]
    fn moesi_owner_write_invalidates_other_sharers() {
        let mut e = DirEntry::default();
        read(Moesi, &mut e, 0);
        write(Moesi, &mut e, 0);
        read(Moesi, &mut e, 1);
        read(Moesi, &mut e, 2);
        let v0 = e.version;
        let g = write(Moesi, &mut e, 0);
        assert_eq!(g.invalidated, 2);
        assert_eq!(g.updated, 0);
        assert_eq!(e.state, GlobalState::Modified { owner: t(0) });
        assert_eq!(e.version, v0.wrapping_add(1), "stale copies must die");
    }

    #[test]
    fn moesi_owner_evict_flushes_and_leaves_clean_sharers() {
        let mut e = DirEntry::default();
        read(Moesi, &mut e, 0);
        write(Moesi, &mut e, 0);
        read(Moesi, &mut e, 1);
        read(Moesi, &mut e, 2);
        assert!(evict(Moesi, &mut e, 0), "dirty supplier must flush");
        assert_eq!(e.state, GlobalState::Shared { forward: None });
        assert_eq!(e.sharers, TileSet::from([t(1), t(2)]));
        assert!(!e.dirty());
    }

    #[test]
    fn moesi_sharer_evict_collapses_owned_to_modified() {
        let mut e = DirEntry::default();
        read(Moesi, &mut e, 0);
        write(Moesi, &mut e, 0);
        read(Moesi, &mut e, 1);
        assert!(!evict(Moesi, &mut e, 1), "clean sharer evicts silently");
        assert_eq!(e.state, GlobalState::Modified { owner: t(0) });
        assert!(e.sharers.is_empty());
    }

    #[test]
    fn dragon_remote_write_updates_instead_of_invalidating() {
        let mut e = DirEntry::default();
        read(Dragon, &mut e, 0);
        read(Dragon, &mut e, 1);
        read(Dragon, &mut e, 2);
        let v0 = e.version;
        let g = write(Dragon, &mut e, 2);
        assert_eq!(g.invalidated, 0);
        assert_eq!(g.updated, 2, "both other sharers get the new data");
        assert_eq!(e.state, GlobalState::Owned { owner: t(2) });
        assert_eq!(e.version, v0, "copies stay valid: no epoch bump");
        assert_eq!(e.num_holders(), 3);
        assert!(validate(Dragon, &e).is_ok());
    }

    #[test]
    fn dragon_write_by_non_holder_joins_and_owns() {
        let mut e = DirEntry::default();
        read(Dragon, &mut e, 0);
        read(Dragon, &mut e, 1);
        let g = write(Dragon, &mut e, 5);
        assert_eq!(g.updated, 2);
        assert_eq!(e.state, GlobalState::Owned { owner: t(5) });
        assert_eq!(e.num_holders(), 3);
    }

    #[test]
    fn dragon_write_to_remote_exclusive_updates_the_holder() {
        let mut e = DirEntry::default();
        read(Dragon, &mut e, 0);
        let g = write(Dragon, &mut e, 1);
        assert_eq!(g.updated, 1);
        assert_eq!(e.state, GlobalState::Owned { owner: t(1) });
        assert_eq!(e.state_of(t(0)), LineState::Shared);
    }

    #[test]
    fn dragon_sole_holder_write_collapses_to_modified() {
        let mut e = DirEntry::default();
        read(Dragon, &mut e, 0);
        read(Dragon, &mut e, 1);
        evict(Dragon, &mut e, 1);
        let g = write(Dragon, &mut e, 0);
        assert_eq!(g.updated, 0);
        assert_eq!(e.state, GlobalState::Modified { owner: t(0) });
    }

    #[test]
    fn dragon_nt_store_updates_every_holder_clean() {
        let mut e = DirEntry::default();
        read(Dragon, &mut e, 0);
        write(Dragon, &mut e, 1);
        assert!(e.dirty());
        let v0 = e.version;
        let sweep = nt_store(Dragon, &mut e);
        assert_eq!(sweep.invalidated, 0);
        assert_eq!(sweep.updated, 2);
        assert!(!sweep.writeback, "the NT stream itself carries the data");
        assert_eq!(e.state, GlobalState::Shared { forward: None });
        assert_eq!(e.num_holders(), 2, "copies survive an NT store");
        assert_eq!(e.version, v0, "no epoch bump: copies stay valid");
        assert!(!e.dirty());
    }

    #[test]
    fn dragon_nt_store_on_exclusive_keeps_the_holder() {
        let mut e = DirEntry::default();
        read(Dragon, &mut e, 4);
        let sweep = nt_store(Dragon, &mut e);
        assert_eq!(sweep.updated, 1);
        assert_eq!(e.state, GlobalState::Shared { forward: None });
        assert_eq!(e.sharers, TileSet::from([t(4)]));
    }

    #[test]
    fn invalidation_protocols_nt_store_invalidates() {
        for kind in [Mesif, Mesi, Moesi] {
            let mut e = DirEntry::default();
            read(kind, &mut e, 0);
            write(kind, &mut e, 0);
            read(kind, &mut e, 1);
            let holders = e.num_holders();
            let sweep = nt_store(kind, &mut e);
            assert_eq!(sweep.invalidated, holders, "{kind}");
            assert_eq!(sweep.updated, 0, "{kind}");
            assert_eq!(e.state, GlobalState::Uncached, "{kind}");
        }
    }

    #[test]
    fn validate_rejects_foreign_states() {
        // An O entry is illegal under MESIF and MESI, fine under MOESI/Dragon.
        let mut e = DirEntry::default();
        read(Moesi, &mut e, 0);
        write(Moesi, &mut e, 0);
        read(Moesi, &mut e, 1);
        assert!(matches!(e.state, GlobalState::Owned { .. }));
        assert!(validate(Mesif, &e).is_err());
        assert!(validate(Mesi, &e).is_err());
        assert!(validate(Moesi, &e).is_ok());
        assert!(validate(Dragon, &e).is_ok());
        // A forward holder is illegal everywhere but MESIF.
        let mut e = DirEntry::default();
        read(Mesif, &mut e, 0);
        read(Mesif, &mut e, 1);
        assert!(matches!(e.state, GlobalState::Shared { forward: Some(_) }));
        assert!(validate(Mesif, &e).is_ok());
        assert!(validate(Mesi, &e).is_err());
        assert!(validate(Moesi, &e).is_err());
        assert!(validate(Dragon, &e).is_err());
    }

    // ------------------------------------------------------------------
    // Audit pins (ISSUE 9): what exhaustive enumeration reports for
    // Dragon's NT update ledger and MOESI's O-state eviction path, fixed
    // as unit tests in the edge-case style above.
    // ------------------------------------------------------------------

    #[test]
    fn dragon_nt_store_ledger_counts_every_holder_once() {
        // Owner + two clean sharers: the update round must touch all
        // three, flush nothing, and keep the full sharer set valid.
        let mut e = DirEntry::default();
        write(Dragon, &mut e, 0);
        read(Dragon, &mut e, 1);
        read(Dragon, &mut e, 2);
        assert!(matches!(e.state, GlobalState::Owned { owner } if owner == t(0)));
        let sweep = nt_store(Dragon, &mut e);
        assert_eq!((sweep.invalidated, sweep.updated), (0, 3));
        assert!(
            !sweep.writeback,
            "NT data refreshes copies; nothing flushes"
        );
        assert_eq!(e.state, GlobalState::Shared { forward: None });
        assert_eq!(e.sharers, TileSet::from([t(0), t(1), t(2)]));
        assert!(validate(Dragon, &e).is_ok());
        // The reconciliation the checker enforces: ledger == holders.
        assert_eq!(sweep.updated, e.num_holders());
    }

    #[test]
    fn moesi_owner_eviction_flushes_and_leaves_clean_sharers() {
        let mut e = DirEntry::default();
        write(Moesi, &mut e, 0);
        read(Moesi, &mut e, 1);
        assert!(matches!(e.state, GlobalState::Owned { owner } if owner == t(0)));
        // The O holder leaving is the only point MOESI's dirty-shared data
        // reaches memory: dirty=true, survivors demote to plain S.
        assert!(evict(Moesi, &mut e, 0));
        assert_eq!(e.state, GlobalState::Shared { forward: None });
        assert_eq!(e.sharers, TileSet::from([t(1)]));
        assert!(validate(Moesi, &e).is_ok());
    }

    #[test]
    fn moesi_last_clean_sharer_eviction_restores_modified() {
        let mut e = DirEntry::default();
        write(Moesi, &mut e, 0);
        read(Moesi, &mut e, 1);
        // The clean sharer leaves first: the owner stands alone again and
        // the dirty line must return to plain M — no flush either way.
        assert!(!evict(Moesi, &mut e, 1));
        assert_eq!(e.state, GlobalState::Modified { owner: t(0) });
        assert!(e.sharers.is_empty());
        assert!(validate(Moesi, &e).is_ok());
    }
}
