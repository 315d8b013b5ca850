//! Test scaffolding: single-transition protocol defects for the
//! mutation-kill gate, [`crate::modelcheck::kill`].
//!
//! A [`Mutation`] corrupts exactly one transition shape (a write grant, a
//! read grant, an eviction, or an NT sweep) and leaves every other
//! transition the shipped one, so a surviving mutant means the checker has
//! a blind spot on that transition. It is applied as a post-hook on what
//! [`knl_sim::protocol::transition`] just produced: [`Mutation::hook`] is
//! the one closure the model checker's directory step runs and [`inject`]
//! installs into a [`Machine`]'s, so a defect corrupts the shipped table
//! identically in both.
//!
//! The catalog is restricted to defects the *runtime*
//! [`knl_sim::CoherenceChecker`] can also observe (structurally illegal
//! entries, stale reads the memory oracle sees, or write-back counts that
//! fail end-of-run reconciliation): the gate requires every minimal
//! counterexample to replay to a runtime violation, which keeps the static
//! and dynamic layers provably aligned. Conversely every defect left out
//! of a protocol's catalog survives that protocol's sweep at 3 caches × 1
//! line (`tests/modelcheck_replay.rs`), so the catalog is exactly the
//! killable set there.

// A `_` arm swallows the variants a protocol grows later (DESIGN.md §5d).
#![warn(clippy::wildcard_enum_match_arm)]

use knl_arch::{ProtocolKind, TileId};
use knl_sim::machine::TransitionHook;
use knl_sim::{DirEntry, GlobalState, Machine, Outcome, Request, TileSet};

/// A single-transition defect injected into the protocol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// RFO leaves the writer on the sharer list next to its M grant.
    WriteLeavesWriterInSharers,
    /// RFO forgets to invalidate one remote holder (the skipped invalidation
    /// `tests/coherence_fuzz.rs` injects).
    WriteKeepsStaleSharer,
    /// RFO demotes the result to clean Shared instead of Modified.
    WriteLeavesEntryShared,
    /// RFO grants Exclusive — the dirty bit is lost.
    WriteStaysClean,
    /// RFO steps the version epoch backwards.
    WriteRegressesVersion,
    /// Read grant elects an F holder but drops it from the sharer list.
    ReadDropsForwardFromSharers,
    /// Read of a remote M line leaves MOESI's O state behind.
    ReadCreatesOwned,
    /// Read grant designates an F holder under a protocol without F.
    ReadSetsForeignForward,
    /// Read downgrading M to O drops the owner from the sharer list.
    ReadOwnedDropsOwner,
    /// Read of a remote M line skips the forced write-back.
    ReadSkipsWriteback,
    /// Dirty eviction reports the line clean — the flush is lost.
    EvictDropsWriteback,
    /// The O holder's eviction leaves the directory claiming O.
    EvictKeepsOwned,
    /// Last-holder eviction leaves Shared with an empty sharer list.
    EvictLeavesSharedEmpty,
    /// NT sweep invalidates copies but forgets to clear the sharer list.
    NtStoreKeepsSharerList,
    /// Dragon's NT update round drops the refreshed sharer list.
    NtStoreDropsSharers,
    /// Dragon's NT update round elects an F holder Dragon never has.
    NtStoreCreatesForward,
}

impl Mutation {
    /// Every defined mutation, in report order.
    pub const ALL: [Mutation; 16] = [
        Mutation::WriteLeavesWriterInSharers,
        Mutation::WriteKeepsStaleSharer,
        Mutation::WriteLeavesEntryShared,
        Mutation::WriteStaysClean,
        Mutation::WriteRegressesVersion,
        Mutation::ReadDropsForwardFromSharers,
        Mutation::ReadSetsForeignForward,
        Mutation::ReadCreatesOwned,
        Mutation::ReadOwnedDropsOwner,
        Mutation::ReadSkipsWriteback,
        Mutation::EvictKeepsOwned,
        Mutation::EvictDropsWriteback,
        Mutation::EvictLeavesSharedEmpty,
        Mutation::NtStoreKeepsSharerList,
        Mutation::NtStoreDropsSharers,
        Mutation::NtStoreCreatesForward,
    ];

    /// Stable kebab-case name (reports and `tests/golden/mutation_kills.txt`).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::WriteLeavesWriterInSharers => "write-leaves-writer-in-sharers",
            Mutation::WriteKeepsStaleSharer => "write-keeps-stale-sharer",
            Mutation::WriteLeavesEntryShared => "write-leaves-entry-shared",
            Mutation::WriteStaysClean => "write-stays-clean",
            Mutation::WriteRegressesVersion => "write-regresses-version",
            Mutation::ReadDropsForwardFromSharers => "read-drops-forward-from-sharers",
            Mutation::ReadCreatesOwned => "read-creates-owned",
            Mutation::ReadSetsForeignForward => "read-sets-foreign-forward",
            Mutation::ReadOwnedDropsOwner => "read-owned-drops-owner",
            Mutation::ReadSkipsWriteback => "read-skips-writeback",
            Mutation::EvictDropsWriteback => "evict-drops-writeback",
            Mutation::EvictKeepsOwned => "evict-keeps-owned",
            Mutation::EvictLeavesSharedEmpty => "evict-leaves-shared-empty",
            Mutation::NtStoreKeepsSharerList => "nt-store-keeps-sharer-list",
            Mutation::NtStoreDropsSharers => "nt-store-drops-sharers",
            Mutation::NtStoreCreatesForward => "nt-store-creates-forward",
        }
    }

    /// The defects applicable to (and required to be killed under) `kind`
    /// — eleven per protocol. A defect tied to a mechanism the protocol
    /// lacks (invalidation under Dragon, F under MESI/MOESI/Dragon, O under
    /// MESIF/MESI) is catalogued only where the mechanism exists, so every
    /// listed mutant is reachable and must die. (A twelfth, "read grant
    /// lists the requester twice", was retired with the sharer `Vec`: a
    /// [`TileSet`] cannot hold a duplicate, so the defect is unwritable.)
    pub fn catalog(kind: ProtocolKind) -> impl Iterator<Item = Mutation> {
        Mutation::ALL.into_iter().filter(move |m| match m {
            Mutation::WriteKeepsStaleSharer | Mutation::NtStoreKeepsSharerList => {
                kind.invalidation_based()
            }
            Mutation::NtStoreDropsSharers | Mutation::NtStoreCreatesForward => {
                !kind.invalidation_based()
            }
            Mutation::ReadDropsForwardFromSharers => kind.has_forward(),
            Mutation::ReadSetsForeignForward => !kind.has_forward(),
            Mutation::ReadCreatesOwned | Mutation::ReadSkipsWriteback => !kind.has_owned(),
            Mutation::ReadOwnedDropsOwner | Mutation::EvictKeepsOwned => kind.has_owned(),
            Mutation::WriteLeavesWriterInSharers
            | Mutation::WriteLeavesEntryShared
            | Mutation::WriteStaysClean
            | Mutation::WriteRegressesVersion
            | Mutation::EvictDropsWriteback
            | Mutation::EvictLeavesSharedEmpty => true,
        })
    }

    /// This defect as a directory post-transition hook.
    pub fn hook(self) -> Box<TransitionHook> {
        Box::new(move |kind, request, t, pre, entry, out| {
            self.corrupt(kind, request, t, pre, entry, out)
        })
    }

    /// Corrupt the transition [`knl_sim::protocol::transition`] just made
    /// for `request` from tile `t`: `pre` is the entry before it, `entry`
    /// and `out` what it produced. Only the (defect, request) pairs listed
    /// do anything.
    fn corrupt(
        self,
        kind: ProtocolKind,
        request: Request,
        t: TileId,
        pre: &DirEntry,
        entry: &mut DirEntry,
        out: &mut Outcome,
    ) {
        use GlobalState::{Exclusive, Modified, Owned, Shared, Uncached};
        let granted_m = entry.state == Modified { owner: t };
        let plain_shared = entry.state == Shared { forward: None };
        match (self, request) {
            (Mutation::WriteLeavesWriterInSharers, Request::Write)
                if granted_m && entry.sharers.is_empty() =>
            {
                entry.sharers.insert(t);
            }
            // One holder's invalidation is "forgotten" (meaningless under
            // write-update, which sends no invalidations to skip).
            (Mutation::WriteKeepsStaleSharer, Request::Write) if kind.invalidation_based() => {
                if let Some(stale) = pre.holders().without(t).first() {
                    entry.sharers.insert(stale);
                }
            }
            (Mutation::WriteLeavesEntryShared, Request::Write) if granted_m => {
                entry.state = Shared { forward: None };
                entry.sharers = TileSet::from([t]);
            }
            (Mutation::WriteStaysClean, Request::Write) if granted_m => {
                entry.state = Exclusive { owner: t };
                entry.sharers = TileSet::EMPTY;
            }
            (Mutation::WriteRegressesVersion, Request::Write) => {
                entry.version = entry.version.wrapping_sub(2);
            }
            (Mutation::ReadDropsForwardFromSharers, Request::Read) => {
                if let Shared { forward: Some(f) } = entry.state {
                    entry.sharers.remove(f);
                }
            }
            (Mutation::ReadCreatesOwned, Request::Read) => {
                if let Modified { owner } = pre.state {
                    if owner != t {
                        entry.state = Owned { owner };
                        entry.sharers = TileSet::from([owner, t]);
                    }
                }
            }
            (Mutation::ReadSetsForeignForward, Request::Read)
                if plain_shared && entry.sharers.contains(t) =>
            {
                entry.state = Shared { forward: Some(t) };
            }
            (Mutation::ReadOwnedDropsOwner, Request::Read) => {
                if let Owned { owner } = entry.state {
                    entry.sharers.remove(owner);
                }
            }
            (Mutation::ReadSkipsWriteback, Request::Read)
            | (Mutation::EvictDropsWriteback, Request::Evict) => out.writeback = false,
            (Mutation::EvictKeepsOwned, Request::Evict) if pre.state == Owned { owner: t } => {
                entry.state = pre.state;
            }
            (Mutation::EvictLeavesSharedEmpty, Request::Evict)
                if pre.num_holders() > 0 && entry.state == Uncached =>
            {
                entry.state = Shared { forward: None };
                entry.sharers = TileSet::EMPTY;
            }
            (Mutation::NtStoreKeepsSharerList, Request::NtStore) if entry.state == Uncached => {
                if let Some(h) = pre.supplier().or(pre.sharers.first()) {
                    entry.sharers.insert(h);
                }
            }
            (Mutation::NtStoreDropsSharers, Request::NtStore)
                if matches!(entry.state, Shared { .. }) =>
            {
                entry.sharers = TileSet::EMPTY;
            }
            (Mutation::NtStoreCreatesForward, Request::NtStore) if plain_shared => {
                entry.state = Shared {
                    forward: entry.sharers.first(),
                };
            }
            // Every other (defect, request) pair is the shipped transition.
            _ => {}
        }
    }
}

/// Inject `mutation` into `m`'s directory transitions, or `None` to
/// restore the shipped tables.
pub fn inject(m: &mut Machine, mutation: Option<Mutation>) {
    m.set_transition_hook(mutation.map(Mutation::hook));
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_sim::protocol::{transition, validate};

    #[test]
    fn every_catalog_has_eleven_killable_mutants() {
        for kind in ProtocolKind::ALL {
            assert_eq!(Mutation::catalog(kind).count(), 11, "{kind}");
        }
        for (i, m) in Mutation::ALL.into_iter().enumerate() {
            assert!(!Mutation::ALL[..i].contains(&m), "duplicate {m:?}");
            assert!(
                ProtocolKind::ALL
                    .into_iter()
                    .any(|k| Mutation::catalog(k).any(|c| c == m)),
                "{m:?} catalogued nowhere"
            );
            // The names key the kill golden, so no two may collide.
            let name = m.name();
            assert!(
                Mutation::ALL[..i].iter().all(|p| p.name() != name),
                "duplicate name {name}"
            );
        }
    }

    #[test]
    fn stale_sharer_mutant_reproduces_the_pr2_fault() {
        // The hook must inject exactly what the original skipped-
        // invalidation switch did: one remote holder survives an RFO on
        // the sharer list, structurally illegal next to M.
        let kind = ProtocolKind::Mesif;
        let (t0, t1) = (TileId(0), TileId(1));
        let mut e = DirEntry::default();
        transition(kind, &mut e, Request::Read, t0);
        transition(kind, &mut e, Request::Read, t1);
        let pre = e;
        let mut out = transition(kind, &mut e, Request::Write, t1);
        Mutation::WriteKeepsStaleSharer.corrupt(kind, Request::Write, t1, &pre, &mut e, &mut out);
        assert_eq!(e.state, GlobalState::Modified { owner: t1 });
        assert_eq!(e.sharers, TileSet::from([t0]));
        assert!(validate(kind, &e).is_err());
    }

    #[test]
    fn a_defect_touches_only_its_own_request() {
        // Applied to any other request the hook must leave the shipped
        // transition alone — entry and outcome both.
        let requests = [
            (Request::Read, "read-"),
            (Request::Write, "write-"),
            (Request::Evict, "evict-"),
            (Request::NtStore, "nt-store-"),
        ];
        for m in Mutation::ALL {
            for kind in ProtocolKind::ALL {
                for (request, prefix) in requests {
                    if m.name().starts_with(prefix) {
                        continue;
                    }
                    let mut e = DirEntry::default();
                    transition(kind, &mut e, Request::Write, TileId(0));
                    transition(kind, &mut e, Request::Read, TileId(1));
                    let pre = e;
                    let mut out = transition(kind, &mut e, request, TileId(2));
                    let shipped = (e, out);
                    m.corrupt(kind, request, TileId(2), &pre, &mut e, &mut out);
                    assert_eq!((e, out), shipped, "{m:?} on {request:?}");
                }
            }
        }
    }
}
