//! Per-line coherence state, tracked at the line's home directory.
//!
//! KNL keeps L2 caches coherent with a MESIF protocol run by the distributed
//! Cache/Home Agents (one per tile); the simulator also models MESI, MOESI,
//! and Dragon. This module holds only what all four share: the per-tile
//! [`LineState`], the directory-side [`GlobalState`], and the [`DirEntry`]
//! that records which tiles cache a line (a [`TileSet`] bitmask), who owns
//! it (M/E), which sharer holds the F (forward) state, and — under
//! MOESI/Dragon — which dirty sharer owns it (O/Sm). Tag arrays (see
//! `cache`) model capacity; the directory models permission. Invalidation
//! uses an epoch counter (`version`) so private L1s never need to be walked.
//!
//! What a request does to an entry is the protocols' business and lives in
//! one place, [`crate::protocol::transition`]; nothing here depends on a
//! [`knl_arch::ProtocolKind`].

use knl_arch::TileId;
use std::fmt;

/// The per-tile line states across all protocols. MESIF uses M/E/S/F/I;
/// MESI drops F; MOESI and Dragon add O (a dirty shared copy designated to
/// supply — MOESI's O, Dragon's Sm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Dirty, exclusive to one tile.
    Modified,
    /// Clean, exclusive to one tile.
    Exclusive,
    /// Clean, possibly replicated.
    Shared,
    /// Shared copy designated to answer requests (MESIF's F).
    Forward,
    /// Dirty *and* shared; this copy supplies without writing back
    /// (MOESI's O, Dragon's Sm). Never occurs under MESIF/MESI.
    Owned,
    /// Not present.
    Invalid,
}

impl LineState {
    /// Single-character tag used by benchmark labels
    /// (`M`, `E`, `S`, `F`, `O`, `I`).
    pub fn letter(self) -> char {
        match self {
            LineState::Modified => 'M',
            LineState::Exclusive => 'E',
            LineState::Shared => 'S',
            LineState::Forward => 'F',
            LineState::Owned => 'O',
            LineState::Invalid => 'I',
        }
    }

    /// Whether a copy in this state holds dirty data (M, or the
    /// dirty-shared O).
    pub fn dirty(self) -> bool {
        matches!(self, LineState::Modified | LineState::Owned)
    }
}

/// Global (directory-side) state of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GlobalState {
    /// No cache holds the line.
    #[default]
    Uncached,
    /// A single tile holds it clean-exclusive.
    Exclusive {
        /// The owning tile.
        owner: TileId,
    },
    /// A single tile holds it dirty.
    Modified {
        /// The owning tile.
        owner: TileId,
    },
    /// One or more tiles hold it shared; at most one is the F(orward) holder.
    Shared {
        /// The designated forwarder, if one survives.
        forward: Option<TileId>,
    },
    /// One tile holds it dirty-shared and supplies (MOESI's O, Dragon's Sm);
    /// the owner is listed in `sharers` alongside the clean copies. Never
    /// reachable under MESIF/MESI.
    Owned {
        /// The dirty sharer that supplies the line.
        owner: TileId,
    },
}

/// A set of tiles as a bitmask (bit `t` is tile `t`), so a directory entry
/// owns no heap storage and cannot list a sharer twice. Holds tiles
/// `0..TileSet::CAPACITY`; [`crate::Machine::new`] rejects larger machines.
/// Iterates, and prints (`[TileId(0), TileId(2)]`), in ascending tile order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TileSet(u64);

impl TileSet {
    /// Number of distinct tiles the mask can name.
    pub const CAPACITY: usize = u64::BITS as usize;
    /// The set with no tiles.
    pub const EMPTY: TileSet = TileSet(0);

    fn bit(t: TileId) -> u64 {
        debug_assert!((t.0 as usize) < Self::CAPACITY, "{t:?} outside the mask");
        1 << t.0
    }

    /// Is `t` a member?
    pub fn contains(self, t: TileId) -> bool {
        self.0 & Self::bit(t) != 0
    }

    /// Add `t` (a no-op if already present).
    pub fn insert(&mut self, t: TileId) {
        self.0 |= Self::bit(t);
    }

    /// Drop `t` (a no-op if absent).
    pub fn remove(&mut self, t: TileId) {
        self.0 &= !Self::bit(t);
    }

    /// The set minus `t`.
    pub fn without(mut self, t: TileId) -> TileSet {
        self.remove(t);
        self
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// No members?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The lowest-numbered member.
    pub fn first(self) -> Option<TileId> {
        self.iter().next()
    }

    /// Members in ascending tile order.
    pub fn iter(self) -> impl Iterator<Item = TileId> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let t = rest.trailing_zeros() as u16;
                rest &= rest - 1;
                TileId(t)
            })
        })
    }

    /// The raw mask (bit `t` set iff tile `t` is a member).
    pub fn bits(self) -> u64 {
        self.0
    }
}

impl FromIterator<TileId> for TileSet {
    fn from_iter<I: IntoIterator<Item = TileId>>(tiles: I) -> Self {
        let mut set = TileSet::EMPTY;
        for t in tiles {
            set.insert(t);
        }
        set
    }
}

impl<const N: usize> From<[TileId; N]> for TileSet {
    fn from(tiles: [TileId; N]) -> Self {
        tiles.into_iter().collect()
    }
}

impl fmt::Debug for TileSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Directory entry for one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirEntry {
    /// Global residency/ownership state.
    pub state: GlobalState,
    /// Tiles holding the line in S (the F holder and the O owner are
    /// listed here too); empty in the single-holder states.
    pub sharers: TileSet,
    /// Coherence epoch: bumped whenever cached copies become invalid, so
    /// tag-array hits can be validated without eager invalidation walks.
    pub version: u32,
    /// The home CHA serializes requests to this line; next free service slot.
    pub busy_until: u64,
}

impl DirEntry {
    /// The state tile `t` holds this line in (assuming its tag array still
    /// has a current-version copy).
    pub fn state_of(&self, t: TileId) -> LineState {
        match self.state {
            GlobalState::Uncached => LineState::Invalid,
            GlobalState::Exclusive { owner } if owner == t => LineState::Exclusive,
            GlobalState::Modified { owner } if owner == t => LineState::Modified,
            GlobalState::Exclusive { .. } | GlobalState::Modified { .. } => LineState::Invalid,
            GlobalState::Shared { forward } if forward == Some(t) => LineState::Forward,
            GlobalState::Owned { owner } if owner == t => LineState::Owned,
            GlobalState::Shared { .. } | GlobalState::Owned { .. } => {
                if self.sharers.contains(t) {
                    LineState::Shared
                } else {
                    LineState::Invalid
                }
            }
        }
    }

    /// The tile that must supply data (owner or F holder), if any cache can.
    pub fn supplier(&self) -> Option<TileId> {
        match self.state {
            GlobalState::Uncached => None,
            GlobalState::Exclusive { owner } | GlobalState::Modified { owner } => Some(owner),
            // In MESIF only the F holder responds; if F was dropped (e.g.
            // evicted), memory supplies the data.
            GlobalState::Shared { forward } => forward,
            // The dirty sharer always answers (it must: memory is stale).
            GlobalState::Owned { owner } => Some(owner),
        }
    }

    /// Is the line dirty somewhere?
    pub fn dirty(&self) -> bool {
        matches!(
            self.state,
            GlobalState::Modified { .. } | GlobalState::Owned { .. }
        )
    }

    /// The tiles holding a copy.
    pub fn holders(&self) -> TileSet {
        match self.state {
            GlobalState::Uncached => TileSet::EMPTY,
            GlobalState::Exclusive { owner } | GlobalState::Modified { owner } => {
                TileSet::from([owner])
            }
            GlobalState::Shared { .. } | GlobalState::Owned { .. } => self.sharers,
        }
    }

    /// Number of tiles holding a copy.
    pub fn num_holders(&self) -> usize {
        self.holders().len()
    }

    /// Invalidate every copy (an invalidation-protocol NT store overwrote
    /// memory; state preparation starting from a clean slate). Returns true
    /// if a dirty copy was destroyed.
    pub fn invalidate_all(&mut self) -> bool {
        let was_dirty = self.dirty();
        if self.state != GlobalState::Uncached {
            self.version = self.version.wrapping_add(1);
        }
        self.state = GlobalState::Uncached;
        self.sharers = TileSet::EMPTY;
        was_dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: TileId = TileId(0);
    const T1: TileId = TileId(1);
    const T2: TileId = TileId(2);

    fn shared(forward: Option<TileId>, sharers: &[TileId]) -> DirEntry {
        DirEntry {
            state: GlobalState::Shared { forward },
            sharers: sharers.iter().copied().collect(),
            ..DirEntry::default()
        }
    }

    #[test]
    fn tile_set_is_an_ascending_duplicate_free_set() {
        let mut s = TileSet::from([T2, T0, T2]);
        assert_eq!(s.len(), 2, "a bitmask cannot list a tile twice");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![T0, T2]);
        assert_eq!(s.first(), Some(T0));
        assert!(s.contains(T2) && !s.contains(T1));
        s.insert(TileId(63));
        assert_eq!(s.bits(), 1 << 63 | 0b101);
        s.remove(T0);
        assert_eq!(s.without(T2), TileSet::from([TileId(63)]));
        assert!(TileSet::EMPTY.is_empty() && TileSet::EMPTY.first().is_none());
    }

    #[test]
    fn tile_set_prints_like_the_sharer_list_it_replaced() {
        // Violation reports and the checker's event trail keep their text.
        let s = TileSet::from([T2, T0]);
        assert_eq!(format!("{s:?}"), format!("{:?}", vec![T0, T2]));
        assert_eq!(format!("{:?}", TileSet::EMPTY), "[]");
    }

    #[test]
    fn dir_entry_is_three_words_and_owns_no_heap() {
        // The sharer mask, `busy_until`, and version + state: a word each.
        assert_eq!(std::mem::size_of::<DirEntry>(), 24);
        fn assert_copy<T: Copy>() {}
        assert_copy::<DirEntry>();
    }

    #[test]
    fn invalidate_all_preserves_future_busy_slot() {
        // The home CHA's service slot outlives the copies: invalidation is
        // a directory action and must not rewind `busy_until` (the checker
        // enforces per-line monotonicity).
        let mut e = shared(Some(T0), &[T0, T1]);
        e.busy_until = 5_000_000;
        e.invalidate_all();
        assert_eq!(e.busy_until, 5_000_000);
        assert_eq!(e.num_holders(), 0);
        assert!(e.sharers.is_empty(), "no stale sharers may survive");
    }

    #[test]
    fn invalidate_all_bumps_version_only_when_cached() {
        let mut e = DirEntry::default();
        assert!(!e.invalidate_all());
        assert_eq!(e.version, 0, "nothing cached: no epoch to retire");
        let mut e = shared(None, &[T0]);
        e.invalidate_all();
        assert_eq!(e.version, 1, "cached copies must die via the epoch bump");
    }

    #[test]
    fn invalidate_all_destroys_dirty() {
        let mut e = DirEntry {
            state: GlobalState::Modified { owner: T1 },
            ..DirEntry::default()
        };
        assert!(e.invalidate_all());
        assert!(!e.invalidate_all());
        assert_eq!(e.num_holders(), 0);
    }

    #[test]
    fn letters() {
        assert_eq!(LineState::Modified.letter(), 'M');
        assert_eq!(LineState::Invalid.letter(), 'I');
    }
}
