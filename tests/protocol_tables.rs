//! The directory transition tables, pinned as data.
//!
//! For every [`ProtocolKind`] this enumerates every structurally distinct
//! [`DirEntry`] over three tiles — all six [`GlobalState`] shapes,
//! including the ones a protocol "never produces" (an O entry under MESIF,
//! an F holder under MESI) and the ones no protocol does (an owner state
//! with a residual sharer set), crossed with every sharer subset — times
//! the four directory requests, times the requesting tile, and writes one
//! line per combination:
//!
//! ```text
//! <protocol> <pre> <request> t<tile> -> <post> | req=<L> wb=<0|1> inv=<n> upd=<n> dv=<n>
//! ```
//!
//! An entry prints as its global-state tag plus owner / forwarder tile
//! (`U`, `E0`, `M1`, `S-`, `S2`, `O0`) followed by its sharers as a *set*,
//! ascending: `S2{0,2}`; `req` is the state the requesting tile ends in.
//! The file `tests/golden/protocol_tables.txt` was blessed from the four
//! per-protocol implementations that preceded the single
//! [`transition`] function (whose sharer lists were `Vec`s: 72 Dragon
//! NT-store rows over illegal E/M entries that already listed their owner
//! ended with that tile twice, which the set print does not show), so it
//! is the reference the function is held to: any byte of drift is a
//! changed transition. Regenerate after an *intentional* protocol change
//! with
//!
//! ```text
//! KNL_UPDATE_GOLDEN=1 cargo test --test protocol_tables
//! ```
//!
//! and review the diff like source.

#[path = "common/golden.rs"]
mod golden;

use golden::assert_golden;
use knl::arch::{ProtocolKind, TileId};
use knl::sim::protocol::transition;
use knl::sim::{DirEntry, GlobalState, Request};
use std::fmt::Write as _;

const TILES: u16 = 3;

fn shapes() -> Vec<GlobalState> {
    let mut v = vec![GlobalState::Uncached];
    v.extend((0..TILES).map(|o| GlobalState::Exclusive { owner: TileId(o) }));
    v.extend((0..TILES).map(|o| GlobalState::Modified { owner: TileId(o) }));
    v.push(GlobalState::Shared { forward: None });
    v.extend((0..TILES).map(|f| GlobalState::Shared {
        forward: Some(TileId(f)),
    }));
    v.extend((0..TILES).map(|o| GlobalState::Owned { owner: TileId(o) }));
    v
}

fn render(e: &DirEntry) -> String {
    let state = match e.state {
        GlobalState::Uncached => "U".to_string(),
        GlobalState::Exclusive { owner } => format!("E{}", owner.0),
        GlobalState::Modified { owner } => format!("M{}", owner.0),
        GlobalState::Shared { forward: None } => "S-".to_string(),
        GlobalState::Shared { forward: Some(f) } => format!("S{}", f.0),
        GlobalState::Owned { owner } => format!("O{}", owner.0),
    };
    let sharers: Vec<String> = e.sharers.iter().map(|t| t.0.to_string()).collect();
    format!("{state}{{{}}}", sharers.join(","))
}

fn tables() -> String {
    let mut out = String::new();
    let requests = [
        (Request::Read, "read"),
        (Request::Write, "write"),
        (Request::Evict, "evict"),
        (Request::NtStore, "ntstore"),
    ];
    for kind in ProtocolKind::ALL {
        for state in shapes() {
            for subset in 0..1u16 << TILES {
                let pre = DirEntry {
                    state,
                    sharers: (0..TILES)
                        .filter(|t| subset & 1 << t != 0)
                        .map(TileId)
                        .collect(),
                    ..DirEntry::default()
                };
                for (request, name) in requests {
                    for tile in (0..TILES).map(TileId) {
                        let mut e = pre;
                        let o = transition(kind, &mut e, request, tile);
                        writeln!(
                            out,
                            "{kind} {} {name} t{} -> {} | req={} wb={} inv={} upd={} dv={}",
                            render(&pre),
                            tile.0,
                            render(&e),
                            o.requester.letter(),
                            u8::from(o.writeback),
                            o.invalidated,
                            o.updated,
                            e.version.wrapping_sub(pre.version),
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
    out
}

#[test]
fn transition_tables_match_the_golden_file() {
    assert_golden("protocol_tables.txt", &tables());
}
