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
//! ascending: `S2{0,2}`. The file `tests/golden/protocol_tables.txt` was
//! blessed from the four per-protocol implementations that preceded the
//! single transition function, so it is the reference the function is
//! held to: any byte of drift is a changed transition. Regenerate after an
//! *intentional* protocol change with
//!
//! ```text
//! KNL_UPDATE_GOLDEN=1 cargo test --test protocol_tables
//! ```
//!
//! and review the diff like source.

use knl::arch::{ProtocolKind, TileId};
use knl::sim::protocol::backend;
use knl::sim::{DirEntry, GlobalState};
use std::fmt::Write as _;
use std::path::PathBuf;

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
    let mut sharers: Vec<u16> = e.sharers.iter().map(|t| t.0).collect();
    sharers.sort_unstable();
    sharers.dedup();
    let list: Vec<String> = sharers.iter().map(u16::to_string).collect();
    format!("{state}{{{}}}", list.join(","))
}

fn tables() -> String {
    let mut out = String::new();
    for kind in ProtocolKind::ALL {
        let b = backend(kind);
        for state in shapes() {
            for subset in 0..1u16 << TILES {
                let pre = DirEntry {
                    state: state.clone(),
                    sharers: (0..TILES)
                        .filter(|t| subset & 1 << t != 0)
                        .map(TileId)
                        .collect(),
                    ..DirEntry::default()
                };
                for request in ["read", "write", "evict", "ntstore"] {
                    for tile in (0..TILES).map(TileId) {
                        let mut e = pre.clone();
                        let (mut requester, mut writeback) = (None, false);
                        let (mut invalidated, mut updated) = (0, 0);
                        match request {
                            "read" => {
                                let g = b.grant_read(&mut e, tile);
                                (requester, writeback) = (Some(g.state), g.writeback);
                            }
                            "write" => {
                                let g = b.grant_write(&mut e, tile);
                                (invalidated, updated) = (g.invalidated, g.updated);
                            }
                            "evict" => writeback = b.evict(&mut e, tile),
                            _ => {
                                let s = b.nt_store(&mut e);
                                (writeback, invalidated, updated) =
                                    (s.writeback, s.invalidated, s.updated);
                            }
                        }
                        let requester = requester.unwrap_or_else(|| e.state_of(tile));
                        writeln!(
                            out,
                            "{kind} {} {request} t{} -> {} | req={} wb={} inv={invalidated} \
                             upd={updated} dv={}",
                            render(&pre),
                            tile.0,
                            render(&e),
                            requester.letter(),
                            u8::from(writeback),
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
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/protocol_tables.txt");
    let tables = tables();
    if std::env::var_os("KNL_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &tables).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `KNL_UPDATE_GOLDEN=1 cargo test --test protocol_tables` to create it",
            path.display()
        )
    });
    if let Some((n, (got, want))) = tables
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!(
            "transition table drifted at line {}:\n  golden: {want}\n  now:    {got}",
            n + 1
        );
    }
    assert_eq!(
        tables.lines().count(),
        golden.lines().count(),
        "row count drifted"
    );
}
