//! The line-dense half of the rule in [`crate::fxmap`]: a `u64 -> V` table
//! in which neighbouring keys are neighbours in host memory.
//!
//! A key's high bits (`key >> PAGE_SHIFT`) name a *page* of
//! `PAGE_LINES` (8) consecutive keys: the slots themselves plus one presence
//! bit each, stored together. Pages are appended in creation order to
//! chunked storage — chunk sizes double from `FIRST_CHUNK_PAGES` up to
//! `MAX_CHUNK_PAGES` and then stay there — so a page never moves once it
//! exists: growing the table copies nothing, costs one allocation per
//! chunk and never holds the old and the new table at once. A small
//! [`LineMap`] takes a page number to where its page lives, with the last
//! two pages touched memoized, so a stream that walks lines in order probes
//! the hashed index once per page and reads each page's host cache lines
//! once — and so do two streams walked in lockstep (a triad's `b` and `c`,
//! a copy's source and destination), which a one-page memo would miss on
//! every access.
//!
//! The price is the page: a lone key in its page (a 4 KiB-strided walk)
//! spends `PAGE_LINES` slots on one entry, the bound stated once here
//! for every user — the directory, the memory-side-cache tags and the
//! hot-line profile.
//!
//! Determinism: the way to walk a `PagedLines` is [`PagedLines::iter`],
//! ascending by key. The one exception, `PagedLines::for_each_unordered`,
//! visits in page-creation order for a reduction whose result cannot
//! depend on the order (the hot-line top-k, under a total order); no other
//! caller.

use crate::fxmap::LineMap;

/// log₂ of [`PAGE_LINES`].
const PAGE_SHIFT: u32 = 3;

/// Keys per page, shared by every user of [`PagedLines`]. Four, eight and
/// sixteen are measured in DESIGN.md §6, "Host-memory locality".
const PAGE_LINES: usize = 1 << PAGE_SHIFT;

/// Pages in the first chunk: a table of a few keys stays a few hundred
/// bytes.
const FIRST_CHUNK_PAGES: usize = 8;

/// log₂ of [`MAX_CHUNK_PAGES`].
const MAX_CHUNK_SHIFT: u32 = 14;

/// Pages in every chunk from the twelfth on. An index value is
/// `chunk << MAX_CHUNK_SHIFT | offset`.
const MAX_CHUNK_PAGES: usize = 1 << MAX_CHUNK_SHIFT;

/// [`PAGE_LINES`] consecutive keys' values and which of them are present.
/// A slot whose bit is clear holds `V::default()`.
#[derive(Debug, Clone)]
struct Page<V> {
    present: u16,
    slots: [V; PAGE_LINES],
}

const _: () = assert!(PAGE_LINES <= u16::BITS as usize);

/// Paged `u64 -> V` table with [`LineMap`]'s lookup semantics and no
/// removal: entries leave only through [`PagedLines::clear`].
#[derive(Debug, Clone)]
pub struct PagedLines<V> {
    /// Page number → `chunk << MAX_CHUNK_SHIFT | offset` of its page.
    index: LineMap<u32>,
    /// Chunk `k` holds up to [`chunk_pages`]`(k)` pages and is allocated
    /// at that capacity, so pushing a page never relocates its chunk.
    chunks: Vec<Vec<Page<V>>>,
    /// The chunk new pages are pushed to (`clear` rewinds it to 0 and the
    /// chunks keep their capacity).
    filling: usize,
    /// Page number and index value of the last two pages a `&mut self`
    /// lookup touched, the latest first; `NO_PAGE` where there is none.
    last: [(u64, u32); 2],
}

/// Above every page number (`u64::MAX >> PAGE_SHIFT`).
const NO_PAGE: u64 = u64::MAX;

/// Capacity of chunk `k`.
fn chunk_pages(k: usize) -> usize {
    const DOUBLINGS: usize = (MAX_CHUNK_PAGES / FIRST_CHUNK_PAGES).trailing_zeros() as usize;
    FIRST_CHUNK_PAGES << k.min(DOUBLINGS)
}

/// Chunk and offset of the page an index value names.
#[inline]
fn locate(at: u32) -> (usize, usize) {
    (
        (at >> MAX_CHUNK_SHIFT) as usize,
        at as usize & (MAX_CHUNK_PAGES - 1),
    )
}

impl<V: Default> Default for PagedLines<V> {
    fn default() -> Self {
        PagedLines::new()
    }
}

impl<V: Default> PagedLines<V> {
    /// An empty table. Allocates nothing until the first insert.
    pub fn new() -> Self {
        PagedLines {
            index: LineMap::new(),
            chunks: Vec::new(),
            filling: 0,
            last: [(NO_PAGE, 0); 2],
        }
    }

    #[inline]
    fn split(key: u64) -> (u64, usize) {
        (key >> PAGE_SHIFT, key as usize & (PAGE_LINES - 1))
    }

    /// Index value of `page`, if it exists.
    #[inline]
    fn find(&self, page: u64) -> Option<u32> {
        let [latest, older] = self.last;
        if latest.0 == page {
            Some(latest.1)
        } else if older.0 == page {
            Some(older.1)
        } else {
            self.index.get(page).copied()
        }
    }

    /// Make `page` (at index value `at`) the latest memoized page; the
    /// older of the two memoized pages leaves unless it is `page`.
    #[inline]
    fn touch(&mut self, page: u64, at: u32) {
        if self.last[0].0 != page {
            self.last[1] = self.last[0];
            self.last[0] = (page, at);
        }
    }

    #[inline]
    fn page(&self, at: u32) -> &Page<V> {
        let (chunk, offset) = locate(at);
        &self.chunks[chunk][offset]
    }

    /// Shared-reference lookup.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        let (page, slot) = Self::split(key);
        let p = self.page(self.find(page)?);
        (p.present >> slot & 1 != 0).then(|| &p.slots[slot])
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let (page, slot) = Self::split(key);
        let at = self.find(page)?;
        self.touch(page, at);
        let (chunk, offset) = locate(at);
        let p = &mut self.chunks[chunk][offset];
        if p.present >> slot & 1 != 0 {
            Some(&mut p.slots[slot])
        } else {
            None
        }
    }

    /// Mutable reference to the value under `key`, inserting
    /// `V::default()` first if absent.
    #[inline]
    pub fn get_or_insert_default(&mut self, key: u64) -> &mut V {
        self.entry(key).0
    }

    /// [`PagedLines::get_or_insert_default`], also telling whether `key`
    /// was present before the call.
    #[inline]
    pub fn entry(&mut self, key: u64) -> (&mut V, bool) {
        let (page, slot) = Self::split(key);
        let at = match self.find(page) {
            Some(at) => at,
            None => self.new_page(page),
        };
        self.touch(page, at);
        let (chunk, offset) = locate(at);
        let p = &mut self.chunks[chunk][offset];
        let was_present = p.present >> slot & 1 != 0;
        p.present |= 1 << slot;
        (&mut p.slots[slot], was_present)
    }

    /// Append an empty page for `page` and index it.
    #[cold]
    fn new_page(&mut self, page: u64) -> u32 {
        if self
            .chunks
            .get(self.filling)
            .is_some_and(|c| c.len() == chunk_pages(self.filling))
        {
            self.filling += 1;
        }
        if self.filling == self.chunks.len() {
            self.chunks
                .push(Vec::with_capacity(chunk_pages(self.filling)));
        }
        let chunk = &mut self.chunks[self.filling];
        let at =
            u32::try_from(self.filling << MAX_CHUNK_SHIFT | chunk.len()).expect("under 2^32 pages");
        chunk.push(Page {
            present: 0,
            slots: std::array::from_fn(|_| V::default()),
        });
        self.index.insert(page, at);
        at
    }

    /// Drop all entries, keeping every chunk's capacity and the index's:
    /// a table refilled with as many pages allocates nothing. Costs a pass
    /// over the page index (and over the pages only if `V` needs dropping),
    /// not over the slots.
    pub fn clear(&mut self) {
        for chunk in &mut self.chunks {
            chunk.clear();
        }
        self.index.clear();
        self.filling = 0;
        self.last = [(NO_PAGE, 0); 2];
    }

    /// Every `(key, &value)`, in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.index.sorted_keys().into_iter().flat_map(move |page| {
            let at = *self.index.get(page).expect("a listed page is indexed");
            let p = self.page(at);
            (0..PAGE_LINES)
                .filter(move |slot| p.present >> slot & 1 != 0)
                .map(move |slot| (page << PAGE_SHIFT | slot as u64, &p.slots[slot]))
        })
    }

    /// Hand every `(key, &value)` to `f` in page-creation order, which
    /// depends on the table's history: for a reduction whose result does
    /// not depend on the order, which then skips [`PagedLines::iter`]'s
    /// sort of the page index and reads the pages front to back. Its one
    /// caller is `metrics::HotLines::top`.
    pub(crate) fn for_each_unordered(&self, mut f: impl FnMut(u64, &V)) {
        // Each page's number, where the page sits in its chunk.
        let mut numbers: Vec<Vec<u64>> = self.chunks.iter().map(|c| vec![0; c.len()]).collect();
        self.index.for_each_unordered(|page, &at| {
            let (chunk, offset) = locate(at);
            numbers[chunk][offset] = page;
        });
        for (chunk, numbers) in self.chunks.iter().zip(&numbers) {
            for (p, &page) in chunk.iter().zip(numbers) {
                let mut present = p.present;
                while present != 0 {
                    let slot = present.trailing_zeros() as usize;
                    present &= present - 1;
                    f(page << PAGE_SHIFT | slot as u64, &p.slots[slot]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_arch::SplitMixRng;

    /// Keys drawn at random: dense runs, one slot per page (the 4 KiB
    /// stride is 64 lines), and both ends of pages far apart.
    fn draw(rng: &mut SplitMixRng) -> u64 {
        match rng.range_u32(0, 4) {
            0 => rng.range_u64(1 << 20, (1 << 20) + 600),
            1 => (1 << 30) + 64 * rng.range_u64(0, 400),
            2 => {
                let page = rng.range_u64(0, 40) << 40;
                page << PAGE_SHIFT | [0, PAGE_LINES as u64 - 1][rng.range_usize(0, 2)]
            }
            _ => rng.range_u64(0, 1 << 12),
        }
    }

    /// Keys of one to three streams walked in lockstep, each line by line
    /// from its own base: two streams alternate between the two memoized
    /// pages (a triad's `b` and `c`), three evict the older one on every
    /// access. `width` and the bases change every `PHASE` keys.
    struct Lockstep {
        cursors: [u64; 3],
        width: usize,
        turn: usize,
    }

    const PHASE: u64 = 1500;

    impl Lockstep {
        fn next(&mut self, rng: &mut SplitMixRng, step: u64) -> u64 {
            if step.is_multiple_of(PHASE) {
                self.width = rng.range_usize(1, 4);
                // Bases a few pages apart (the pages may already exist) or
                // far apart.
                for c in &mut self.cursors {
                    *c = match rng.range_u32(0, 2) {
                        0 => (1 << 20) + rng.range_u64(0, 64),
                        _ => rng.range_u64(0, 1 << 30) << 8,
                    };
                }
            }
            self.turn = (self.turn + 1) % self.width;
            let c = &mut self.cursors[self.turn];
            *c += 1;
            *c
        }
    }

    fn assert_same(paged: &PagedLines<u64>, oracle: &LineMap<u64>) {
        let walked: Vec<(u64, u64)> = paged.iter().map(|(k, &v)| (k, v)).collect();
        let expect: Vec<(u64, u64)> = (oracle.sorted_keys().into_iter())
            .map(|k| (k, *oracle.get(k).unwrap()))
            .collect();
        assert_eq!(walked, expect, "ascending walk");
    }

    #[test]
    fn matches_line_map_on_seeded_streams() {
        for seed in [1u64, 0x9A6E_D11E, 0xFFFF_FFFF_0000_0001] {
            let mut rng = SplitMixRng::seed_from_u64(seed);
            let mut paged: PagedLines<u64> = PagedLines::new();
            let mut oracle: LineMap<u64> = LineMap::new();
            let mut lockstep = Lockstep {
                cursors: [0; 3],
                width: 1,
                turn: 0,
            };
            for step in 0..60_000 {
                // Random keys and lockstep streams, phase by phase.
                let key = if (step / PHASE).is_multiple_of(2) {
                    draw(&mut rng)
                } else {
                    lockstep.next(&mut rng, step)
                };
                let ctx = format!("seed {seed:#x} step {step} key {key:#x}");
                match rng.range_u32(0, 100) {
                    0 if step % 7 == 0 => {
                        assert_same(&paged, &oracle);
                        paged.clear();
                        oracle.clear();
                        assert!(paged.iter().next().is_none());
                    }
                    0..=29 => assert_eq!(paged.get(key), oracle.get(key), "{ctx}"),
                    30..=59 => {
                        let (p, o) = (paged.get_mut(key), oracle.get_mut(key));
                        assert_eq!(p, o, "{ctx}");
                        if let (Some(p), Some(o)) = (p, o) {
                            *p += 3;
                            *o += 3;
                        }
                    }
                    // Inserted and left at the default: present all the same.
                    60..=69 => {
                        let (p, o) = (
                            paged.get_or_insert_default(key),
                            oracle.get_or_insert_default(key),
                        );
                        assert_eq!(p, o, "{ctx}");
                    }
                    _ => {
                        let (p, was) = paged.entry(key);
                        assert_eq!(was, oracle.contains_key(key), "{ctx}");
                        let o = oracle.get_or_insert_default(key);
                        assert_eq!(p, o, "{ctx}");
                        *p += step;
                        *o += step;
                    }
                }
            }
            assert_same(&paged, &oracle);
        }
    }

    #[test]
    fn the_memo_holds_the_last_two_pages_until_clear() {
        let mut t: PagedLines<u64> = PagedLines::new();
        let pages = |t: &PagedLines<u64>| t.last.map(|(page, _)| page);
        let (a, b, c) = (0u64, 5u64, 9u64);
        *t.get_or_insert_default(a << PAGE_SHIFT) += 1;
        *t.get_or_insert_default(b << PAGE_SHIFT) += 2;
        assert_eq!(pages(&t), [b, a]);
        // Alternating between the two: both stay.
        for _ in 0..3 {
            *t.get_mut(a << PAGE_SHIFT).unwrap() += 1;
            assert_eq!(pages(&t), [a, b]);
            // An absent slot of a present page touches the page too.
            assert_eq!(t.get_mut(b << PAGE_SHIFT | 1), None);
            assert_eq!(pages(&t), [b, a]);
        }
        // A third page evicts the older one; a shared lookup moves nothing.
        t.get_or_insert_default(c << PAGE_SHIFT | 7);
        assert_eq!(pages(&t), [c, b]);
        assert_eq!(t.get(a << PAGE_SHIFT), Some(&4));
        assert_eq!(pages(&t), [c, b]);
        // Clear forgets both: the pages are gone, and the chunk slots they
        // named now hold other pages.
        t.clear();
        assert_eq!(pages(&t), [NO_PAGE; 2]);
        t.get_or_insert_default(1 << 40);
        t.get_or_insert_default(2 << 40);
        for key in [b << PAGE_SHIFT, c << PAGE_SHIFT | 7] {
            assert_eq!(t.get(key), None);
            assert_eq!(t.get_mut(key), None);
        }
    }

    #[test]
    fn a_present_default_is_not_an_absent_slot() {
        let mut t: PagedLines<u64> = PagedLines::new();
        t.get_or_insert_default(17);
        assert_eq!(t.get(17), Some(&0));
        assert_eq!(t.get_mut(17), Some(&mut 0));
        // Same page, never inserted; and a page that does not exist.
        assert_eq!(t.get(16), None);
        assert_eq!(t.get_mut(18), None);
        assert_eq!(t.get_mut(17 + (1 << 20)), None);
        assert_eq!(t.entry(17), (&mut 0, true));
        assert_eq!(t.entry(16), (&mut 0, false));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(16, &0), (17, &0)]);
    }

    #[test]
    fn the_largest_key_is_a_key() {
        // `LineMap` reserves `u64::MAX`; here it is slot 7 of page 2^61 - 1.
        let mut t: PagedLines<u64> = PagedLines::new();
        assert_eq!(t.get(u64::MAX), None);
        *t.get_or_insert_default(u64::MAX) += 5;
        *t.get_or_insert_default(u64::MAX - 7) += 1;
        *t.get_or_insert_default(0) += 2;
        assert_eq!(t.get(u64::MAX), Some(&5));
        assert_eq!(t.get(u64::MAX - 1), None);
        let all: Vec<(u64, u64)> = t.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(all, vec![(0, 2), (u64::MAX - 7, 1), (u64::MAX, 5)]);
        t.clear();
        assert_eq!(t.get(u64::MAX), None);
    }

    #[test]
    fn pages_never_move_and_clear_keeps_every_chunk() {
        use std::rc::Rc;
        let token = Rc::new(());
        let mut t: PagedLines<Vec<Rc<()>>> = PagedLines::new();
        t.clear(); // nothing allocated yet
        assert!(t.chunks.is_empty());
        // One slot per page: enough pages to cross into the capped chunks.
        let pages = 2 * MAX_CHUNK_PAGES as u64 + 100;
        let first: *const Vec<Rc<()>> = t.get_or_insert_default(0);
        for p in 0..pages {
            t.get_or_insert_default(p << PAGE_SHIFT).push(token.clone());
        }
        assert_eq!(
            t.get(0).map(std::ptr::from_ref),
            Some(first),
            "page 0 moved"
        );
        assert_eq!(Rc::strong_count(&token), 1 + pages as usize);
        let sizes: Vec<usize> = t.chunks.iter().map(Vec::len).collect();
        assert_eq!(sizes[..3], [8, 16, 32]);
        assert_eq!(sizes.iter().sum::<usize>(), pages as usize);
        assert!(sizes.iter().all(|&n| n <= MAX_CHUNK_PAGES));
        let capacity: Vec<usize> = t.chunks.iter().map(Vec::capacity).collect();

        t.clear();
        assert_eq!(Rc::strong_count(&token), 1, "heap values dropped");
        assert!(t.iter().next().is_none());
        assert_eq!(t.get(8), None);
        // Refilled in another order it is a table that was never used
        // before, in the chunks it already owns.
        for p in (0..pages).rev() {
            assert!(t.get_or_insert_default(p << PAGE_SHIFT | 1).is_empty());
        }
        assert_eq!(t.iter().count(), pages as usize);
        assert_eq!(t.get(0), None);
        let after: Vec<usize> = t.chunks.iter().map(Vec::capacity).collect();
        assert_eq!(after, capacity);
    }
}
