//! A sorted-vec map for small, ordered aggregation keyspaces, and the one
//! open time bin both binning observers fold through.
//!
//! [`SortedVecMap`] is a pair of parallel sorted vectors: a lookup is a
//! binary search over a dense array, iteration a linear scan in ascending
//! key order, exactly like the `BTreeMap` it replaced, so serialized output
//! is byte-identical (DESIGN.md §6). A miss inserts by shifting the tail —
//! fine for a few dozen near-static keys, quadratic for the id-major
//! `(tile | device, bin)` series if they were searched per event.
//!
//! So they are not: the tracer and the sampler each count the bin they are
//! in through an `OpenBin` — a window (two compares per event, a division
//! only on a bin change) and the observer's `BinCells`, dense `OpenRow`s
//! indexed by id — and add the touched cells to their series when an event
//! lands in another bin, at a reset, and before anything reads the series.
//! The per-line hot-line profile is paged instead ([`crate::metrics`]).

use crate::SimTime;
use std::borrow::Cow;
use std::ops::Index;

/// A map backed by parallel key/value vectors kept sorted by key.
///
/// Iteration ([`SortedVecMap::iter`], [`SortedVecMap::values`], `&map` in
/// a `for` loop) is always in ascending key order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortedVecMap<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
}

impl<K, V> Default for SortedVecMap<K, V> {
    fn default() -> Self {
        SortedVecMap {
            keys: Vec::new(),
            vals: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> SortedVecMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Shared-reference lookup.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.keys.binary_search(key).ok().map(|i| &self.vals[i])
    }

    /// Mutable reference to the value under `key`, inserting
    /// `V::default()` first if absent (the `entry(k).or_default()` idiom).
    pub fn entry_or_default(&mut self, key: K) -> &mut V
    where
        V: Default,
    {
        let i = match self.keys.binary_search(&key) {
            Ok(i) => i,
            Err(i) => {
                self.keys.insert(i, key);
                self.vals.insert(i, V::default());
                i
            }
        };
        &mut self.vals[i]
    }

    /// Remove the entry under `key`, returning its value if present.
    ///
    /// Removal shifts the tail (O(n)), matching the insert cost profile:
    /// fine for the small bookkeeping keyspaces this map is meant for.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.keys.binary_search(key).ok()?;
        self.keys.remove(i);
        Some(self.vals.remove(i))
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.keys.iter().zip(self.vals.iter())
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.vals.iter()
    }

    /// The greatest key, if any.
    pub fn last_key(&self) -> Option<&K> {
        self.keys.last()
    }
}

/// The sim-time window `[start, start + interval)` of the time bin an
/// observer is accumulating: the per-event question "same bin as the last
/// event?" is two compares, and the division happens only when the answer
/// is no.
#[derive(Debug, Clone)]
pub(crate) struct BinWindow {
    interval: SimTime,
    start: SimTime,
    index: u64,
}

impl BinWindow {
    /// The window of bin 0 at bin width `interval` (ps, nonzero).
    pub(crate) fn new(interval: SimTime) -> Self {
        assert!(interval > 0, "a time bin has a width");
        BinWindow {
            interval,
            start: 0,
            index: 0,
        }
    }

    /// Does `time` fall in this bin?
    #[inline]
    pub(crate) fn holds(&self, time: SimTime) -> bool {
        // Not `time < start + interval`: the last bin's end is past `u64::MAX`.
        time >= self.start && time - self.start < self.interval
    }

    /// Move the window to the bin holding `time`.
    pub(crate) fn move_to(&mut self, time: SimTime) {
        self.index = time / self.interval;
        self.start = self.index * self.interval;
    }

    /// Index of the bin (`time / interval` for every time it holds).
    pub(crate) fn index(&self) -> u64 {
        self.index
    }
}

/// What an observer counts for its open time bin, and how those counts
/// are added to its sparse series `S` when the bin closes.
pub(crate) trait BinCells<S>: Clone {
    /// Whether [`BinCells::close_into`] would add nothing.
    fn is_empty(&self) -> bool;
    /// Add the touched cells to `series` as bin `bin`, and empty them.
    fn close_into(&mut self, bin: u64, series: &mut S);
}

/// An observer's fold: the series of every closed bin, and the open bin's
/// cells behind the [`BinWindow`] that says which bin is open. The
/// observer counts into [`OpenBin::at`] and into `closed` directly for
/// what is not binned.
#[derive(Debug, Clone)]
pub(crate) struct OpenBin<C, S> {
    window: BinWindow,
    cells: C,
    /// Everything folded so far but what `cells` still holds.
    pub(crate) closed: S,
}

impl<C: BinCells<S>, S: Clone> OpenBin<C, S> {
    /// Bin 0 open and empty, at bin width `interval` (ps).
    pub(crate) fn new(interval: SimTime, cells: C, closed: S) -> Self {
        OpenBin {
            window: BinWindow::new(interval),
            cells,
            closed,
        }
    }

    /// The open bin's cells, after closing the open bin and opening the
    /// one holding `time` if `time` is not in it.
    #[inline]
    pub(crate) fn at(&mut self, time: SimTime) -> &mut C {
        if !self.window.holds(time) {
            self.close();
            self.window.move_to(time);
        }
        &mut self.cells
    }

    /// Add the open bin's cells to `closed`.
    pub(crate) fn close(&mut self) {
        self.cells.close_into(self.window.index(), &mut self.closed);
    }

    /// The series, open bin included: a copy with the bin closed into it
    /// while a bin is open (an observer still attached to its machine),
    /// `closed` itself otherwise.
    pub(crate) fn view(&self) -> Cow<'_, S> {
        if self.cells.is_empty() {
            return Cow::Borrowed(&self.closed);
        }
        let mut all = self.closed.clone();
        self.cells.clone().close_into(self.window.index(), &mut all);
        Cow::Owned(all)
    }
}

/// One binned series' cells for the open time bin, as a dense row indexed
/// by a small id (tile, device, state tag), plus the ids touched since the
/// last [`OpenRow::drain`]. A touched cell is drained even when its value
/// is still `V::default()`: the sparse series it is folded into records
/// that the cell was touched (`G 4 S 0`, an all-zero `V` row).
///
/// The row grows to the largest id it has seen, so ids must come from the
/// simulator (tile and device numbers), never from a parsed file.
#[derive(Debug, Clone)]
pub(crate) struct OpenRow<V> {
    cells: Vec<Option<V>>,
    touched: Vec<usize>,
}

impl<V> Default for OpenRow<V> {
    fn default() -> Self {
        OpenRow {
            cells: Vec::new(),
            touched: Vec::new(),
        }
    }
}

impl<V: Default> OpenRow<V> {
    /// The open bin's cell for `id`, touched from now on.
    #[inline]
    pub(crate) fn cell(&mut self, id: usize) -> &mut V {
        if id >= self.cells.len() {
            self.cells.resize_with(id + 1, || None);
        }
        let cell = &mut self.cells[id];
        if cell.is_none() {
            self.touched.push(id);
        }
        cell.get_or_insert_with(V::default)
    }

    /// Whether no cell was touched since the last drain.
    pub(crate) fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Hand every touched `(id, value)` to `f`, in first-touch order, and
    /// leave the row untouched.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(usize, V)) {
        for id in self.touched.drain(..) {
            let v = self.cells[id].take().expect("a touched cell holds a value");
            f(id, v);
        }
    }
}

impl<K: Ord + Copy, V> Index<&K> for SortedVecMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<'a, K: Ord + Copy, V> IntoIterator for &'a SortedVecMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Zip<std::slice::Iter<'a, K>, std::slice::Iter<'a, V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.keys.iter().zip(self.vals.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty() {
        let m: SortedVecMap<u16, u64> = SortedVecMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(&3), None);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn entry_inserts_and_updates() {
        let mut m: SortedVecMap<u16, u64> = SortedVecMap::new();
        *m.entry_or_default(5) += 2;
        *m.entry_or_default(1) += 7;
        *m.entry_or_default(5) += 3;
        assert_eq!(m.len(), 2);
        assert_eq!(m[&5], 5);
        assert_eq!(m[&1], 7);
    }

    #[test]
    fn iteration_is_key_sorted() {
        let mut m: SortedVecMap<(char, u32), u64> = SortedVecMap::new();
        for k in [('M', 4), ('E', 2), ('M', 1), ('D', 9)] {
            *m.entry_or_default(k) += 1;
        }
        let keys: Vec<_> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![('D', 9), ('E', 2), ('M', 1), ('M', 4)]);
        // Matches BTreeMap order for the same inserts.
        let mut bt = std::collections::BTreeMap::new();
        for k in [('M', 4), ('E', 2), ('M', 1), ('D', 9)] {
            *bt.entry(k).or_insert(0u64) += 1;
        }
        let bt_keys: Vec<_> = bt.keys().copied().collect();
        assert_eq!(keys, bt_keys);
    }

    #[test]
    fn remove_returns_value_and_keeps_order() {
        let mut m: SortedVecMap<u8, u64> = SortedVecMap::new();
        *m.entry_or_default(3) = 30;
        *m.entry_or_default(1) = 10;
        *m.entry_or_default(2) = 20;
        assert_eq!(m.remove(&2), Some(20));
        assert_eq!(m.remove(&2), None);
        assert_eq!(m.len(), 2);
        let keys: Vec<_> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3]);
        assert_eq!(m.remove(&9), None);
    }

    #[test]
    fn values_follow_key_order() {
        let mut m: SortedVecMap<u8, u64> = SortedVecMap::new();
        *m.entry_or_default(9) = 90;
        *m.entry_or_default(2) = 20;
        assert_eq!(m.values().copied().collect::<Vec<_>>(), vec![20, 90]);
    }

    #[test]
    fn equality_ignores_insertion_history() {
        let mut a: SortedVecMap<u8, u64> = SortedVecMap::new();
        let mut b: SortedVecMap<u8, u64> = SortedVecMap::new();
        *a.entry_or_default(1) = 1;
        *a.entry_or_default(2) = 2;
        *b.entry_or_default(2) = 2;
        *b.entry_or_default(1) = 1;
        assert_eq!(a, b);
    }

    #[test]
    fn last_key_is_the_greatest() {
        let mut m: SortedVecMap<(u64, char), i64> = SortedVecMap::new();
        assert_eq!(m.last_key(), None);
        *m.entry_or_default((7, 'S')) = 1;
        *m.entry_or_default((2, 'M')) = 1;
        *m.entry_or_default((7, 'E')) = 1;
        assert_eq!(m.last_key(), Some(&(7, 'S')));
    }

    #[test]
    fn bin_window_agrees_with_division() {
        let mut w = BinWindow::new(100);
        assert!(w.holds(0) && w.holds(99) && !w.holds(100));
        assert_eq!(w.index(), 0);
        for t in [100, 250, 249, 99, 0, u64::MAX, u64::MAX - 99, 1] {
            if !w.holds(t) {
                w.move_to(t);
            }
            assert!(w.holds(t), "{t}");
            assert_eq!(w.index(), t / 100, "{t}");
        }
        // The last bin's window ends past `u64::MAX`; nothing wraps into it.
        w.move_to(u64::MAX);
        assert!(w.holds(u64::MAX) && !w.holds(0) && !w.holds(u64::MAX - 100));
    }

    #[test]
    fn open_row_drains_touched_cells_once_zeros_included() {
        let mut row: OpenRow<i64> = OpenRow::default();
        assert!(row.is_empty());
        *row.cell(9) += 2;
        *row.cell(0) -= 1;
        *row.cell(9) += 3;
        *row.cell(0) += 1;
        *row.cell(usize::from(u16::MAX)) += 1;
        assert!(!row.is_empty());
        let mut got = Vec::new();
        row.drain(|id, v| got.push((id, v)));
        assert_eq!(got, [(9, 5), (0, 0), (65535, 1)]);
        assert!(row.is_empty());
        row.drain(|id, v| panic!("drained ({id}, {v}) twice"));
        // A drained cell starts over.
        *row.cell(9) += 1;
        row.drain(|id, v| assert_eq!((id, v), (9, 1)));
    }

    #[test]
    #[should_panic(expected = "no entry found")]
    fn index_missing_panics() {
        let m: SortedVecMap<u8, u64> = SortedVecMap::new();
        let _ = m[&1];
    }
}
