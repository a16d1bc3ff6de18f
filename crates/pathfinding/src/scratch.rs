//! Reusable, epoch-stamped per-search state.
//!
//! Every expansion-style search in the workspace needs the same three pieces of
//! state: a tentative-distance array, a settled set and a priority queue. Allocating
//! them per query costs an `O(n)` allocation + wipe on every call — the dominant
//! cost of a short search on a large graph. [`Stamped`] is *the* epoch table of the
//! workspace: every slot carries the stamp of the search that wrote it, so
//! "clearing" between searches is a single integer increment, and the table grows
//! to the largest `n` seen and is then reused forever. It backs the visited set
//! below (INE, ROAD, the Dijkstra/A* IER oracles and the G-tree leaf searches), the
//! CH query labels and IER-CH's target table, and the G-tree materialization
//! tags — one grow, one wrap branch, one place to test them. [`SearchScratch`]
//! pairs the visited set with a heap (one pooled instance per thread, via the
//! engine's scratch pool) and owns the label-setting step on the pair,
//! [`SearchScratch::relax`]: INE, the Dijkstra oracle and ROAD all queue through
//! it, so none of them can queue a label that does not improve its vertex.

use rnknn_graph::{NodeId, Weight, INFINITY};

use crate::heap::MinHeap;

/// A table of `n` slots whose contents are valid for one search only.
///
/// [`Stamped::begin`] starts a search: every slot reads as absent until that
/// search [`Stamped::set`]s it. Value and stamp are packed per slot, so a probe —
/// the dominant random access of the memory-bound searches — touches one cache
/// line (with parallel value/stamp arrays the CH bidirectional query measured
/// ~12% slower; the expansion searches are within ~2% either way).
#[derive(Debug, Default)]
pub struct Stamped<T> {
    slots: Vec<(T, u32)>,
    stamp: u32,
}

impl<T: Copy + Default> Stamped<T> {
    /// Starts a new search over `n` slots: grows the table if it has only seen
    /// smaller searches and advances the stamp, wiping every slot's stamp on the
    /// rare wrap-around so a reused stamp can never alias a stale slot as current.
    pub fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, (T::default(), 0));
        }
        if self.stamp == u32::MAX {
            self.slots.iter_mut().for_each(|slot| slot.1 = 0);
            self.stamp = 0;
        }
        self.stamp += 1;
    }

    /// The value written to slot `i` this search, if any.
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        let (value, stamp) = self.slots[i];
        (stamp == self.stamp).then_some(value)
    }

    /// Writes slot `i` for this search.
    #[inline]
    pub fn set(&mut self, i: usize, value: T) {
        self.slots[i] = (value, self.stamp);
    }

    /// Parks the stamp at its last value, so the next [`Stamped::begin`] takes the
    /// wrap branch: lets an owner's tests prove its queries stay exact across one.
    pub fn park_before_wrap(&mut self) {
        self.stamp = u32::MAX;
    }
}

/// Stamped tentative distances + settled set, reusable across searches.
///
/// Split from the heap so a search can hold `&mut heap` and call the visited-set
/// methods at the same time (disjoint-field borrows).
#[derive(Debug, Default)]
pub struct VisitedScratch {
    dist: Stamped<Weight>,
    settled: Stamped<()>,
}

impl VisitedScratch {
    /// Starts a new search over `n` vertices.
    pub fn begin(&mut self, n: usize) {
        self.dist.begin(n);
        self.settled.begin(n);
    }

    /// Tentative distance of `v` this search ([`INFINITY`] when unvisited).
    #[inline]
    pub fn dist(&self, v: NodeId) -> Weight {
        self.dist.get(v as usize).unwrap_or(INFINITY)
    }

    /// Sets the tentative distance of `v`.
    #[inline]
    pub fn set_dist(&mut self, v: NodeId, d: Weight) {
        self.dist.set(v as usize, d);
    }

    /// Marks `v` settled, returning false when it already was this search.
    #[inline]
    pub fn settle(&mut self, v: NodeId) -> bool {
        if self.is_settled(v) {
            return false;
        }
        self.settled.set(v as usize, ());
        true
    }

    /// True when `v` was settled this search.
    #[inline]
    pub fn is_settled(&self, v: NodeId) -> bool {
        self.settled.get(v as usize).is_some()
    }
}

/// A complete reusable search state: stamped visited set plus a priority queue.
///
/// [`SearchScratch::begin`] prepares both for a new search; after a warm-up search
/// of comparable size, running another search allocates nothing.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// The priority queue (kept public so searches can split-borrow it against
    /// [`SearchScratch::visited`]).
    pub heap: MinHeap<NodeId>,
    /// The stamped distance/settled tables.
    pub visited: VisitedScratch,
}

impl SearchScratch {
    /// Creates an empty scratch (no allocation until the first search).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new search over `n` vertices: clears the heap and advances the
    /// visited stamps.
    pub fn begin(&mut self, n: usize) {
        self.heap.clear();
        self.visited.begin(n);
    }

    /// The one relaxation step of every label-setting search on this scratch:
    /// when `nd` improves on `t`'s tentative distance, records it, queues
    /// `(nd, t)` and returns true; an equal or worse label is dropped. A settled
    /// vertex holds its final (smallest) label, so it is never queued again, and
    /// a search seeds itself with `relax(source, 0)`.
    #[inline]
    pub fn relax(&mut self, t: NodeId, nd: Weight) -> bool {
        let improves = nd < self.visited.dist(t);
        if improves {
            self.visited.set_dist(t, nd);
            self.heap.push(nd, t);
        }
        improves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_isolate_consecutive_searches() {
        let mut s = SearchScratch::new();
        s.begin(10);
        s.visited.set_dist(3, 7);
        assert!(s.visited.settle(3));
        assert!(!s.visited.settle(3));
        assert_eq!(s.visited.dist(3), 7);
        assert_eq!(s.visited.dist(4), INFINITY);
        s.heap.push(7, 3);

        // A new search sees none of the previous one's state.
        s.begin(10);
        assert_eq!(s.visited.dist(3), INFINITY);
        assert!(!s.visited.is_settled(3));
        assert!(s.heap.is_empty());
    }

    #[test]
    fn relax_queues_strict_improvements_only_and_is_forgotten_by_begin() {
        let mut s = SearchScratch::new();
        s.begin(10);
        assert!(s.relax(3, 7), "first label of an unvisited vertex improves on INFINITY");
        assert!(!s.relax(3, 7), "an equal label is refused");
        assert!(!s.relax(3, 9), "a worse label is refused");
        assert_eq!((s.visited.dist(3), s.heap.len()), (7, 1));
        assert!(s.relax(3, 4));
        assert_eq!((s.visited.dist(3), s.heap.len()), (4, 2));
        assert_eq!(s.heap.pop(), Some((4, 3)));

        s.begin(10);
        assert!(s.heap.is_empty());
        assert_eq!(s.visited.dist(3), INFINITY);
        assert!(s.relax(3, 9), "the previous search's smaller label must not block this one");
    }

    #[test]
    fn grows_to_the_largest_graph_seen() {
        let mut s = SearchScratch::new();
        s.begin(4);
        s.visited.set_dist(2, 5);
        s.begin(100);
        assert_eq!(s.visited.dist(2), INFINITY);
        s.visited.set_dist(99, 1);
        assert_eq!(s.visited.dist(99), 1);
        // Shrinking back is a no-op; old large entries stay invalid by epoch.
        s.begin(4);
        assert_eq!(s.visited.dist(2), INFINITY);
    }

    #[test]
    fn stamped_slots_are_isolated_across_begin() {
        let mut t: Stamped<u32> = Stamped::default();
        t.begin(4);
        assert_eq!(t.get(2), None);
        t.set(2, 9);
        assert_eq!(t.get(2), Some(9));
        t.begin(4);
        assert_eq!(t.get(2), None, "a new search must not see the previous one's slot");
    }

    #[test]
    fn stamped_grows_to_the_largest_n() {
        let mut t: Stamped<u32> = Stamped::default();
        t.begin(2);
        t.set(1, 5);
        t.begin(50);
        assert_eq!(t.get(1), None);
        assert_eq!(t.get(49), None);
        t.set(49, 7);
        // A smaller search keeps the larger table; old entries stay stale by stamp.
        t.begin(2);
        assert_eq!(t.get(49), None);
    }

    #[test]
    fn stamped_wrap_resets_every_slot() {
        let mut t: Stamped<u32> = Stamped::default();
        t.begin(3);
        t.set(0, 11);
        // Park at the boundary and plant a slot carrying the stamp the restarted
        // counter will hand out next: only the wrap's wipe keeps it from aliasing.
        t.park_before_wrap();
        t.slots[1] = (22, 1);
        t.begin(3);
        assert_eq!(t.stamp, 1);
        assert!(t.slots.iter().all(|&(_, stamp)| stamp == 0));
        assert_eq!((t.get(0), t.get(1)), (None, None));
        t.set(2, 33);
        assert_eq!(t.get(2), Some(33));
    }
}
