//! Min-heaps: the shared 4-ary [`MinHeap`] and the textbook [`IndexedMinHeap`].
//!
//! The default heap ([`MinHeap`]) does **not** support decrease-key: duplicate entries
//! for the same vertex are simply pushed and stale ones skipped when popped. On
//! degree-bounded road networks the number of duplicates is small, and the paper reports
//! a 2× speed-up from avoiding the per-vertex position map ("PQueue" line of Figure 7).
//! Every expansion search, CH query and index build in the workspace sits on it, so
//! its two sifts are written for the memory system: the travelling entry is held in
//! a register while parents (or smallest children) shift into the **hole** it leaves,
//! and it is written once where it comes to rest — one store per level instead of a
//! swap's two — on a **4-ary** layout, which halves the levels a pop descends and keeps
//! a node's children in one cache line of 16-byte entries.
//!
//! [`IndexedMinHeap`] is the decrease-key binary heap. Its only caller is the "1st
//! Cut" stage of the Figure 7 ablation (`rnknn::ine::IneVariant::FirstCut`), which
//! exists to be the textbook baseline — so it keeps the textbook swap-based sifts.

use rnknn_graph::Weight;

/// Children per node of [`MinHeap`]. Four 16-byte `(Weight, NodeId)` entries are one
/// cache line, and a pop descends half the levels of a binary layout.
const ARITY: usize = 4;

/// A plain 4-ary min-heap of `(key, item)` pairs without decrease-key support.
///
/// `K` is typically [`Weight`] and `T` a vertex id, but any ordered key works.
/// Entries with equal keys pop in an unspecified (but deterministic) order.
#[derive(Debug, Clone)]
pub struct MinHeap<T, K = Weight> {
    data: Vec<(K, T)>,
}

impl<T: Copy, K: Copy + PartialOrd> MinHeap<T, K> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        MinHeap { data: Vec::new() }
    }

    /// Creates an empty heap with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        MinHeap { data: Vec::with_capacity(cap) }
    }

    /// Number of entries currently stored (including stale duplicates).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Pushes an entry.
    #[inline]
    pub fn push(&mut self, key: K, item: T) {
        self.data.push((key, item));
        self.sift_up(self.data.len() - 1, (key, item));
    }

    /// The smallest key currently in the heap.
    #[inline]
    pub fn peek_key(&self) -> Option<K> {
        self.data.first().map(|&(k, _)| k)
    }

    /// Pops the entry with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<(K, T)> {
        let last = self.data.pop()?;
        match self.data.first().copied() {
            None => Some(last),
            Some(top) => {
                self.sift_down(last);
                Some(top)
            }
        }
    }

    /// Moves `entry` up from the hole at `i`: parents with a larger key shift down
    /// into the hole, and `entry` is written once where it stops.
    #[inline]
    fn sift_up(&mut self, mut i: usize, entry: (K, T)) {
        let data = &mut self.data[..=i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let above = data[parent];
            if entry.0 < above.0 {
                data[i] = above;
                i = parent;
            } else {
                break;
            }
        }
        data[i] = entry;
    }

    /// Moves `entry` down from the hole at the root: the smallest child shifts up
    /// into the hole while its key is smaller, and `entry` is written once where
    /// it stops.
    #[inline]
    fn sift_down(&mut self, entry: (K, T)) {
        let data = &mut self.data[..];
        let mut i = 0;
        loop {
            let first = ARITY * i + 1;
            // A fold over the (at most ARITY) children compiles to conditional moves;
            // the same selection written as an index-tracking `for` loop compiles to
            // unpredictable branches and measured ~55% slower on a 23k-vertex SSSP.
            let smallest = data.get(first..(first + ARITY).min(data.len())).and_then(|children| {
                children
                    .iter()
                    .enumerate()
                    .reduce(|best, next| if next.1 .0 < best.1 .0 { next } else { best })
            });
            match smallest {
                Some((offset, &child)) if child.0 < entry.0 => {
                    data[i] = child;
                    i = first + offset;
                }
                _ => break,
            }
        }
        data[i] = entry;
    }
}

impl<T: Copy, K: Copy + PartialOrd> Default for MinHeap<T, K> {
    fn default() -> Self {
        Self::new()
    }
}

/// A binary min-heap over items `0..n` with decrease-key support via a position map.
///
/// Each item may appear at most once; [`IndexedMinHeap::push_or_decrease`] inserts the
/// item or lowers its key. This is the classic "textbook" Dijkstra queue the paper's
/// first-cut INE uses (and then abandons).
#[derive(Debug, Clone)]
pub struct IndexedMinHeap {
    /// Heap of (key, item).
    data: Vec<(Weight, u32)>,
    /// Position of each item in `data`, or `u32::MAX` when absent.
    positions: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl IndexedMinHeap {
    /// Creates a heap able to hold items `0..n`.
    pub fn new(n: usize) -> Self {
        IndexedMinHeap { data: Vec::new(), positions: vec![ABSENT; n] }
    }

    /// Number of items currently in the heap.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Inserts `item` with `key`, or decreases its key if it is already present with a
    /// larger key. Returns true if the heap changed.
    pub fn push_or_decrease(&mut self, key: Weight, item: u32) -> bool {
        let pos = self.positions[item as usize];
        if pos == ABSENT {
            self.data.push((key, item));
            let i = self.data.len() - 1;
            self.positions[item as usize] = i as u32;
            self.sift_up(i);
            true
        } else if key < self.data[pos as usize].0 {
            self.data[pos as usize].0 = key;
            self.sift_up(pos as usize);
            true
        } else {
            false
        }
    }

    /// Pops the item with the smallest key.
    pub fn pop(&mut self) -> Option<(Weight, u32)> {
        if self.data.is_empty() {
            return None;
        }
        let last = self.data.len() - 1;
        self.data.swap(0, last);
        let (k, item) = self.data.pop().expect("non-empty");
        self.positions[item as usize] = ABSENT;
        if !self.data.is_empty() {
            self.positions[self.data[0].1 as usize] = 0;
            self.sift_down(0);
        }
        Some((k, item))
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.data[i].0 < self.data[parent].0 {
                self.positions[self.data[parent].1 as usize] = i as u32;
                self.positions[self.data[i].1 as usize] = parent as u32;
                self.data.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.data.len();
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut smallest = i;
            if l < n && self.data[l].0 < self.data[smallest].0 {
                smallest = l;
            }
            if r < n && self.data[r].0 < self.data[smallest].0 {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.positions[self.data[smallest].1 as usize] = i as u32;
            self.positions[self.data[i].1 as usize] = smallest as u32;
            self.data.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::generator::SplitMix64;

    #[test]
    fn min_heap_pops_in_key_order() {
        let mut h: MinHeap<u32> = MinHeap::new();
        for (k, v) in [(5, 50), (1, 10), (3, 30), (2, 20), (4, 40)] {
            h.push(k, v);
        }
        let mut out = Vec::new();
        while let Some((k, v)) = h.pop() {
            out.push((k, v));
        }
        assert_eq!(out, vec![(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]);
    }

    #[test]
    fn min_heap_allows_duplicates() {
        let mut h: MinHeap<u32> = MinHeap::new();
        h.push(7, 1);
        h.push(3, 1);
        assert_eq!(h.len(), 2);
        assert_eq!(h.pop(), Some((3, 1)));
        assert_eq!(h.pop(), Some((7, 1)));
        assert!(h.is_empty());
    }

    #[test]
    fn min_heap_peek_and_clear() {
        let mut h: MinHeap<u32> = MinHeap::new();
        assert_eq!(h.peek_key(), None);
        h.push(9, 2);
        h.push(4, 8);
        assert_eq!(h.peek_key(), Some(4));
        assert_eq!(h.len(), 2);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
    }

    /// Drives a `MinHeap<u32, K>` and a plain `Vec` model through the same seeded
    /// interleaving of `push`/`pop`/`clear`: every pop must return the model's
    /// minimum key with an item the model holds under that key, so popped keys are
    /// non-decreasing between pushes and the popped multiset is the pushed one.
    /// Keys come from a narrow range (long runs of equal keys); each round first
    /// fills to a size on or next to a level boundary of the layout.
    fn check_against_model<K: Copy + Ord + std::fmt::Debug>(seed: u64, key: impl Fn(u64) -> K) {
        let mut rng = SplitMix64::new(seed);
        let mut heap: MinHeap<u32, K> = MinHeap::new();
        let mut model: Vec<(K, u32)> = Vec::new();
        let mut next_item = 0u32;
        let mut push_both = |heap: &mut MinHeap<u32, K>, model: &mut Vec<(K, u32)>, k: K| {
            heap.push(k, next_item);
            model.push((k, next_item));
            next_item += 1;
        };
        let pop_both = |heap: &mut MinHeap<u32, K>, model: &mut Vec<(K, u32)>| {
            let popped = heap.pop();
            assert_eq!(popped.map(|(k, _)| k), model.iter().map(|&(k, _)| k).min());
            if let Some(entry) = popped {
                let at = model.iter().position(|&e| e == entry).expect("popped entry was pushed");
                model.swap_remove(at);
            }
            assert_eq!(heap.len(), model.len());
            popped
        };
        let sizes =
            [0, 1, 2, ARITY - 1, ARITY, ARITY + 1, ARITY + 2, ARITY * ARITY + ARITY + 1, 90];
        for round in 0..200 {
            let spread = if round % 3 == 0 { 1 << 40 } else { 6 };
            while heap.len() < sizes[round % sizes.len()] {
                push_both(&mut heap, &mut model, key(rng.next_below(spread)));
            }
            for _ in 0..rng.next_below(40) {
                if rng.chance(0.5) {
                    push_both(&mut heap, &mut model, key(rng.next_below(spread)));
                } else {
                    pop_both(&mut heap, &mut model);
                }
                assert_eq!(heap.peek_key(), model.iter().map(|&(k, _)| k).min());
            }
            if round % 5 == 4 {
                heap.clear();
                model.clear();
            }
            // Drain: keys come out non-decreasing, down through sizes arity + 1 … 0.
            let mut previous = None;
            while let Some((k, _)) = pop_both(&mut heap, &mut model) {
                assert!(previous <= Some(k), "{previous:?} popped before {k:?}");
                previous = Some(k);
            }
            assert!(heap.is_empty() && model.is_empty());
        }
    }

    #[test]
    fn min_heap_matches_a_model_under_random_push_pop_clear() {
        for seed in 0..4 {
            check_against_model::<Weight>(seed, |r| r as Weight);
            // Negative keys: the CH contraction queue orders vertices by `i64` priority.
            check_against_model::<i64>(seed, |r| r as i64 - 3);
        }
    }

    #[test]
    fn indexed_heap_decrease_key() {
        let mut h = IndexedMinHeap::new(10);
        assert!(h.push_or_decrease(10, 3));
        assert!(h.push_or_decrease(8, 5));
        // Decrease 3's key below 5's.
        assert!(h.push_or_decrease(2, 3));
        // Increasing is a no-op.
        assert!(!h.push_or_decrease(99, 3));
        assert_eq!(h.pop(), Some((2, 3)));
        assert_eq!(h.pop(), Some((8, 5)));
        assert_eq!(h.pop(), None);
        // A popped item is absent again: re-inserting it is a push, not a decrease.
        assert!(h.push_or_decrease(99, 3));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn indexed_heap_orders_many_items() {
        let mut h = IndexedMinHeap::new(100);
        for i in 0..100u32 {
            h.push_or_decrease(((i * 37) % 100) as Weight, i);
        }
        let mut prev = 0;
        let mut count = 0;
        while let Some((k, _)) = h.pop() {
            assert!(k >= prev);
            prev = k;
            count += 1;
        }
        assert_eq!(count, 100);
    }

    #[test]
    fn heaps_sort_randomised_sequences_identically() {
        // Cross-check the two heap implementations against each other.
        let keys: Vec<Weight> = (0..200).map(|i| ((i * 7919 + 13) % 997) as Weight).collect();
        let mut plain: MinHeap<u32> = MinHeap::new();
        let mut indexed = IndexedMinHeap::new(keys.len());
        for (i, &k) in keys.iter().enumerate() {
            plain.push(k, i as u32);
            indexed.push_or_decrease(k, i as u32);
        }
        let mut a = Vec::new();
        while let Some((k, _)) = plain.pop() {
            a.push(k);
        }
        let mut b = Vec::new();
        while let Some((k, _)) = indexed.pop() {
            b.push(k);
        }
        assert_eq!(a, b);
    }
}
