//! STR bulk-loaded R-tree over points with incremental Euclidean nearest-neighbor
//! browsing.
//!
//! IER (Section 3.2) and the DB-ENN variant of Distance Browsing (Appendix A.1.1)
//! retrieve candidate objects in increasing Euclidean distance order, one at a time,
//! suspending and resuming the search between candidates. [`EuclideanBrowser`]
//! implements that incremental best-first traversal; [`RTree::knn`] is the one-shot
//! variant used to seed IER's initial candidate set.

use rnknn_graph::{Point, Rect};

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Default R-tree node capacity. The paper tunes node capacity for best Euclidean kNN
/// performance; 16 is a good default for point data in memory.
pub const DEFAULT_NODE_CAPACITY: usize = 16;

#[derive(Debug)]
struct Node {
    rect: Rect,
    /// Child node indices for internal nodes; empty for leaves.
    children: Vec<u32>,
    /// Entry indices for leaf nodes; empty for internal nodes.
    entries: Vec<u32>,
}

impl Clone for Node {
    fn clone(&self) -> Node {
        Node { rect: self.rect, children: self.children.clone(), entries: self.entries.clone() }
    }

    fn clone_from(&mut self, source: &Node) {
        self.rect = source.rect;
        self.children.clone_from(&source.children);
        self.entries.clone_from(&source.entries);
    }
}

/// A bulk-loaded R-tree over `(Point, payload)` entries that also supports
/// incremental [`RTree::insert`] / [`RTree::remove`] for live-object workloads.
///
/// `clone_from` copies field by field into the target's own vectors, every node's
/// included, so copying a tree over a same-shaped one allocates nothing.
#[derive(Debug)]
pub struct RTree {
    nodes: Vec<Node>,
    root: u32,
    points: Vec<Point>,
    payloads: Vec<u32>,
    node_capacity: usize,
    /// Entry slots freed by `remove`, reused by `insert`.
    free: Vec<u32>,
    /// Node slots freed by `remove` (emptied nodes, collapsed roots), reused
    /// by splits and root growth.
    free_nodes: Vec<u32>,
    /// Number of live entries (`points.len()` minus free slots).
    active: usize,
}

impl Clone for RTree {
    fn clone(&self) -> RTree {
        RTree {
            nodes: self.nodes.clone(),
            root: self.root,
            points: self.points.clone(),
            payloads: self.payloads.clone(),
            node_capacity: self.node_capacity,
            free: self.free.clone(),
            free_nodes: self.free_nodes.clone(),
            active: self.active,
        }
    }

    fn clone_from(&mut self, source: &RTree) {
        // `Vec::clone_from` clones the common prefix element-wise, so each node
        // reuses its own `children` / `entries` buffers.
        self.nodes.clone_from(&source.nodes);
        self.root = source.root;
        self.points.clone_from(&source.points);
        self.payloads.clone_from(&source.payloads);
        self.node_capacity = source.node_capacity;
        self.free.clone_from(&source.free);
        self.free_nodes.clone_from(&source.free_nodes);
        self.active = source.active;
    }
}

impl RTree {
    /// Bulk loads an R-tree with the Sort-Tile-Recursive algorithm using the default
    /// node capacity.
    pub fn bulk_load(entries: &[(Point, u32)]) -> RTree {
        Self::bulk_load_with_capacity(entries, DEFAULT_NODE_CAPACITY)
    }

    /// Bulk loads with an explicit node capacity (Figure 18 tunes this parameter).
    pub fn bulk_load_with_capacity(entries: &[(Point, u32)], node_capacity: usize) -> RTree {
        let node_capacity = node_capacity.max(2);
        let points: Vec<Point> = entries.iter().map(|e| e.0).collect();
        let payloads: Vec<u32> = entries.iter().map(|e| e.1).collect();
        let mut nodes: Vec<Node> = Vec::new();

        if entries.is_empty() {
            nodes.push(Node { rect: Rect::empty(), children: Vec::new(), entries: Vec::new() });
            return RTree {
                nodes,
                root: 0,
                points,
                payloads,
                node_capacity,
                free: Vec::new(),
                free_nodes: Vec::new(),
                active: 0,
            };
        }

        // --- Leaf level via STR tiling ---
        let mut order: Vec<u32> = (0..entries.len() as u32).collect();
        order.sort_by(|&a, &b| {
            points[a as usize].x.partial_cmp(&points[b as usize].x).unwrap_or(Ordering::Equal)
        });
        let leaf_count = entries.len().div_ceil(node_capacity);
        let slices = (leaf_count as f64).sqrt().ceil() as usize;
        let slice_size = entries.len().div_ceil(slices.max(1));
        let mut leaves: Vec<u32> = Vec::new();
        for slice in order.chunks(slice_size.max(1)) {
            let mut slice: Vec<u32> = slice.to_vec();
            slice.sort_by(|&a, &b| {
                points[a as usize].y.partial_cmp(&points[b as usize].y).unwrap_or(Ordering::Equal)
            });
            for group in slice.chunks(node_capacity) {
                let mut rect = Rect::empty();
                for &e in group {
                    rect.expand_point(points[e as usize]);
                }
                nodes.push(Node { rect, children: Vec::new(), entries: group.to_vec() });
                leaves.push(nodes.len() as u32 - 1);
            }
        }

        // --- Internal levels: repeatedly pack node rectangles with STR ---
        let mut level = leaves;
        while level.len() > 1 {
            let mut order: Vec<u32> = level.clone();
            order.sort_by(|&a, &b| {
                center_x(&nodes[a as usize].rect)
                    .partial_cmp(&center_x(&nodes[b as usize].rect))
                    .unwrap_or(Ordering::Equal)
            });
            let parent_count = order.len().div_ceil(node_capacity);
            let slices = (parent_count as f64).sqrt().ceil() as usize;
            let slice_size = order.len().div_ceil(slices.max(1));
            let mut next_level = Vec::new();
            for slice in order.chunks(slice_size.max(1)) {
                let mut slice: Vec<u32> = slice.to_vec();
                slice.sort_by(|&a, &b| {
                    center_y(&nodes[a as usize].rect)
                        .partial_cmp(&center_y(&nodes[b as usize].rect))
                        .unwrap_or(Ordering::Equal)
                });
                for group in slice.chunks(node_capacity) {
                    let mut rect = Rect::empty();
                    for &c in group {
                        rect.expand_rect(&nodes[c as usize].rect);
                    }
                    nodes.push(Node { rect, children: group.to_vec(), entries: Vec::new() });
                    next_level.push(nodes.len() as u32 - 1);
                }
            }
            level = next_level;
        }
        let root = level[0];
        let active = points.len();
        RTree {
            nodes,
            root,
            points,
            payloads,
            node_capacity,
            free: Vec::new(),
            free_nodes: Vec::new(),
            active,
        }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.active
    }

    /// True when the tree indexes no entries.
    pub fn is_empty(&self) -> bool {
        self.active == 0
    }

    /// Inserts one entry incrementally (Guttman insert: descend by least area
    /// enlargement, split overflowing nodes on the way back up). The caller is
    /// responsible for not inserting a payload twice — the object-set layer
    /// guards membership.
    pub fn insert(&mut self, point: Point, payload: u32) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.points[slot as usize] = point;
                self.payloads[slot as usize] = payload;
                slot
            }
            None => {
                self.points.push(point);
                self.payloads.push(payload);
                (self.points.len() - 1) as u32
            }
        };
        self.active += 1;
        if let Some(sibling) = self.insert_rec(self.root, slot) {
            // The root split: grow the tree by one level.
            let mut rect = self.nodes[self.root as usize].rect;
            rect.expand_rect(&self.nodes[sibling as usize].rect);
            let children = vec![self.root, sibling];
            self.root = self.alloc_node(Node { rect, children, entries: Vec::new() });
        }
    }

    /// Removes the entry `(point, payload)` incrementally, returning whether it was
    /// present. Bounding rectangles along the path are recomputed exactly; freed
    /// entry slots and emptied nodes are reused by later inserts, and once more
    /// entry slots are dead than alive the tree compacts itself with a fresh bulk
    /// load.
    pub fn remove(&mut self, point: Point, payload: u32) -> bool {
        if self.active == 0 {
            return false;
        }
        if !self.remove_rec(self.root, point, payload) {
            return false;
        }
        self.active -= 1;
        // Collapse a root that shrank to a single internal child.
        loop {
            let r = &mut self.nodes[self.root as usize];
            if r.entries.is_empty() && r.children.len() == 1 {
                let old = std::mem::replace(&mut self.root, r.children[0]);
                r.children = Vec::new();
                self.free_nodes.push(old);
            } else {
                break;
            }
        }
        // Compact when the dead entry slots outnumber the live entries.
        if self.free.len() > 64 && self.free.len() > self.active {
            let mut dead = vec![false; self.points.len()];
            for &f in &self.free {
                dead[f as usize] = true;
            }
            let live: Vec<(Point, u32)> = (0..self.points.len())
                .filter(|&i| !dead[i])
                .map(|i| (self.points[i], self.payloads[i]))
                .collect();
            *self = RTree::bulk_load_with_capacity(&live, self.node_capacity);
        }
        true
    }

    fn insert_rec(&mut self, node: u32, slot: u32) -> Option<u32> {
        let point = self.points[slot as usize];
        if self.nodes[node as usize].children.is_empty() {
            let n = &mut self.nodes[node as usize];
            n.rect.expand_point(point);
            n.entries.push(slot);
            let overflow = n.entries.len() > self.node_capacity;
            return overflow.then(|| self.split_leaf(node));
        }
        // Choose the child needing the least area enlargement (ties: smaller area).
        let mut best = 0usize;
        let mut best_enlargement = f64::INFINITY;
        let mut best_area = f64::INFINITY;
        for (i, &c) in self.nodes[node as usize].children.iter().enumerate() {
            let rect = self.nodes[c as usize].rect;
            let area = rect.area();
            let mut grown = rect;
            grown.expand_point(point);
            let enlargement = grown.area() - area;
            if enlargement < best_enlargement
                || (enlargement == best_enlargement && area < best_area)
            {
                best = i;
                best_enlargement = enlargement;
                best_area = area;
            }
        }
        let child = self.nodes[node as usize].children[best];
        let split = self.insert_rec(child, slot);
        match split {
            Some(sibling) => {
                self.nodes[node as usize].children.push(sibling);
                self.refit_internal_rect(node);
                (self.nodes[node as usize].children.len() > self.node_capacity)
                    .then(|| self.split_internal(node))
            }
            None => {
                self.nodes[node as usize].rect.expand_point(point);
                None
            }
        }
    }

    /// Splits an overflowing leaf along the longer rect axis; returns the new sibling.
    fn split_leaf(&mut self, node: u32) -> u32 {
        let mut entries = std::mem::take(&mut self.nodes[node as usize].entries);
        let by_x =
            self.nodes[node as usize].rect.width() >= self.nodes[node as usize].rect.height();
        entries.sort_by(|&a, &b| {
            let (pa, pb) = (self.points[a as usize], self.points[b as usize]);
            let (ka, kb) = if by_x { (pa.x, pb.x) } else { (pa.y, pb.y) };
            ka.partial_cmp(&kb).unwrap_or(Ordering::Equal)
        });
        let right = entries.split_off(entries.len() / 2);
        let mut left_rect = Rect::empty();
        for &e in &entries {
            left_rect.expand_point(self.points[e as usize]);
        }
        let mut right_rect = Rect::empty();
        for &e in &right {
            right_rect.expand_point(self.points[e as usize]);
        }
        let n = &mut self.nodes[node as usize];
        n.entries = entries;
        n.rect = left_rect;
        self.alloc_node(Node { rect: right_rect, children: Vec::new(), entries: right })
    }

    /// Splits an overflowing internal node along the longer rect axis.
    fn split_internal(&mut self, node: u32) -> u32 {
        let mut children = std::mem::take(&mut self.nodes[node as usize].children);
        let by_x =
            self.nodes[node as usize].rect.width() >= self.nodes[node as usize].rect.height();
        children.sort_by(|&a, &b| {
            let (ra, rb) = (&self.nodes[a as usize].rect, &self.nodes[b as usize].rect);
            let (ka, kb) =
                if by_x { (center_x(ra), center_x(rb)) } else { (center_y(ra), center_y(rb)) };
            ka.partial_cmp(&kb).unwrap_or(Ordering::Equal)
        });
        let right = children.split_off(children.len() / 2);
        let mut left_rect = Rect::empty();
        for &c in &children {
            left_rect.expand_rect(&self.nodes[c as usize].rect);
        }
        let mut right_rect = Rect::empty();
        for &c in &right {
            right_rect.expand_rect(&self.nodes[c as usize].rect);
        }
        let n = &mut self.nodes[node as usize];
        n.children = children;
        n.rect = left_rect;
        self.alloc_node(Node { rect: right_rect, children: right, entries: Vec::new() })
    }

    /// Stores `node` in a freed node slot if there is one, else appends it.
    fn alloc_node(&mut self, node: Node) -> u32 {
        match self.free_nodes.pop() {
            Some(id) => {
                self.nodes[id as usize] = node;
                id
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
        }
    }

    fn refit_internal_rect(&mut self, node: u32) {
        let mut rect = Rect::empty();
        for i in 0..self.nodes[node as usize].children.len() {
            let c = self.nodes[node as usize].children[i];
            rect.expand_rect(&self.nodes[c as usize].rect);
        }
        self.nodes[node as usize].rect = rect;
    }

    fn remove_rec(&mut self, node: u32, point: Point, payload: u32) -> bool {
        if self.nodes[node as usize].children.is_empty() {
            let pos = self.nodes[node as usize].entries.iter().position(|&e| {
                self.payloads[e as usize] == payload
                    && self.points[e as usize].x == point.x
                    && self.points[e as usize].y == point.y
            });
            let Some(pos) = pos else { return false };
            let slot = self.nodes[node as usize].entries.swap_remove(pos);
            self.free.push(slot);
            let mut rect = Rect::empty();
            for &e in &self.nodes[node as usize].entries {
                rect.expand_point(self.points[e as usize]);
            }
            self.nodes[node as usize].rect = rect;
            return true;
        }
        for i in 0..self.nodes[node as usize].children.len() {
            let c = self.nodes[node as usize].children[i];
            if !self.nodes[c as usize].rect.contains(point) {
                continue;
            }
            if self.remove_rec(c, point, payload) {
                let child = &self.nodes[c as usize];
                if child.entries.is_empty() && child.children.is_empty() {
                    // Unlink the emptied child and free its slot for reuse.
                    self.nodes[node as usize].children.swap_remove(i);
                    self.free_nodes.push(c);
                }
                self.refit_internal_rect(node);
                return true;
            }
        }
        false
    }

    /// Node capacity the tree was built with.
    pub fn node_capacity(&self) -> usize {
        self.node_capacity
    }

    /// Approximate resident size in bytes (reported by the object-index experiments,
    /// Figure 18(a)).
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.points.len() * std::mem::size_of::<Point>()
            + self.payloads.len() * std::mem::size_of::<u32>()
            + (self.free.len() + self.free_nodes.len()) * std::mem::size_of::<u32>();
        for n in &self.nodes {
            bytes += std::mem::size_of::<Node>()
                + n.children.len() * std::mem::size_of::<u32>()
                + n.entries.len() * std::mem::size_of::<u32>();
        }
        bytes
    }

    /// The `k` entries nearest to `query` in Euclidean distance, as
    /// `(euclidean_distance, payload)` pairs in increasing distance order.
    pub fn knn(&self, query: Point, k: usize) -> Vec<(f64, u32)> {
        self.browse(query).take(k).collect()
    }

    /// Starts an incremental nearest-neighbor browse from `query`.
    pub fn browse(&self, query: Point) -> EuclideanBrowser<'_> {
        let mut heap = BinaryHeap::new();
        if !self.is_empty() {
            heap.push(HeapEntry {
                distance: self.nodes[self.root as usize].rect.min_distance(query),
                kind: EntryKind::Node(self.root),
            });
        }
        EuclideanBrowser { tree: self, query, heap }
    }

    /// [`RTree::browse`] running on a reusable [`BrowserScratch`]: the traversal heap
    /// is borrowed from `scratch` instead of freshly allocated, so repeated browses
    /// (one per kNN query) allocate nothing once the heap has grown to the workload's
    /// frontier size.
    pub fn browse_in<'t, 's>(
        &'t self,
        query: Point,
        scratch: &'s mut BrowserScratch,
    ) -> ScratchBrowser<'t, 's> {
        scratch.heap.clear();
        if !self.is_empty() {
            scratch.heap.push(HeapEntry {
                distance: self.nodes[self.root as usize].rect.min_distance(query),
                kind: EntryKind::Node(self.root),
            });
        }
        ScratchBrowser { tree: self, query, heap: &mut scratch.heap }
    }

    /// All entries within `radius` of `query` (used by tests and the object generators).
    pub fn within_radius(&self, query: Point, radius: f64) -> Vec<(f64, u32)> {
        let mut out = Vec::new();
        for item in self.browse(query) {
            if item.0 > radius {
                break;
            }
            out.push(item);
        }
        out
    }
}

fn center_x(r: &Rect) -> f64 {
    (r.min_x + r.max_x) * 0.5
}

fn center_y(r: &Rect) -> f64 {
    (r.min_y + r.max_y) * 0.5
}

#[derive(Debug, Clone, Copy)]
enum EntryKind {
    Node(u32),
    Entry(u32),
}

#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    distance: f64,
    kind: EntryKind,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.distance == other.distance
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we need the minimum distance first.
        other.distance.partial_cmp(&self.distance).unwrap_or(Ordering::Equal)
    }
}

/// Incremental best-first Euclidean nearest-neighbor iterator over an [`RTree`].
///
/// Yields `(euclidean_distance, payload)` in non-decreasing distance order; the
/// traversal state persists between `next` calls so IER can suspend and resume it.
#[derive(Debug, Clone)]
pub struct EuclideanBrowser<'a> {
    tree: &'a RTree,
    query: Point,
    heap: BinaryHeap<HeapEntry>,
}

impl<'a> EuclideanBrowser<'a> {
    /// Lower bound on the Euclidean distance of the *next* entry this browser will
    /// yield, or `None` when exhausted. DB-ENN uses this to interleave Euclidean
    /// candidates with interval refinements.
    pub fn peek_distance(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.distance)
    }
}

impl<'a> Iterator for EuclideanBrowser<'a> {
    type Item = (f64, u32);

    fn next(&mut self) -> Option<Self::Item> {
        browse_step(self.tree, self.query, &mut self.heap)
    }
}

/// Reusable storage for a [`ScratchBrowser`]: the best-first traversal heap, kept
/// alive across browses so the per-query browse allocates nothing in steady state.
#[derive(Debug, Default)]
pub struct BrowserScratch {
    heap: BinaryHeap<HeapEntry>,
}

impl BrowserScratch {
    /// Creates an empty scratch (no allocation until the first browse).
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`EuclideanBrowser`] over a borrowed [`BrowserScratch`] heap: identical traversal,
/// no per-browse allocation.
#[derive(Debug)]
pub struct ScratchBrowser<'t, 's> {
    tree: &'t RTree,
    query: Point,
    heap: &'s mut BinaryHeap<HeapEntry>,
}

impl<'t, 's> ScratchBrowser<'t, 's> {
    /// Lower bound on the Euclidean distance of the *next* entry this browser will
    /// yield, or `None` when exhausted (see [`EuclideanBrowser::peek_distance`]).
    pub fn peek_distance(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.distance)
    }
}

impl<'t, 's> Iterator for ScratchBrowser<'t, 's> {
    type Item = (f64, u32);

    fn next(&mut self) -> Option<Self::Item> {
        browse_step(self.tree, self.query, self.heap)
    }
}

/// One step of the shared best-first traversal: pops until an entry surfaces,
/// expanding nodes into the heap along the way.
fn browse_step(tree: &RTree, query: Point, heap: &mut BinaryHeap<HeapEntry>) -> Option<(f64, u32)> {
    while let Some(HeapEntry { distance, kind }) = heap.pop() {
        match kind {
            EntryKind::Entry(e) => {
                return Some((distance, tree.payloads[e as usize]));
            }
            EntryKind::Node(n) => {
                let node = &tree.nodes[n as usize];
                for &c in &node.children {
                    heap.push(HeapEntry {
                        distance: tree.nodes[c as usize].rect.min_distance(query),
                        kind: EntryKind::Node(c),
                    });
                }
                for &e in &node.entries {
                    heap.push(HeapEntry {
                        distance: tree.points[e as usize].distance(&query),
                        kind: EntryKind::Entry(e),
                    });
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scattered_points(n: usize) -> Vec<(Point, u32)> {
        (0..n)
            .map(|i| {
                let x = ((i * 7919) % 1000) as f64;
                let y = ((i * 104729) % 1000) as f64;
                (Point::new(x, y), i as u32)
            })
            .collect()
    }

    fn brute_force_knn(entries: &[(Point, u32)], q: Point, k: usize) -> Vec<(f64, u32)> {
        let mut v: Vec<(f64, u32)> = entries.iter().map(|&(p, id)| (p.distance(&q), id)).collect();
        v.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        v.truncate(k);
        v
    }

    #[test]
    #[cfg_attr(miri, ignore = "large input; Miri covers the sized-down stress tests")]
    fn knn_matches_brute_force() {
        let entries = scattered_points(500);
        let tree = RTree::bulk_load(&entries);
        for q in [Point::new(0.0, 0.0), Point::new(500.0, 500.0), Point::new(999.0, 1.0)] {
            let got = tree.knn(q, 10);
            let want = brute_force_knn(&entries, q, 10);
            let got_d: Vec<f64> = got.iter().map(|e| e.0).collect();
            let want_d: Vec<f64> = want.iter().map(|e| e.0).collect();
            for (a, b) in got_d.iter().zip(want_d.iter()) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "large input; Miri covers the sized-down stress tests")]
    fn browser_yields_nondecreasing_distances_and_all_entries() {
        let entries = scattered_points(300);
        let tree = RTree::bulk_load(&entries);
        let mut prev = 0.0;
        let mut count = 0;
        for (d, _) in tree.browse(Point::new(123.0, 456.0)) {
            assert!(d >= prev - 1e-12);
            prev = d;
            count += 1;
        }
        assert_eq!(count, entries.len());
    }

    #[test]
    fn browser_peek_matches_next() {
        let entries = scattered_points(50);
        let tree = RTree::bulk_load(&entries);
        let mut browser = tree.browse(Point::new(10.0, 10.0));
        // peek is a lower bound on (and after node expansion equals) the next distance.
        let peek = browser.peek_distance().unwrap();
        let (next, _) = browser.next().unwrap();
        assert!(peek <= next + 1e-12);
    }

    #[test]
    fn empty_tree_behaves() {
        let tree = RTree::bulk_load(&[]);
        assert!(tree.is_empty());
        assert_eq!(tree.knn(Point::new(0.0, 0.0), 5), vec![]);
        assert_eq!(tree.browse(Point::new(0.0, 0.0)).next(), None);
        let mut scratch = BrowserScratch::new();
        assert_eq!(tree.browse_in(Point::new(0.0, 0.0), &mut scratch).next(), None);
    }

    #[test]
    #[cfg_attr(miri, ignore = "large input; Miri covers the sized-down stress tests")]
    fn scratch_browser_matches_owning_browser_across_reuses() {
        let entries = scattered_points(300);
        let tree = RTree::bulk_load(&entries);
        let mut scratch = BrowserScratch::new();
        for q in [Point::new(123.0, 456.0), Point::new(0.0, 999.0), Point::new(500.0, 1.0)] {
            let owning: Vec<(f64, u32)> = tree.browse(q).collect();
            let mut reused = tree.browse_in(q, &mut scratch);
            let peek = reused.peek_distance();
            let pooled: Vec<(f64, u32)> = reused.by_ref().collect();
            assert_eq!(pooled.len(), owning.len());
            for (a, b) in pooled.iter().zip(owning.iter()) {
                assert!((a.0 - b.0).abs() < 1e-12);
            }
            assert!(peek.unwrap() <= pooled[0].0 + 1e-12);
        }
    }

    #[test]
    fn single_entry_and_duplicate_points() {
        let entries =
            vec![(Point::new(5.0, 5.0), 1), (Point::new(5.0, 5.0), 2), (Point::new(6.0, 5.0), 3)];
        let tree = RTree::bulk_load(&entries);
        let knn = tree.knn(Point::new(5.0, 5.0), 2);
        assert_eq!(knn.len(), 2);
        assert!(knn.iter().all(|&(d, _)| d < 1e-9));
    }

    #[test]
    #[cfg_attr(miri, ignore = "large input; Miri covers the sized-down stress tests")]
    fn within_radius_filters_correctly() {
        let entries = scattered_points(200);
        let tree = RTree::bulk_load(&entries);
        let q = Point::new(500.0, 500.0);
        let within = tree.within_radius(q, 100.0);
        let brute: Vec<u32> =
            entries.iter().filter(|(p, _)| p.distance(&q) <= 100.0).map(|&(_, id)| id).collect();
        assert_eq!(within.len(), brute.len());
        assert!(within.iter().all(|&(d, _)| d <= 100.0));
    }

    #[test]
    #[cfg_attr(miri, ignore = "large input; Miri covers the sized-down stress tests")]
    fn various_node_capacities_agree() {
        let entries = scattered_points(257);
        let q = Point::new(42.0, 777.0);
        let reference = RTree::bulk_load_with_capacity(&entries, 4).knn(q, 15);
        for cap in [2, 8, 32, 128] {
            let got = RTree::bulk_load_with_capacity(&entries, cap).knn(q, 15);
            let a: Vec<f64> = reference.iter().map(|e| e.0).collect();
            let b: Vec<f64> = got.iter().map(|e| e.0).collect();
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "large input; Miri covers the sized-down stress tests")]
    fn memory_accounting_scales_with_entries() {
        let small = RTree::bulk_load(&scattered_points(10));
        let large = RTree::bulk_load(&scattered_points(1000));
        assert!(large.memory_bytes() > small.memory_bytes());
        assert_eq!(large.node_capacity(), DEFAULT_NODE_CAPACITY);
    }

    /// Randomized churn: interleaved inserts and removes must keep the tree exactly
    /// equal (in kNN answers and cardinality) to a brute-force live-entry list.
    #[test]
    #[cfg_attr(miri, ignore = "large input; Miri covers the sized-down stress tests")]
    fn incremental_insert_remove_matches_brute_force_under_churn() {
        let pool = scattered_points(400);
        for cap in [4usize, 16] {
            let mut tree = RTree::bulk_load_with_capacity(&pool[..100], cap);
            let mut live: Vec<(Point, u32)> = pool[..100].to_vec();
            let mut state = 0x9E3779B97F4A7C15u64;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for step in 0..600 {
                if (rng() % 2 == 0 && !live.is_empty()) || live.len() >= pool.len() {
                    let at = (rng() as usize) % live.len();
                    let (p, id) = live.swap_remove(at);
                    assert!(tree.remove(p, id), "step {step}: remove of live entry failed");
                    assert!(!tree.remove(p, id), "step {step}: double remove succeeded");
                } else {
                    let candidate = pool[(rng() as usize) % pool.len()];
                    if live.iter().any(|&(_, id)| id == candidate.1) {
                        continue;
                    }
                    tree.insert(candidate.0, candidate.1);
                    live.push(candidate);
                }
                assert_eq!(tree.len(), live.len());
                if step % 20 == 0 {
                    let q = Point::new((rng() % 1000) as f64, (rng() % 1000) as f64);
                    let got = tree.knn(q, 7.min(live.len()));
                    let want = brute_force_knn(&live, q, 7);
                    for (a, b) in got.iter().zip(want.iter()) {
                        assert!((a.0 - b.0).abs() < 1e-9, "step {step}: knn diverged");
                    }
                    // A full browse still yields every live entry exactly once.
                    let mut seen: Vec<u32> = tree.browse(q).map(|(_, id)| id).collect();
                    seen.sort_unstable();
                    let mut expect: Vec<u32> = live.iter().map(|&(_, id)| id).collect();
                    expect.sort_unstable();
                    assert_eq!(seen, expect, "step {step}: browse lost entries");
                }
            }
        }
    }

    #[test]
    fn insert_grows_an_empty_tree_and_remove_drains_it() {
        let mut tree = RTree::bulk_load(&[]);
        assert!(tree.is_empty());
        for (i, (p, id)) in scattered_points(80).into_iter().enumerate() {
            tree.insert(p, id);
            assert_eq!(tree.len(), i + 1);
        }
        let q = Point::new(1.0, 2.0);
        assert_eq!(tree.knn(q, 80).len(), 80);
        for (p, id) in scattered_points(80) {
            assert!(tree.remove(p, id));
        }
        assert!(tree.is_empty());
        assert_eq!(tree.browse(q).next(), None);
        // Removing from the drained tree is a no-op, and it can be refilled.
        assert!(!tree.remove(q, 0));
        tree.insert(q, 7);
        assert_eq!(tree.knn(q, 1), vec![(0.0, 7)]);
    }

    /// A stable population under steady churn must not grow the tree: every
    /// node a removal empties (or a root collapse drops) is reused by a later
    /// split or root growth, so after the first round the footprint plateaus.
    /// Compaction counts dead entry slots only and never fires here, so the
    /// node free list alone bounds the footprint.
    #[test]
    fn steady_churn_reuses_emptied_nodes() {
        const ROUNDS: usize = if cfg!(miri) { 4 } else { 10 };
        const MOVES: usize = if cfg!(miri) { 500 } else { 20_000 };
        let pool = scattered_points(160);
        let mut tree = RTree::bulk_load_with_capacity(&pool[..40], 4);
        let mut live: Vec<(Point, u32)> = pool[..40].to_vec();
        let mut idle: Vec<(Point, u32)> = pool[40..].to_vec();
        let mut state = 0xA076_1D64_78BD_642Fu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        let mut after_first = 0;
        for round in 0..ROUNDS {
            for _ in 0..MOVES {
                // One move: a live entry leaves, an idle one arrives.
                let (p, id) = live.swap_remove(rng() % live.len());
                assert!(tree.remove(p, id));
                idle.push((p, id));
                let (p, id) = idle.swap_remove(rng() % idle.len());
                tree.insert(p, id);
                live.push((p, id));
            }
            assert_eq!(tree.len(), live.len());
            if round == 0 {
                after_first = tree.memory_bytes();
            }
        }
        let last = tree.memory_bytes();
        assert!(
            last * 4 <= after_first * 5,
            "{last} bytes after {ROUNDS} rounds against {after_first} after the first"
        );
        let mut seen: Vec<u32> = tree.browse(Point::new(0.0, 0.0)).map(|(_, id)| id).collect();
        seen.sort_unstable();
        let mut expect: Vec<u32> = live.iter().map(|&(_, id)| id).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect, "browse lost or duplicated entries");
    }

    /// `clone_from` over a tree of another shape, after seeded churn on both,
    /// equals `clone`: the same structure field by field and the same browse
    /// order from every probe.
    #[test]
    #[cfg_attr(miri, ignore = "large input; Miri covers the sized-down stress tests")]
    fn clone_from_after_churn_equals_clone() {
        let pool = scattered_points(300);
        let mut state = 0x5851_F42D_4C95_7F2Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        let mut churn = |tree: &mut RTree, live: &mut Vec<(Point, u32)>, steps: usize| {
            for _ in 0..steps {
                let candidate = pool[rng() % pool.len()];
                match live.iter().position(|&(_, id)| id == candidate.1) {
                    Some(at) => assert!(tree.remove(live.swap_remove(at).0, candidate.1)),
                    None => {
                        tree.insert(candidate.0, candidate.1);
                        live.push(candidate);
                    }
                }
            }
        };
        let (mut source_live, mut target_live) = (pool[..120].to_vec(), pool[150..].to_vec());
        let mut source = RTree::bulk_load_with_capacity(&source_live, 4);
        let mut target = RTree::bulk_load_with_capacity(&target_live, 4);
        churn(&mut source, &mut source_live, 500);
        churn(&mut target, &mut target_live, 300);
        target.clone_from(&source);
        let cloned = source.clone();
        assert_eq!(format!("{target:?}"), format!("{cloned:?}"));
        for q in [Point::new(0.0, 0.0), Point::new(512.0, 300.0), Point::new(999.0, 999.0)] {
            let order = |tree: &RTree| tree.browse(q).collect::<Vec<(f64, u32)>>();
            assert_eq!(order(&target), order(&cloned));
            assert_eq!(order(&target).len(), source_live.len());
        }
    }

    /// Randomized free-list stress against a reference model: across heavy
    /// insert/remove/reinsert churn (including the compaction rebuild), a
    /// reused entry slot must never alias a live entry — the browser yields
    /// exactly the live payload set, each exactly once, at its current point.
    ///
    /// Sized down under Miri (which runs this test in CI) so the interpreter
    /// finishes quickly; the drain phase still crosses the compaction
    /// threshold in both configurations.
    #[test]
    fn free_list_reuse_never_aliases_live_entries() {
        const OPS: usize = if cfg!(miri) { 260 } else { 4_000 };
        const CHECK_EVERY: usize = if cfg!(miri) { 16 } else { 64 };
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };

        // Reference model: the live entries, exactly.
        let mut live: Vec<(Point, u32)> = Vec::new();
        let mut next_id = 0u32;
        let mut tree = RTree::bulk_load(&[]);

        let verify = |tree: &RTree, live: &[(Point, u32)]| {
            assert_eq!(tree.len(), live.len());
            let mut seen = std::collections::BTreeMap::new();
            for (d, id) in tree.browse(Point::new(0.0, 0.0)) {
                assert!(d.is_finite());
                *seen.entry(id).or_insert(0u32) += 1;
            }
            assert_eq!(seen.len(), live.len(), "browser lost or duplicated payloads");
            for &(_, id) in live {
                assert_eq!(seen.get(&id), Some(&1), "payload {id} not yielded exactly once");
            }
            // Spot-check (full scans are quadratic): sampled entries must be
            // findable at their *current* model point — knn at the exact
            // location returns distance 0 for them.
            for &(p, id) in live.iter().step_by(1 + live.len() / 48) {
                assert!(
                    tree.knn(p, tree.len()).iter().any(|&(d, got)| got == id && d.abs() < 1e-12),
                    "payload {id} not at its model point (slot aliased?)"
                );
            }
        };

        // Grow-heavy first, then remove-heavy: the shrinking phase leaves far
        // more dead slots than live entries, forcing the compaction rebuild,
        // while continuous reinsertion keeps recycling freed slots throughout.
        for op in 0..OPS {
            let grow_pct = if op < 2 * OPS / 5 { 80 } else { 30 };
            let grow = live.len() < 8 || rng() % 100 < grow_pct;
            if grow {
                let p = Point::new((rng() % 1000) as f64, (rng() % 1000) as f64);
                tree.insert(p, next_id);
                live.push((p, next_id));
                next_id += 1;
            } else {
                let idx = (rng() as usize) % live.len();
                let (p, id) = live.swap_remove(idx);
                assert!(tree.remove(p, id), "op {op}: live entry missing from tree");
                assert!(!tree.remove(p, id), "op {op}: double remove succeeded");
            }
            if op % CHECK_EVERY == 0 {
                verify(&tree, &live);
            }
        }
        verify(&tree, &live);

        // Drain past the compaction threshold (> 64 dead slots and more dead
        // than alive), then keep going: the rebuilt tree must stay exact.
        while live.len() > 4 {
            let idx = (rng() as usize) % live.len();
            let (p, id) = live.swap_remove(idx);
            assert!(tree.remove(p, id));
        }
        verify(&tree, &live);

        // Refill through the (possibly rebuilt) free list one more time.
        for _ in 0..if cfg!(miri) { 24 } else { 256 } {
            let p = Point::new((rng() % 1000) as f64, (rng() % 1000) as f64);
            tree.insert(p, next_id);
            live.push((p, next_id));
            next_id += 1;
        }
        verify(&tree, &live);
    }
}
