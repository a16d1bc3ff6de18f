//! CH queries: pruned bidirectional upward search, upward search spaces, target
//! labels and IER-CH's resumable forward search.
//!
//! Every search runs on a stamped scratch (label tables + heaps reused across
//! queries), so a query allocates nothing beyond its result and never touches a
//! `HashMap`. [`ContractionHierarchy::distance`] is a bidirectional upward Dijkstra
//! that stops each direction as soon as its frontier minimum reaches the best meet
//! found so far — on road networks that prunes most of the full upward search
//! space. Every other upward search runs one settle step, `UpwardSearch::settle_next`:
//! run to exhaustion it fills a caller's [`ChSearchSpace`] (sorted by vertex, for
//! TNR's access-node merge-joins) or fills an object's target label (settle order, see
//! [`crate::ChTargetDirectory`]); paused and resumed per candidate it is IER-CH's
//! query side, [`ChForwardSearch`].

use std::cell::RefCell;

use rnknn_graph::{NodeId, Weight, INFINITY};
use rnknn_pathfinding::budget::{QueryBudget, UNLIMITED};
use rnknn_pathfinding::heap::MinHeap;
use rnknn_pathfinding::scratch::Stamped;

use crate::build::ContractionHierarchy;
use crate::targets::ChTargetDirectory;

/// Effort counters of one CH search (feeds the engine's unified `QueryStats`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ChSearchCounters {
    /// Vertices settled across both directions.
    pub settled: u64,
    /// Heap pushes across both directions.
    pub heap_pushes: u64,
    /// Settled vertices whose expansion was skipped by stall-on-demand (their label
    /// was dominated via a higher-ranked neighbour, so no shortest up-down path runs
    /// through them at that distance).
    pub stalled: u64,
    /// Target-label entries read by [`ChForwardSearch::distance_within`]: scanned,
    /// plus projected when the forward search had to be extended.
    pub label_entries: u64,
}

impl ChSearchCounters {
    /// Accumulates another search's counters into this one.
    pub fn accumulate(&mut self, other: ChSearchCounters) {
        self.settled += other.settled;
        self.heap_pushes += other.heap_pushes;
        self.stalled += other.stalled;
        self.label_entries += other.label_entries;
    }
}

/// One upward Dijkstra: a [`Stamped`] label table, so "clearing" between searches is
/// a stamp bump instead of an O(n) wipe, and a heap.
#[derive(Debug, Default)]
struct UpwardSearch {
    /// Tentative distances; absent means "unvisited this search".
    labels: Stamped<Weight>,
    heap: MinHeap<NodeId>,
}

impl UpwardSearch {
    /// Starts a search from `v` over a hierarchy of `n` vertices.
    fn start(&mut self, n: usize, v: NodeId, counters: &mut ChSearchCounters) {
        self.labels.begin(n);
        self.heap.clear();
        self.labels.set(v as usize, 0);
        self.heap.push(0, v);
        counters.heap_pushes += 1;
    }

    /// Tentative distance of `v` ([`INFINITY`] when unvisited this search).
    #[inline]
    fn label(&self, v: NodeId) -> Weight {
        label(&self.labels, v)
    }

    /// The one settle step of every upward search but the bidirectional one: pops
    /// the next current entry whose key is below `limit` and relaxes the settled
    /// vertex's upward edges — unless `stop` holds for it, or `stall` is set and it
    /// is stalled on demand (a stopped or stalled vertex is still settled: its label
    /// is a valid upper bound). Returns the vertex with its distance, in
    /// non-decreasing distance order over the search, and whether it was stalled.
    ///
    /// `None` when no entry below `limit` is left or `budget` refuses the step (one
    /// step per settle); the popped entry is then pushed back, so a search paused
    /// either way can be resumed.
    #[inline]
    fn settle_next(
        &mut self,
        ch: &ContractionHierarchy,
        limit: Weight,
        stall: bool,
        stop: impl Fn(NodeId) -> bool,
        budget: &QueryBudget,
        counters: &mut ChSearchCounters,
    ) -> Option<(NodeId, Weight, bool)> {
        loop {
            if self.heap.peek_key()? >= limit {
                return None;
            }
            let (d, x) = self.heap.pop()?;
            if d > self.label(x) {
                continue;
            }
            if !budget.charge(1) {
                self.heap.push(d, x);
                return None;
            }
            counters.settled += 1;
            let mut stalled = false;
            if stop(x) {
                // Settled, never expanded.
            } else if stall && ch.is_stalled(&self.labels, x, d) {
                counters.stalled += 1;
                stalled = true;
            } else {
                for (y, w) in ch.upward_edges(x) {
                    let nd = d + w;
                    if nd < self.label(y) {
                        self.labels.set(y as usize, nd);
                        self.heap.push(nd, y);
                        counters.heap_pushes += 1;
                    }
                }
            }
            return Some((x, d, stalled));
        }
    }
}

/// Tentative distance of `v` in one search's table ([`INFINITY`] when unvisited
/// this search).
#[inline]
fn label(labels: &Stamped<Weight>, v: NodeId) -> Weight {
    labels.get(v as usize).unwrap_or(INFINITY)
}

thread_local! {
    /// One search per direction (0 = forward, 1 = backward); run-to-exhaustion
    /// searches use the forward one.
    static SCRATCH: RefCell<[UpwardSearch; 2]> = RefCell::default();
}

const FORWARD: usize = 0;
const BACKWARD: usize = 1;

impl ContractionHierarchy {
    /// Stall-on-demand test for a vertex just popped at distance `d`: when some
    /// upward neighbour `y` already carries a (tentative, hence valid upper-bound)
    /// label with `dist(y) + w(x, y) <= d`, every up-down path through `x` at
    /// distance `d` is dominated by one through `y`, so `x`'s edges need not be
    /// relaxed. Tentative labels suffice for safety — they only ever overestimate,
    /// and the `<=` comparison errs on stalling exactly dominated labels.
    #[inline]
    fn is_stalled(&self, labels: &Stamped<Weight>, x: NodeId, d: Weight) -> bool {
        self.upward_edges(x).any(|(y, w)| {
            let dy = label(labels, y);
            dy != INFINITY && dy + w <= d
        })
    }

    /// Exact network distance between `s` and `t`.
    pub fn distance(&self, s: NodeId, t: NodeId) -> Weight {
        self.distance_with_counters(s, t).0
    }

    /// [`ContractionHierarchy::distance`] plus search-effort counters.
    ///
    /// Runs a bidirectional upward Dijkstra; a direction stops as soon as its frontier
    /// minimum is at least the best meet found so far (every later meet in that
    /// direction would cost at least the frontier minimum), so neither search space is
    /// materialised in full.
    pub fn distance_with_counters(&self, s: NodeId, t: NodeId) -> (Weight, ChSearchCounters) {
        let mut counters = ChSearchCounters::default();
        if s == t {
            return (0, counters);
        }
        let best = SCRATCH.with(|scratch| {
            let [forward, backward] = &mut *scratch.borrow_mut();
            forward.start(self.num_vertices(), s, &mut counters);
            backward.start(self.num_vertices(), t, &mut counters);

            let mut best = INFINITY;
            loop {
                // Advance the direction with the smaller frontier, pruning any
                // direction whose frontier minimum can no longer improve the meet.
                let side = match (forward.heap.peek_key(), backward.heap.peek_key()) {
                    (Some(f), Some(b)) => {
                        if f.min(b) >= best {
                            break;
                        }
                        if f <= b {
                            FORWARD
                        } else {
                            BACKWARD
                        }
                    }
                    (Some(f), None) => {
                        if f >= best {
                            break;
                        }
                        FORWARD
                    }
                    (None, Some(b)) => {
                        if b >= best {
                            break;
                        }
                        BACKWARD
                    }
                    (None, None) => break,
                };
                let (mine, theirs) = if side == FORWARD {
                    (&mut *forward, &*backward)
                } else {
                    (&mut *backward, &*forward)
                };
                let Some((d, x)) = mine.heap.pop() else { break };
                if d > mine.label(x) {
                    continue;
                }
                counters.settled += 1;
                let other = theirs.label(x);
                if other != INFINITY {
                    best = best.min(d + other);
                }
                // Stall-on-demand: a dominated label cannot start a shortest
                // up-segment, so its edges are never relaxed (the meet update above
                // is still safe — the label is a valid upper bound).
                if self.is_stalled(&mine.labels, x, d) {
                    counters.stalled += 1;
                    continue;
                }
                for (y, w) in self.upward_edges(x) {
                    let nd = d + w;
                    // A label at distance >= best can never improve the meet (both
                    // directions only ascend), so don't even push it.
                    if nd < best && nd < mine.label(y) {
                        mine.labels.set(y as usize, nd);
                        mine.heap.push(nd, y);
                        counters.heap_pushes += 1;
                    }
                }
            }
            best
        });
        (best, counters)
    }

    /// The target label of `v`: the vertices its upward search with stall-on-demand
    /// settles and does not stall, written into a caller-owned buffer in **settle
    /// order** — non-decreasing distance, so a scan against a forward search can stop
    /// at its bound — and never sorted. This is how [`crate::ChTargetDirectory`]
    /// fills a label. The counters are the search's: `settled` is the label's length
    /// plus `stalled`.
    ///
    /// A stalled vertex is settled but neither expanded nor recorded: its distance is
    /// dominated via a higher-ranked neighbour, and a meet never needs it (the proof
    /// is on [`ChForwardSearch`]). Stalling shrinks the search the way it shrinks the
    /// bidirectional one (−27% settled at 69k); not recording the stalled vertices
    /// roughly halves what is left.
    pub fn target_label_into(
        &self,
        v: NodeId,
        label: &mut Vec<(NodeId, Weight)>,
    ) -> ChSearchCounters {
        self.upward_into(v, |_| false, true, label)
    }

    /// Upward search space from `v` that does not expand any vertex for which `stop`
    /// returns true (the vertex itself is still settled), written into a caller-owned
    /// space sorted by vertex. Transit Node Routing's "local" searches stop at transit
    /// nodes and reuse one buffer across a whole build or candidate loop; `|_| false`
    /// gives the complete upward space.
    ///
    /// `stop` must not issue CH queries of its own (the thread-local search scratch is
    /// held while it runs).
    pub fn upward_search_space_stopping_at_into(
        &self,
        v: NodeId,
        stop: impl Fn(NodeId) -> bool,
        space: &mut ChSearchSpace,
    ) -> ChSearchCounters {
        // Unstalled and unbudgeted, sorted by vertex for merge-joins.
        let counters = self.upward_into(v, |x| x != v && stop(x), false, &mut space.entries);
        space.entries.sort_unstable_by_key(|&(x, _)| x);
        counters
    }

    /// Runs an upward search from `v` to exhaustion on the thread-local scratch,
    /// writing every settled vertex it did not stall into `entries` in settle order.
    fn upward_into(
        &self,
        v: NodeId,
        stop: impl Fn(NodeId) -> bool,
        stall: bool,
        entries: &mut Vec<(NodeId, Weight)>,
    ) -> ChSearchCounters {
        let mut counters = ChSearchCounters::default();
        entries.clear();
        SCRATCH.with(|scratch| {
            let search = &mut scratch.borrow_mut()[FORWARD];
            search.start(self.num_vertices(), v, &mut counters);
            while let Some((x, d, stalled)) =
                search.settle_next(self, INFINITY, stall, &stop, &UNLIMITED, &mut counters)
            {
                if !stalled {
                    entries.push((x, d));
                }
            }
        });
        counters
    }
}

/// A materialised CH upward search space: vertex ids with upper-bound distances, sorted
/// by vertex id for merge-joins.
#[derive(Debug, Clone, Default)]
pub struct ChSearchSpace {
    entries: Vec<(NodeId, Weight)>,
}

impl ChSearchSpace {
    /// Creates an empty space, ready to be filled by
    /// [`ContractionHierarchy::upward_search_space_stopping_at_into`] (no
    /// allocation until then; the entry buffer is reused across refills).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of settled vertices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty (never the case for spaces produced from a valid vertex).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The settled vertices with their distances, sorted by vertex id.
    pub fn entries(&self) -> &[(NodeId, Weight)] {
        &self.entries
    }

    /// Minimum of `d_self(x) + d_other(x)` over all vertices `x` present in both spaces;
    /// this is the exact network distance when the two spaces come from a forward and a
    /// backward CH search.
    pub fn meet(&self, other: &ChSearchSpace) -> Weight {
        let mut best = INFINITY;
        let mut i = 0;
        let mut j = 0;
        let a = &self.entries;
        let b = &other.entries;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    best = best.min(a[i].1 + b[j].1);
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }

    /// Distance recorded for a specific vertex, if it was settled.
    pub fn distance_to(&self, v: NodeId) -> Option<Weight> {
        self.entries.binary_search_by_key(&v, |&(x, _)| x).ok().map(|i| self.entries[i].1)
    }
}

/// IER-CH's query side: one stall-pruned upward search from the query vertex,
/// settled only as far as the candidates met so far have needed and resumed for the
/// next one, plus the table a candidate's target label is projected onto.
///
/// [`ChForwardSearch::begin`] seeds the search and settles nothing. A candidate `t`
/// with bound `B` then costs ([`ChForwardSearch::distance_within`]):
///
/// 1. **Scan.** `t`'s label (settle order, so non-decreasing `d_t`) is walked up to
///    the first entry with `d_t(h) >= best`, `best` starting at `B`; each entry
///    gives `best = min(best, fwd(h) + d_t(h))`. A tentative forward label is the
///    length of a real path, so it is a valid upper bound.
/// 2. **Extend**, only if the forward heap's minimum key is still `< best`: the
///    label prefix with `d_t(h) < best` is projected into a second stamped table and
///    the forward search resumes — the same settle step a label fill runs to
///    exhaustion — until its minimum key is `>= best`, each settled vertex found in
///    the projection lowering `best`.
///
/// Exact below `B`. First, the forward search run to exhaustion and `t`'s label
/// share a vertex `h` with `f(h) + d_t(h) = d(s, t)`, `f(h)` being the distance `h`
/// is settled at — although the label leaves out every vertex its fill stalled.
/// Call `x` *s-exact* when the forward search settles it at `d(s, x)`, and
/// *t-exact* when the fill settles it at `d(x, t)`. A *state* is a pair `(a, b)`,
/// `a` s-exact and `b` t-exact, with `d(s, a) + d(a, b) + d(b, t) = d(s, t)`;
/// `(s, t)` is one. While `a != b`, take a shortest path from `a` to `b` that only
/// climbs in rank, then only descends (contraction keeps every distance with a
/// shortcut or a witness, so one exists). If it climbs from `a` to `c`, `a` was
/// either expanded, relaxing `c` to `d(s, c)`, which makes `(c, b)` a state, or
/// stalled via a neighbour `z` with `f(z) + w(z, a) <= d(s, a)`, so `z` is s-exact
/// and `(z, b)` is a state. Otherwise it climbs from `b`, and the same holds on
/// `t`'s side. At `a = b = h`, if the fill stalled `h` via `y`
/// (`d_t(y) + w(h, y) <= d(h, t)`), then `y` is t-exact and `s ⇝ h – y ⇝ t` is
/// shortest: `(y, y)` is a state if the forward search expanded `h` (it relaxed
/// `y`), and `(z, y)` is one if it stalled `h` via `z`, the path `z – h – y` being
/// no shorter than `d(z, y)`. Each step raises the rank of `a` or of `b` and lowers
/// neither, so the walk ends, and only at an `a = b = h` the fill did not stall: `h`
/// is s-exact and in `t`'s label at `d(h, t)`. Nothing here depends on the order in
/// which equal keys pop, so a search that was paused, cut and resumed is covered
/// too. (A vertex stalled with `<` has a label above its distance and is never in a
/// state; the `<=` test's ties are what the walk is for.)
///
/// Then the lazy part: if the scan leaves `best` above `d(s, t)`, `h` is not settled
/// yet, so the heap's minimum key is at most `f(h) < best` (settles come in
/// non-decreasing key order): the extension runs, `h` is in the projection, and
/// settling `h` brings `best` down to `d(s, t)` unless another meet did first. Every
/// value `best` takes is a path length, so a target at or beyond `B` answers `>= B`.
///
/// The engine pools one per thread.
#[derive(Debug, Default)]
pub struct ChForwardSearch {
    /// The paused forward search from the query vertex.
    forward: UpwardSearch,
    /// The current candidate's label prefix below `best`, by vertex (one stamp per
    /// extension).
    target: Stamped<Weight>,
}

impl ChForwardSearch {
    /// Creates an empty search (no allocation until the first query).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts the forward search from `source` over `ch`: one push, no settle.
    pub fn begin(
        &mut self,
        ch: &ContractionHierarchy,
        source: NodeId,
        counters: &mut ChSearchCounters,
    ) {
        self.forward.start(ch.num_vertices(), source, counters);
    }

    /// Network distance from the source to `target`: exact when it is `< bound`,
    /// some value `>= bound` otherwise (the IER oracle contract). `target`'s label
    /// is read from `targets`.
    ///
    /// Effort goes into `counters` and `budget`: one step per settled vertex, one
    /// per label entry read. A budget cut during the extension answers `bound`; the
    /// forward search stays resumable.
    ///
    /// # Panics
    ///
    /// When `target` has no label in `targets`: a candidate comes from the object
    /// set the directory was built and updated with, so that is a broken invariant.
    pub fn distance_within(
        &mut self,
        ch: &ContractionHierarchy,
        targets: &ChTargetDirectory,
        target: NodeId,
        bound: Weight,
        budget: &QueryBudget,
        counters: &mut ChSearchCounters,
    ) -> Weight {
        targets.check_hierarchy(ch);
        let label = targets
            .label(target)
            .expect("IER-CH candidate without a target label: the directory is out of sync");
        let forward = &mut self.forward;
        let mut best = bound;
        let mut read = 0;
        for &(h, d_t) in label {
            if d_t >= best {
                break;
            }
            // An unvisited vertex reads `INFINITY` (= `Weight::MAX / 4`), so the sum
            // cannot wrap and simply loses the `min`.
            best = best.min(forward.label(h) + d_t);
            read += 1;
        }
        if forward.heap.peek_key().is_some_and(|key| key < best) {
            self.target.begin(ch.num_vertices());
            for &(h, d_t) in label.iter().take_while(|&&(_, d_t)| d_t < best) {
                self.target.set(h as usize, d_t);
                read += 1;
            }
            while let Some((x, d, _)) =
                forward.settle_next(ch, best, true, |_| false, budget, counters)
            {
                if let Some(d_t) = self.target.get(x as usize) {
                    best = best.min(d + d_t);
                }
            }
            if budget.is_exhausted() {
                return bound;
            }
        }
        counters.label_entries += read;
        budget.charge(read);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ContractionHierarchy;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{testgraphs, EdgeWeightKind, Graph};
    use rnknn_pathfinding::dijkstra;

    /// `items` in a seeded Fisher–Yates order (xorshift64).
    fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
        let mut state = seed | 1;
        for i in (1..items.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            items.swap(i, (state % (i as u64 + 1)) as usize);
        }
        items
    }

    /// The complete upward space of `v`, in a fresh buffer.
    fn full_space(ch: &ContractionHierarchy, v: NodeId) -> ChSearchSpace {
        stopped_space(ch, v, |_| false)
    }

    /// The upward space of `v` stopping at `stop`, in a fresh buffer.
    fn stopped_space(
        ch: &ContractionHierarchy,
        v: NodeId,
        stop: impl Fn(NodeId) -> bool,
    ) -> ChSearchSpace {
        let mut space = ChSearchSpace::new();
        ch.upward_search_space_stopping_at_into(v, stop, &mut space);
        space
    }

    /// Distance `s -> t` through a fresh forward search and a directory over `t`.
    fn forward_distance(ch: &ContractionHierarchy, s: NodeId, t: NodeId, bound: Weight) -> Weight {
        let targets = ChTargetDirectory::build(ch, &[t]);
        let (mut search, mut counters) = (ChForwardSearch::new(), ChSearchCounters::default());
        search.begin(ch, s, &mut counters);
        search.distance_within(ch, &targets, t, bound, &UNLIMITED, &mut counters)
    }

    #[test]
    fn cached_search_space_reuse_matches_fresh_queries() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 33));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&g);
        let s: NodeId = 17;
        let space = full_space(&ch, s);
        assert!(!space.is_empty());
        assert_eq!(space.distance_to(s), Some(0));
        for t in (0..g.num_vertices() as NodeId).step_by(37) {
            let other = full_space(&ch, t);
            assert_eq!(space.meet(&other), dijkstra::distance(&g, s, t), "{s}->{t}");
        }
    }

    #[test]
    fn pruned_bidirectional_distance_matches_full_materialization_meets() {
        // The pruned bidirectional search must produce exactly the meet of the two
        // fully materialised upward spaces — including unreachable pairs.
        for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let net = RoadNetwork::generate(&GeneratorConfig::new(500, 71));
            let g = net.graph(kind);
            let ch = ContractionHierarchy::build(&g);
            let n = g.num_vertices() as NodeId;
            for i in 0..80u32 {
                let s = (i * 379) % n;
                let t = (i * 523 + 7) % n;
                let full = full_space(&ch, s).meet(&full_space(&ch, t));
                let (pruned, counters) = ch.distance_with_counters(s, t);
                assert_eq!(pruned, full, "{s}->{t} {kind:?}");
                if s != t {
                    assert!(counters.settled > 0);
                    assert!(counters.heap_pushes >= 2);
                }
            }
        }
    }

    #[test]
    fn forward_search_distance_matches_full_space_meets() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(700, 12));
        let g = net.graph(EdgeWeightKind::Time);
        let ch = ContractionHierarchy::build(&g);
        let s: NodeId = 41;
        let forward = full_space(&ch, s);
        for t in (0..g.num_vertices() as NodeId).step_by(53) {
            let backward = full_space(&ch, t);
            assert_eq!(forward_distance(&ch, s, t, INFINITY), forward.meet(&backward), "{s}->{t}");
        }
    }

    /// Every `(target, bound)` pair of a handful of sources, in shuffled order, on
    /// one forward search per source: Dijkstra's answer when it is below the bound,
    /// `>= bound` otherwise.
    fn check_one_forward_search_per_source(g: &Graph, what: &str) {
        let ch = ContractionHierarchy::build(g);
        let n = g.num_vertices() as NodeId;
        let probed: Vec<NodeId> = (0..n).step_by(7).collect();
        let targets = ChTargetDirectory::build(&ch, &probed);
        let mut search = ChForwardSearch::new();
        for s in [0, n / 3, n - 5] {
            let truth = dijkstra::single_source(g, s);
            let mut counters = ChSearchCounters::default();
            search.begin(&ch, s, &mut counters);
            let pairs: Vec<(NodeId, Weight)> = probed
                .iter()
                .flat_map(|&t| {
                    let exact = truth[t as usize];
                    [0, exact / 2, exact, exact + 1, INFINITY].map(|bound| (t, bound))
                })
                .collect();
            for (t, bound) in shuffled(pairs, u64::from(s) + 1) {
                let exact = truth[t as usize];
                let got =
                    search.distance_within(&ch, &targets, t, bound, &UNLIMITED, &mut counters);
                if exact < bound {
                    assert_eq!(got, exact, "{what} {s}->{t} bound={bound}");
                } else {
                    assert!(got >= bound, "{what} {s}->{t} bound={bound} got={got}");
                }
            }
        }
        assert_eq!(targets.len(), probed.len());
    }

    #[test]
    fn one_forward_search_per_source_answers_shuffled_bounded_targets_exactly() {
        for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let net = RoadNetwork::generate(&GeneratorConfig::new(600, 52));
            check_one_forward_search_per_source(&net.graph(kind), &format!("{kind:?}"));
        }
        check_one_forward_search_per_source(&testgraphs::zero_weight_grid(14), "zero");
        check_one_forward_search_per_source(&testgraphs::unit_grids(8, 1), "ties");
        check_one_forward_search_per_source(&testgraphs::unit_grids(5, 5), "5 parts");
    }

    /// Small seeded random graphs with weights 0–3, so zero-length edges and equal
    /// distances are everywhere and the fill's `<=` stall drops exact ties: every
    /// source still meets every target, under a bound just above its distance or
    /// none, at Dijkstra's answer.
    #[test]
    fn tie_heavy_random_graphs_meet_every_target_exactly() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        let mut dropped = 0;
        for round in 0..300 {
            let n = 4 + next(30) as usize;
            let mut adjacent: Vec<Vec<(NodeId, Weight)>> = vec![Vec::new(); n];
            for _ in 0..2 * n {
                let (a, b, w) = (next(n as u64) as usize, next(n as u64) as NodeId, next(4));
                if a != b as usize && !adjacent[a].iter().any(|&(x, _)| x == b) {
                    adjacent[a].push((b, w));
                    adjacent[b as usize].push((a as NodeId, w));
                }
            }
            let mut offsets = vec![0u32];
            for edges in &adjacent {
                offsets.push(offsets[offsets.len() - 1] + edges.len() as u32);
            }
            let (heads, weights): (Vec<NodeId>, Vec<Weight>) =
                adjacent.iter().flatten().copied().unzip();
            let coords = (0..n).map(|i| rnknn_graph::Point { x: i as f64, y: 0.0 }).collect();
            let g = Graph::from_csr(offsets, heads, weights, coords);
            let ch = ContractionHierarchy::build(&g);
            let all: Vec<NodeId> = (0..n as NodeId).collect();
            let targets = ChTargetDirectory::build(&ch, &all);
            let mut label = Vec::new();
            dropped +=
                all.iter().map(|&t| ch.target_label_into(t, &mut label).stalled).sum::<u64>();
            let mut search = ChForwardSearch::new();
            for s in 0..n as NodeId {
                let truth = dijkstra::single_source(&g, s);
                let mut counters = ChSearchCounters::default();
                search.begin(&ch, s, &mut counters);
                for t in shuffled(all.clone(), round * 64 + u64::from(s) + 1) {
                    let exact = truth[t as usize];
                    let bound = if next(2) == 0 { INFINITY } else { (exact + 1).min(INFINITY) };
                    let got =
                        search.distance_within(&ch, &targets, t, bound, &UNLIMITED, &mut counters);
                    if exact < bound {
                        assert_eq!(got, exact, "round {round}: {s}->{t} bound={bound}");
                    } else {
                        assert!(got >= bound, "round {round}: {s}->{t} bound={bound} got={got}");
                    }
                }
            }
        }
        assert!(dropped > 0, "no fill stalled a vertex");
    }

    #[test]
    fn a_candidate_inside_the_reached_radius_settles_nothing() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(800, 64));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&g);
        let n = g.num_vertices() as NodeId;
        let s = n / 2;
        let truth = dijkstra::single_source(&g, s);
        let probed: Vec<NodeId> = (0..n).step_by(11).filter(|&t| t != s).collect();
        let targets = ChTargetDirectory::build(&ch, &probed);
        // The median probe: about half the probes lie inside its radius.
        let mut by_distance = probed.clone();
        by_distance.sort_by_key(|&t| truth[t as usize]);
        let far = by_distance[by_distance.len() / 2];

        let (mut search, mut counters) = (ChForwardSearch::new(), ChSearchCounters::default());
        search.begin(&ch, s, &mut counters);
        let got = search.distance_within(&ch, &targets, far, INFINITY, &UNLIMITED, &mut counters);
        assert_eq!(got, truth[far as usize]);
        let reached = counters.settled;
        assert!(reached > 0, "the first candidate must extend the search");
        let full = ch.target_label_into(s, &mut Vec::new()).settled;
        assert!(reached < full, "the median probe needed the whole forward space");

        let inside: Vec<NodeId> = by_distance
            .iter()
            .copied()
            .filter(|&t| truth[t as usize] <= truth[far as usize])
            .collect();
        assert!(inside.len() > 10);
        for t in shuffled(inside, 3) {
            let got = search.distance_within(&ch, &targets, t, INFINITY, &UNLIMITED, &mut counters);
            assert_eq!(got, truth[t as usize], "{s}->{t}");
            assert_eq!(counters.settled, reached, "{s}->{t} lies inside the reached radius");
        }
    }

    #[test]
    fn a_budget_cut_extension_answers_the_bound_and_the_search_resumes() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 5));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&g);
        let n = g.num_vertices() as NodeId;
        let s = 3;
        let truth = dijkstra::single_source(&g, s);
        let probed: Vec<NodeId> = (0..n).step_by(17).collect();
        let targets = ChTargetDirectory::build(&ch, &probed);
        let (mut search, mut counters) = (ChForwardSearch::new(), ChSearchCounters::default());
        let far = *probed.iter().max_by_key(|&&t| truth[t as usize]).unwrap();
        for limit in 2..40 {
            search.begin(&ch, s, &mut counters);
            let before = counters.settled;
            // `limit - 1` settles are charged, the next one is refused.
            let starved = QueryBudget::new(None, limit, 1);
            let got = search.distance_within(&ch, &targets, far, INFINITY, &starved, &mut counters);
            assert_eq!((got, counters.settled - before), (INFINITY, limit - 1));
            assert!(starved.is_exhausted());
            // The refused entry went back on the heap: the same search, resumed
            // under a fresh budget, is exact.
            for &t in &probed {
                let got =
                    search.distance_within(&ch, &targets, t, INFINITY, &UNLIMITED, &mut counters);
                assert_eq!(got, truth[t as usize], "{s}->{t} after a cut at {limit}");
            }
        }
    }

    #[test]
    fn stalled_labels_shrink_and_forward_searches_stay_exact() {
        // Stalling must not enlarge a label, a label records every settled vertex
        // but the stalled ones, and labels without them must still meet a stalled
        // forward search at the exact distance.
        for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let net = RoadNetwork::generate(&GeneratorConfig::new(800, 64));
            let g = net.graph(kind);
            let ch = ContractionHierarchy::build(&g);
            let n = g.num_vertices() as NodeId;
            let mut label = Vec::new();
            let mut dropped = 0;
            for s in [2u32, n / 3, n - 7] {
                let fill = ch.target_label_into(s, &mut label);
                let full = full_space(&ch, s);
                assert!(label.len() <= full.len(), "stalling enlarged the label of {s}");
                assert_eq!(fill.settled, label.len() as u64 + fill.stalled);
                dropped += fill.stalled;
                for t in (0..n).step_by(29) {
                    let exact = dijkstra::distance(&g, s, t);
                    assert_eq!(forward_distance(&ch, s, t, INFINITY), exact, "{s}->{t} {kind:?}");
                }
            }
            assert!(dropped > 0, "no probe's fill stalled a vertex on {kind:?} weights");
        }
    }

    #[test]
    fn space_into_reuses_the_buffer_and_matches_fresh_spaces() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(500, 21));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&g);
        let (mut reused, mut stopped) = (ChSearchSpace::new(), ChSearchSpace::new());
        let threshold = (g.num_vertices() as u32 * 9) / 10;
        for v in (0..g.num_vertices() as NodeId).step_by(31) {
            let fresh = full_space(&ch, v);
            // Refilling one buffer, full or stopped, matches a fresh one.
            let counters = ch.upward_search_space_stopping_at_into(v, |_| false, &mut reused);
            assert_eq!((reused.entries(), counters.settled), (fresh.entries(), fresh.len() as u64));
            ch.upward_search_space_stopping_at_into(v, |x| ch.rank(x) >= threshold, &mut stopped);
            let stopped_fresh = stopped_space(&ch, v, |x| ch.rank(x) >= threshold);
            assert_eq!(stopped.entries(), stopped_fresh.entries());
        }
    }

    #[test]
    fn stopping_search_space_is_a_subset() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(400, 4));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&g);
        let full = full_space(&ch, 5);
        let threshold = (g.num_vertices() as u32 * 9) / 10;
        let stopped = stopped_space(&ch, 5, |v| ch.rank(v) >= threshold);
        assert!(stopped.len() <= full.len());
        // Every stopped entry's distance is >= the full space's distance for that vertex.
        for &(v, d) in stopped.entries() {
            let full_d = full.distance_to(v).expect("present in full space");
            assert!(d >= full_d);
        }
    }

    #[test]
    fn scratch_is_reusable_across_hierarchies_of_different_sizes() {
        // The thread-local scratch grows monotonically; interleaving queries against a
        // large and a small hierarchy on the same thread must not leak state.
        let big = RoadNetwork::generate(&GeneratorConfig::new(900, 1));
        let small = RoadNetwork::generate(&GeneratorConfig::new(150, 2));
        let gb = big.graph(EdgeWeightKind::Distance);
        let gs = small.graph(EdgeWeightKind::Distance);
        let chb = ContractionHierarchy::build(&gb);
        let chs = ContractionHierarchy::build(&gs);
        for i in 0..30u32 {
            let sb = (i * 101) % gb.num_vertices() as NodeId;
            let tb = (i * 211 + 5) % gb.num_vertices() as NodeId;
            let ss = (i * 31) % gs.num_vertices() as NodeId;
            let ts = (i * 47 + 3) % gs.num_vertices() as NodeId;
            assert_eq!(chb.distance(sb, tb), dijkstra::distance(&gb, sb, tb));
            assert_eq!(chs.distance(ss, ts), dijkstra::distance(&gs, ss, ts));
        }
    }
}
