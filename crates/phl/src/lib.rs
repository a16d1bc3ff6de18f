//! Pruned hub labelling ("PHL").
//!
//! The paper's IER-PHL uses Pruned Highway Labelling (Akiba et al., ALENEX 2014), a
//! 2-hop labelling whose labels are built from highway paths. This crate implements the
//! closely related *pruned landmark labelling* scheme: hub labels are built by running a
//! pruned Dijkstra from every vertex in importance order, which yields the same query
//! interface (sorted label intersection) and the same experimental role — the fastest
//! point-to-point oracle with the largest index (docs/ARCHITECTURE.md,
//! "Substitutions").
//!
//! Labels are canonical hub labels, so every query returns an exact network distance
//! whatever the order. The order is the contraction hierarchy's rank: the labels are
//! derived from the engine's one [`ContractionHierarchy`] ([`HubLabels::from_ch`]).

#![forbid(unsafe_code)]

use rnknn_ch::ContractionHierarchy;
use rnknn_graph::{Graph, NodeId, Weight, INFINITY};
use rnknn_pathfinding::heap::MinHeap;
use rnknn_pathfinding::settled::{BitSettled, SettledContainer};

/// Construction gives up (returning `None`) once the average label size exceeds this
/// many entries. Mirrors the paper's observation that PHL cannot be built for the
/// largest travel-distance graphs within memory limits.
const MAX_AVERAGE_LABEL: usize = 512;

/// A hub-label index over a road network.
#[derive(Debug, Clone)]
pub struct HubLabels {
    /// Concatenated labels: `(hub_order_position, distance)` pairs, sorted by hub order
    /// within each vertex's slice.
    label_hubs: Vec<u32>,
    label_dists: Vec<Weight>,
    offsets: Vec<u32>,
}

impl HubLabels {
    /// Builds hub labels over `graph`, processing vertices in `ch`'s importance
    /// order (most important first). Returns `None` when the label budget is exceeded.
    ///
    /// Only `ch`'s rank order is read, and it must list every vertex once: a
    /// loaded hierarchy's ranks are checked to be a permutation
    /// (`rnknn_ch::persist::load_ch`). The labels are pruned Dijkstra searches
    /// over `graph`, exact under any such order, so no other part of `ch` can
    /// make them wrong.
    pub fn from_ch(graph: &Graph, ch: &ContractionHierarchy) -> Option<HubLabels> {
        Self::build_within(graph, ch, MAX_AVERAGE_LABEL)
    }

    /// [`HubLabels::from_ch`] under an explicit budget of average label entries.
    fn build_within(
        graph: &Graph,
        ch: &ContractionHierarchy,
        max_average_label: usize,
    ) -> Option<HubLabels> {
        let order = ch.vertices_by_importance();
        let n = graph.num_vertices();
        assert_eq!(order.len(), n, "the hierarchy must cover every vertex of the graph");

        // Per-vertex labels as (hub position, distance), grown during construction.
        let mut labels: Vec<Vec<(u32, Weight)>> = vec![Vec::new(); n];
        let mut heap: MinHeap<NodeId> = MinHeap::new();
        let mut dist = vec![INFINITY; n];
        let mut touched: Vec<NodeId> = Vec::new();
        let label_budget = max_average_label.saturating_mul(n);
        let mut total_label_entries = 0usize;

        for (pos, &root) in order.iter().enumerate() {
            let root_pos = pos as u32;
            // Pruned Dijkstra from root.
            let mut settled = BitSettled::new(n);
            heap.clear();
            heap.push(0, root);
            dist[root as usize] = 0;
            touched.push(root);
            while let Some((d, v)) = heap.pop() {
                if !settled.settle(v) {
                    continue;
                }
                // Prune: if existing labels already certify a distance <= d, the path
                // through `root` adds nothing for v or anything beyond it.
                if query_labels(&labels[root as usize], &labels[v as usize]) <= d {
                    continue;
                }
                labels[v as usize].push((root_pos, d));
                total_label_entries += 1;
                for (t, w) in graph.neighbors(v) {
                    let nd = d + w;
                    if nd < dist[t as usize] {
                        if dist[t as usize] == INFINITY {
                            touched.push(t);
                        }
                        dist[t as usize] = nd;
                        heap.push(nd, t);
                    }
                }
            }
            for &t in &touched {
                dist[t as usize] = INFINITY;
            }
            touched.clear();
            if total_label_entries > label_budget {
                return None;
            }
        }

        // Flatten into CSR storage. Labels are already sorted by hub position because
        // hubs are added in increasing position order.
        let mut offsets = vec![0u32; n + 1];
        let mut label_hubs = Vec::with_capacity(total_label_entries);
        let mut label_dists = Vec::with_capacity(total_label_entries);
        for v in 0..n {
            for &(h, d) in &labels[v] {
                label_hubs.push(h);
                label_dists.push(d);
            }
            offsets[v + 1] = label_hubs.len() as u32;
        }
        Some(HubLabels { label_hubs, label_dists, offsets })
    }

    /// Exact network distance between `s` and `t`.
    #[inline]
    pub fn distance(&self, s: NodeId, t: NodeId) -> Weight {
        self.distance_with_stats(s, t).0
    }

    /// Same as [`HubLabels::distance`], also reporting how many label entries the
    /// sorted intersection examined (the "search effort" of a label query — hub
    /// labelling has no heap or settled set, so this is the comparable counter the
    /// engine's unified `QueryStats` reports as `nodes_expanded`).
    pub fn distance_with_stats(&self, s: NodeId, t: NodeId) -> (Weight, u64) {
        if s == t {
            return (0, 0);
        }
        let (sh, sd) = self.label(s);
        let (th, td) = self.label(t);
        let mut best = INFINITY;
        let mut i = 0;
        let mut j = 0;
        while i < sh.len() && j < th.len() {
            match sh[i].cmp(&th[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let d = sd[i] + td[j];
                    if d < best {
                        best = d;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        (best, (i + j) as u64)
    }

    #[inline]
    fn label(&self, v: NodeId) -> (&[u32], &[Weight]) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (&self.label_hubs[lo..hi], &self.label_dists[lo..hi])
    }

    /// Number of label entries for vertex `v`.
    pub fn label_size(&self, v: NodeId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Average label size over all vertices.
    pub fn average_label_size(&self) -> f64 {
        self.label_hubs.len() as f64 / (self.offsets.len() - 1).max(1) as f64
    }

    /// Approximate resident size in bytes (the paper highlights PHL's large indexes).
    pub fn memory_bytes(&self) -> usize {
        self.label_hubs.len() * 4
            + self.label_dists.len() * std::mem::size_of::<Weight>()
            + self.offsets.len() * 4
    }
}

/// Distance certified by two label sets (helper used during pruning).
#[inline]
fn query_labels(a: &[(u32, Weight)], b: &[(u32, Weight)]) -> Weight {
    let mut best = INFINITY;
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let d = a[i].1 + b[j].1;
                if d < best {
                    best = d;
                }
                i += 1;
                j += 1;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{EdgeWeightKind, GraphBuilder};
    use rnknn_pathfinding::dijkstra;

    fn labels(graph: &Graph) -> HubLabels {
        HubLabels::from_ch(graph, &ContractionHierarchy::build(graph)).expect("within budget")
    }

    #[test]
    fn distances_match_dijkstra_with_ch_order() {
        for kind in [EdgeWeightKind::Distance, EdgeWeightKind::Time] {
            let net = RoadNetwork::generate(&GeneratorConfig::new(700, 77));
            let g = net.graph(kind);
            let labels = labels(&g);
            let n = g.num_vertices() as NodeId;
            for i in 0..60u32 {
                let s = (i * 89) % n;
                let t = (i * 341 + 5) % n;
                assert_eq!(
                    labels.distance(s, t),
                    dijkstra::distance(&g, s, t),
                    "{s}->{t} {kind:?}"
                );
            }
        }
    }

    #[test]
    fn disconnected_pairs_are_infinite() {
        let mut b = GraphBuilder::with_vertices(4);
        b.add_edge(0, 1, 2);
        b.add_edge(2, 3, 2);
        let g = b.build();
        let labels = labels(&g);
        assert_eq!(labels.distance(0, 3), INFINITY);
        assert_eq!(labels.distance(0, 1), 2);
        assert_eq!(labels.distance(3, 3), 0);
    }

    #[test]
    fn label_budget_aborts_construction() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(300, 1));
        let g = net.graph(EdgeWeightKind::Distance);
        let ch = ContractionHierarchy::build(&g);
        assert!(HubLabels::build_within(&g, &ch, 1).is_none());
        assert!(HubLabels::build_within(&g, &ch, MAX_AVERAGE_LABEL).is_some());
    }

    #[test]
    fn label_statistics_are_reported() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(400, 19));
        let labels = labels(&net.graph(EdgeWeightKind::Distance));
        assert!(labels.average_label_size() >= 1.0);
        assert!(labels.memory_bytes() > 0);
        assert!(labels.label_size(0) >= 1);
    }
}
