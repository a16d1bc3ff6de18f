//! The multilevel partitioner.

use rnknn_graph::{Graph, NodeId};

use crate::refine::{refine_bisection, WorkGraph};
use crate::PartitionAssignment;

/// Coarsening stops once the working graph has at most this many vertices.
const COARSEN_UNTIL: usize = 512;
/// Allowed imbalance: each side of a bisection may hold at most
/// `(1 + BALANCE_TOLERANCE) / 2` of the total vertex weight.
const BALANCE_TOLERANCE: f64 = 0.10;
/// Refinement passes applied at every uncoarsening level.
const REFINEMENT_PASSES: usize = 4;
/// Seed for the deterministic tie-breaking order.
const SEED: u64 = 1;

/// Multilevel recursive-bisection graph partitioner.
#[derive(Debug, Clone, Default)]
pub struct Partitioner;

impl Partitioner {
    /// Creates the partitioner.
    pub fn new() -> Self {
        Partitioner
    }

    /// Partitions the subgraph of `graph` induced by `vertices` into `parts` pieces.
    ///
    /// Returns one part id (in `0..parts`) per entry of `vertices`. Parts are balanced
    /// within the balance tolerance and every part is non-empty whenever
    /// `vertices.len() >= parts`.
    pub fn partition(
        &self,
        graph: &Graph,
        vertices: &[NodeId],
        parts: usize,
    ) -> PartitionAssignment {
        assert!(parts >= 1, "parts must be >= 1");
        let n = vertices.len();
        if parts == 1 || n <= 1 {
            return vec![0; n];
        }
        // Build the induced working graph with local ids.
        let mut local = vec![u32::MAX; graph.num_vertices()];
        for (i, &v) in vertices.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let mut offsets = vec![0u32; n + 1];
        let mut targets = Vec::new();
        let mut edge_weights = Vec::new();
        for (i, &v) in vertices.iter().enumerate() {
            for (t, _w) in graph.neighbors(v) {
                let lt = local[t as usize];
                if lt != u32::MAX {
                    targets.push(lt);
                    // Cut quality is measured in number of crossing edges, matching the
                    // partitioning objective used by G-tree/ROAD (minimise borders).
                    edge_weights.push(1u64);
                }
            }
            offsets[i + 1] = targets.len() as u32;
        }
        let work = WorkGraph { offsets, targets, edge_weights, vertex_weights: vec![1; n] };
        let mut assignment = vec![0u32; n];
        let part_ids: Vec<u32> = (0..parts as u32).collect();
        self.recursive_bisect(
            &work,
            &(0..n as u32).collect::<Vec<_>>(),
            &part_ids,
            &mut assignment,
        );
        assignment
    }

    /// Recursively bisects the sub-working-graph over `members` (local vertex ids of the
    /// top-level working graph), assigning the ids in `part_ids` to the final pieces.
    fn recursive_bisect(
        &self,
        work: &WorkGraph,
        members: &[u32],
        part_ids: &[u32],
        assignment: &mut [u32],
    ) {
        if part_ids.len() == 1 {
            for &m in members {
                assignment[m as usize] = part_ids[0];
            }
            return;
        }
        // Split part ids proportionally (handles non-power-of-two fanouts).
        let left_parts = part_ids.len() / 2;
        let left_fraction = left_parts as f64 / part_ids.len() as f64;
        let side = self.bisect(work, members, left_fraction);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (i, &m) in members.iter().enumerate() {
            if side[i] {
                right.push(m);
            } else {
                left.push(m);
            }
        }
        // Guarantee non-empty halves when possible.
        if left.is_empty() && !right.is_empty() {
            left.push(right.pop().expect("non-empty"));
        } else if right.is_empty() && !left.is_empty() {
            right.push(left.pop().expect("non-empty"));
        }
        self.recursive_bisect(work, &left, &part_ids[..left_parts], assignment);
        self.recursive_bisect(work, &right, &part_ids[left_parts..], assignment);
    }

    /// Bisects the subgraph over `members`; returns `side[i]` = true when `members[i]`
    /// belongs to the second piece. `left_fraction` is the target weight fraction of the
    /// first piece.
    fn bisect(&self, work: &WorkGraph, members: &[u32], left_fraction: f64) -> Vec<bool> {
        let n = members.len();
        if n <= 1 {
            return vec![false; n];
        }
        // Extract the induced sub-working-graph with compact ids.
        let mut local = vec![u32::MAX; work.len()];
        for (i, &m) in members.iter().enumerate() {
            local[m as usize] = i as u32;
        }
        let mut offsets = vec![0u32; n + 1];
        let mut targets = Vec::new();
        let mut edge_weights = Vec::new();
        let mut vertex_weights = Vec::with_capacity(n);
        for (i, &m) in members.iter().enumerate() {
            for (t, w) in work.neighbors(m) {
                let lt = local[t as usize];
                if lt != u32::MAX {
                    targets.push(lt);
                    edge_weights.push(w);
                }
            }
            offsets[i + 1] = targets.len() as u32;
            vertex_weights.push(work.vertex_weights[m as usize]);
        }
        let sub = WorkGraph { offsets, targets, edge_weights, vertex_weights };
        self.multilevel_bisect(&sub, left_fraction)
    }

    /// Multilevel bisection of a compact working graph.
    fn multilevel_bisect(&self, graph: &WorkGraph, left_fraction: f64) -> Vec<bool> {
        let total = graph.total_weight();
        let target_right = ((1.0 - left_fraction) * total as f64).round() as u64;
        let max_side =
            |target: u64| -> u64 { ((target as f64) * (1.0 + BALANCE_TOLERANCE)).ceil() as u64 };

        if graph.len() <= COARSEN_UNTIL {
            let mut side = self.grow_initial(graph, target_right);
            refine_bisection(
                graph,
                &mut side,
                max_side(total - target_right.min(total)).max(max_side(target_right)),
                REFINEMENT_PASSES,
            );
            return side;
        }

        // Coarsen one level by heavy-edge matching, recurse, project back, refine.
        let (coarse, map) = coarsen(graph, SEED);
        let coarse_side = self.multilevel_bisect(&coarse, left_fraction);
        let mut side: Vec<bool> = (0..graph.len()).map(|v| coarse_side[map[v] as usize]).collect();
        refine_bisection(
            graph,
            &mut side,
            max_side(total - target_right.min(total)).max(max_side(target_right)),
            REFINEMENT_PASSES,
        );
        side
    }

    /// Greedy initial bisection: BFS region growth from a pseudo-peripheral vertex until
    /// the grown region reaches `target_right` weight; the grown region becomes side 1.
    fn grow_initial(&self, graph: &WorkGraph, target_right: u64) -> Vec<bool> {
        let n = graph.len();
        let mut side = vec![false; n];
        if n == 0 || target_right == 0 {
            return side;
        }
        // Pseudo-peripheral start: BFS from vertex 0, take the last vertex reached.
        let start = {
            let mut seen = vec![false; n];
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(0u32);
            seen[0] = true;
            let mut last = 0u32;
            while let Some(v) = queue.pop_front() {
                last = v;
                for (t, _) in graph.neighbors(v) {
                    if !seen[t as usize] {
                        seen[t as usize] = true;
                        queue.push_back(t);
                    }
                }
            }
            last
        };
        let mut grown_weight = 0u64;
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        seen[start as usize] = true;
        let mut next_unseen = 0usize;
        while grown_weight < target_right {
            let v = match queue.pop_front() {
                Some(v) => v,
                None => {
                    // Disconnected working graph: jump to the next unseen vertex.
                    while next_unseen < n && seen[next_unseen] {
                        next_unseen += 1;
                    }
                    if next_unseen >= n {
                        break;
                    }
                    seen[next_unseen] = true;
                    next_unseen as u32
                }
            };
            side[v as usize] = true;
            grown_weight += graph.vertex_weights[v as usize];
            for (t, _) in graph.neighbors(v) {
                if !seen[t as usize] {
                    seen[t as usize] = true;
                    queue.push_back(t);
                }
            }
        }
        side
    }
}

/// One level of heavy-edge-matching coarsening. Returns the coarse graph and, for every
/// fine vertex, the coarse vertex it maps to.
fn coarsen(graph: &WorkGraph, seed: u64) -> (WorkGraph, Vec<u32>) {
    let n = graph.len();
    let mut matched = vec![u32::MAX; n];
    let mut coarse_id = vec![u32::MAX; n];
    let mut next_id = 0u32;

    // Visit vertices in a seeded pseudo-random order for matching quality.
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }

    for &v in &order {
        if matched[v as usize] != u32::MAX {
            continue;
        }
        // Pick the heaviest-edge unmatched neighbor.
        let mut best: Option<(u32, u64)> = None;
        for (t, w) in graph.neighbors(v) {
            if t != v && matched[t as usize] == u32::MAX && best.is_none_or(|(_, bw)| w > bw) {
                best = Some((t, w));
            }
        }
        match best {
            Some((t, _)) => {
                matched[v as usize] = t;
                matched[t as usize] = v;
                coarse_id[v as usize] = next_id;
                coarse_id[t as usize] = next_id;
            }
            None => {
                matched[v as usize] = v;
                coarse_id[v as usize] = next_id;
            }
        }
        next_id += 1;
    }

    // Build the coarse graph by aggregating edges between coarse vertices.
    let cn = next_id as usize;
    let mut vertex_weights = vec![0u64; cn];
    for v in 0..n {
        vertex_weights[coarse_id[v] as usize] += graph.vertex_weights[v];
    }
    let mut adjacency: Vec<std::collections::BTreeMap<u32, u64>> =
        vec![std::collections::BTreeMap::new(); cn];
    for v in 0..n as u32 {
        let cv = coarse_id[v as usize];
        for (t, w) in graph.neighbors(v) {
            let ct = coarse_id[t as usize];
            if cv != ct {
                *adjacency[cv as usize].entry(ct).or_insert(0) += w;
            }
        }
    }
    let mut offsets = vec![0u32; cn + 1];
    let mut targets = Vec::new();
    let mut edge_weights = Vec::new();
    for (i, adj) in adjacency.iter().enumerate() {
        for (&t, &w) in adj {
            targets.push(t);
            edge_weights.push(w);
        }
        offsets[i + 1] = targets.len() as u32;
    }
    (WorkGraph { offsets, targets, edge_weights, vertex_weights }, coarse_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnknn_graph::generator::{GeneratorConfig, RoadNetwork};
    use rnknn_graph::{EdgeWeightKind, GraphBuilder};

    fn check_partition(assignment: &[u32], parts: usize) {
        // Every part id in range and non-empty, sizes within a loose balance bound.
        let n = assignment.len();
        let mut counts = vec![0usize; parts];
        for &p in assignment {
            assert!((p as usize) < parts);
            counts[p as usize] += 1;
        }
        for (p, &c) in counts.iter().enumerate() {
            assert!(c > 0, "part {p} is empty");
            assert!(c <= n, "part {p} too large");
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max <= min * 3 + 4, "parts too unbalanced: {counts:?}");
    }

    #[test]
    fn partitions_a_grid_into_balanced_quarters() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(2_000, 17));
        let g = net.graph(EdgeWeightKind::Distance);
        let vertices: Vec<_> = g.vertices().collect();
        let p = Partitioner::new();
        let assignment = p.partition(&g, &vertices, 4);
        check_partition(&assignment, 4);

        // The cut should be small relative to the number of edges on a planar-ish graph.
        let mut cut = 0usize;
        for (u, v, _) in g.edges() {
            if assignment[u as usize] != assignment[v as usize] {
                cut += 1;
            }
        }
        assert!(cut * 8 < g.num_edges(), "cut {} of {} edges looks too large", cut, g.num_edges());
    }

    #[test]
    fn partitions_vertex_subsets() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(1_000, 3));
        let g = net.graph(EdgeWeightKind::Distance);
        let subset: Vec<_> = g.vertices().filter(|v| v % 3 != 0).collect();
        let assignment = Partitioner::new().partition(&g, &subset, 2);
        assert_eq!(assignment.len(), subset.len());
        check_partition(&assignment, 2);
    }

    #[test]
    fn handles_tiny_inputs_and_single_part() {
        let mut b = GraphBuilder::with_vertices(3);
        b.add_edge(0, 1, 1);
        b.add_edge(1, 2, 1);
        let g = b.build();
        let p = Partitioner::new();
        assert_eq!(p.partition(&g, &[0, 1, 2], 1), vec![0, 0, 0]);
        assert_eq!(p.partition(&g, &[0], 4).len(), 1);
        let two = p.partition(&g, &[0, 1, 2], 2);
        check_partition(&two, 2);
    }

    #[test]
    fn non_power_of_two_fanout() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(900, 8));
        let g = net.graph(EdgeWeightKind::Distance);
        let vertices: Vec<_> = g.vertices().collect();
        let assignment = Partitioner::new().partition(&g, &vertices, 3);
        check_partition(&assignment, 3);
    }

    #[test]
    fn deterministic_for_same_config() {
        let net = RoadNetwork::generate(&GeneratorConfig::new(600, 5));
        let g = net.graph(EdgeWeightKind::Distance);
        let vertices: Vec<_> = g.vertices().collect();
        let a = Partitioner::new().partition(&g, &vertices, 4);
        let b = Partitioner::new().partition(&g, &vertices, 4);
        assert_eq!(a, b);
    }
}
