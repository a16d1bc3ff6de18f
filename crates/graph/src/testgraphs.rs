//! Small hand-built networks for tests across the workspace: the input shapes the
//! [generator](crate::generator) never produces (heavy ties, zero-weight edges,
//! several components) but the loaders accept.

use crate::{Graph, GraphBuilder, Point, Weight};

/// `side × side` unit-weight grids, `components` of them with no edge in between:
/// every border pair of a partition has many equal-length paths, through many borders.
pub fn unit_grids(side: u32, components: u32) -> Graph {
    let mut b = GraphBuilder::new();
    for c in 0..components {
        let base = c * side * side;
        for y in 0..side {
            for x in 0..side {
                b.add_vertex(Point::new((c * (side + 1) + x) as f64, y as f64));
            }
        }
        for y in 0..side {
            for x in 0..side {
                let v = base + y * side + x;
                if x + 1 < side {
                    b.add_edge(v, v + 1, 1);
                }
                if y + 1 < side {
                    b.add_edge(v, v + side, 1);
                }
            }
        }
    }
    b.build()
}

/// A grid a third of whose edges weigh nothing — distinct borders at distance zero.
/// Built as CSR directly: [`GraphBuilder::add_edge`] clamps a zero weight to one.
pub fn zero_weight_grid(side: u32) -> Graph {
    let g = unit_grids(side, 1);
    let (mut offsets, mut targets, mut weights) = (vec![0u32], Vec::new(), Vec::new());
    for v in g.vertices() {
        for &t in g.neighbor_ids(v) {
            targets.push(t);
            weights.push(((v.min(t) * 31 + v.max(t) * 17) % 3) as Weight);
        }
        offsets.push(targets.len() as u32);
    }
    Graph::from_csr(offsets, targets, weights, g.coords().to_vec())
}
