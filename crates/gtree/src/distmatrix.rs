//! The G-tree distance matrix: one bare row-major arena of 32-bit cells per node.
//!
//! G-tree's assembly iterates over two lists of borders and reads one matrix cell
//! per pair, and in main memory a query *is* those reads (the paper's Figure 6 /
//! Table 3): a flat array swept in iteration order beats any hashed layout by an
//! order of magnitude, and the sweep is bandwidth-bound, so the cell width sets the
//! query time. Cells are therefore [`Cell`] = `u32` — half the bytes a query
//! streams, half the index, twice the lanes per min-plus instruction
//! ([`crate::kernel`]) — in a [`PVec`] that is owned when built and a zero-copy
//! artifact view when loaded (`crate::persist`).
//!
//! Range: a finite cell is `< CELL_INFINITY = u32::MAX / 2` and "unreachable" is
//! exactly [`CELL_INFINITY`], so `s + cell` with `s` finite never wraps a `u32`.
//! Distances enter the cell range only through [`narrow`], which refuses a finite
//! value that does not fit (the builder turns that into
//! [`crate::GtreeBuildError`]); they leave it through [`widen`], which maps the
//! sentinel back to [`INFINITY`]. Nothing is ever saturated into "unreachable".

use rnknn_graph::{Weight, INFINITY};
use rnknn_persist::PVec;

/// One stored distance.
pub type Cell = u32;

/// The "unreachable" cell. Half the `u32` range, so the sum of a finite cell and
/// any cell is at most `2^32 − 3` and the min-plus kernels need no overflow check.
pub const CELL_INFINITY: Cell = u32::MAX / 2;

/// A cell as a [`Weight`]: [`CELL_INFINITY`] becomes [`INFINITY`].
#[inline]
pub fn widen(cell: Cell) -> Weight {
    if cell == CELL_INFINITY {
        INFINITY
    } else {
        cell as Weight
    }
}

/// A [`Weight`] as a cell: [`INFINITY`] becomes [`CELL_INFINITY`], and a finite
/// distance that does not fit below the sentinel is `None`.
#[inline]
pub fn narrow(weight: Weight) -> Option<Cell> {
    if weight == INFINITY {
        Some(CELL_INFINITY)
    } else if weight < CELL_INFINITY as Weight {
        Some(weight as Cell)
    } else {
        None
    }
}

/// A pruning bound in cell range. Every finite cell is below the sentinel, so any
/// bound at or above it (in particular [`INFINITY`], "exact") prunes nothing and
/// clamps to [`CELL_INFINITY`].
#[inline]
pub(crate) fn narrow_bound(bound: Weight) -> Cell {
    bound.min(CELL_INFINITY as Weight) as Cell
}

/// A dense `rows × cols` matrix of network distances, row-major.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    rows: usize,
    cols: usize,
    cells: PVec<Cell>,
}

impl DistanceMatrix {
    /// Creates a matrix with every cell set to `fill`.
    pub fn new(rows: usize, cols: usize, fill: Cell) -> Self {
        Self::from_cells(rows, cols, vec![fill; rows * cols].into())
    }

    /// A matrix over `cells` (`rows * cols` of them; a zero-copy view into a loaded
    /// artifact, or the vector a build step filled).
    pub(crate) fn from_cells(rows: usize, cols: usize, cells: PVec<Cell>) -> Self {
        assert_eq!(cells.len(), rows * cols, "{rows}x{cols} matrix over {} cells", cells.len());
        DistanceMatrix { rows, cols, cells }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Writes a cell.
    pub fn set(&mut self, row: usize, col: usize, value: Cell) {
        debug_assert!(row < self.rows && col < self.cols);
        self.cells[row * self.cols + col] = value;
    }

    /// Reads a cell. No per-read bookkeeping: a kNN query at 116k vertices reads
    /// ≈ 200k cells at density 0.01 and ≈ 500k at 0.002, which made per-cell
    /// counters the dominant query cost, so cell counts are kept per row batch by
    /// the search ([`crate::GtreeSearchStats::matrix_cells`]).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Cell {
        debug_assert!(
            row < self.rows && col < self.cols,
            "({row},{col}) in {}x{}",
            self.rows,
            self.cols
        );
        self.cells[row * self.cols + col]
    }

    /// A full row, contiguous — what the assembly and refinement sweeps stream.
    #[inline]
    pub fn row(&self, row: usize) -> &[Cell] {
        &self.cells[row * self.cols..(row + 1) * self.cols]
    }

    /// Every cell, row-major: the node's slice of the persisted arena.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Whether the cells are still a zero-copy view into a loaded artifact.
    pub fn is_view(&self) -> bool {
        self.cells.is_view()
    }

    /// Resident size in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<Cell>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_matrix_behaviour() {
        let mut m = DistanceMatrix::new(7, 5, 999);
        assert_eq!((m.rows(), m.cols()), (7, 5));
        assert_eq!(m.get(3, 4), 999);
        for r in 0..7 {
            for c in 0..5 {
                m.set(r, c, (r * 10 + c) as Cell);
            }
        }
        for r in 0..7 {
            for c in 0..5 {
                assert_eq!(m.get(r, c), (r * 10 + c) as Cell);
            }
        }
        assert_eq!(m.row(2), [20, 21, 22, 23, 24]);
        assert_eq!(&m.cells()[10..15], [20, 21, 22, 23, 24]);
        assert!(!m.is_view());
        assert_eq!(m.memory_bytes(), 7 * 5 * 4, "resident bytes count 4-byte cells");
    }

    #[test]
    fn cells_narrow_checked_and_widen_the_sentinel() {
        assert_eq!(narrow(0), Some(0));
        assert_eq!(narrow(CELL_INFINITY as Weight - 1), Some(CELL_INFINITY - 1));
        assert_eq!(narrow(INFINITY), Some(CELL_INFINITY));
        // A finite distance at or above the sentinel is refused, never saturated.
        assert_eq!(narrow(CELL_INFINITY as Weight), None);
        assert_eq!(narrow(INFINITY - 1), None);
        assert_eq!(widen(CELL_INFINITY), INFINITY);
        assert_eq!(widen(CELL_INFINITY - 1), CELL_INFINITY as Weight - 1);
        // Bounds at or above the sentinel prune nothing.
        assert_eq!(narrow_bound(INFINITY), CELL_INFINITY);
        assert_eq!(narrow_bound(1 << 40), CELL_INFINITY);
        assert_eq!(narrow_bound(17), 17);
    }
}
