//! The three distance-matrix implementations compared in Figure 6 / Table 3.
//!
//! G-tree's assembly method iterates over two lists of borders and reads one matrix
//! cell per pair. The paper shows that how those cells are stored dominates query time
//! in main memory: a flat 1-D array read in iteration order is ~30× faster than a
//! chained hash table and ~10× faster than open addressing, because of cache locality.
//! All three variants share the same logical interface; [`DistanceMatrix::probe_length`]
//! exposes each layout's physical probe cost as a pure function so the experiment
//! harness can report a Table 3 analogue without hardware performance counters.

use rnknn_graph::Weight;
use rnknn_persist::PVec;
use std::collections::HashMap;

/// Which physical layout a [`DistanceMatrix`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatrixKind {
    /// Row-major 1-D array; the paper's recommended layout.
    Array,
    /// Separate-chaining hash table keyed by `(row, col)` (the `std` `HashMap`,
    /// mirroring the paper's `unordered_map` variant).
    ChainedHashing,
    /// Open-addressing hash table with quadratic probing (mirroring the paper's
    /// `dense_hash_map` variant).
    QuadraticProbing,
}

impl MatrixKind {
    /// All variants, in the order the paper plots them.
    pub fn all() -> [MatrixKind; 3] {
        [MatrixKind::ChainedHashing, MatrixKind::QuadraticProbing, MatrixKind::Array]
    }

    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            MatrixKind::Array => "Array",
            MatrixKind::ChainedHashing => "Chained Hashing",
            MatrixKind::QuadraticProbing => "Quad. Probing",
        }
    }
}

/// Open-addressing hash table with quadratic probing, fixed at build time.
#[derive(Debug, Clone)]
struct QuadraticTable {
    keys: Vec<u64>,
    values: Vec<Weight>,
    mask: u64,
}

const EMPTY_KEY: u64 = u64::MAX;

impl QuadraticTable {
    fn with_capacity(n: usize) -> Self {
        let cap = (n.max(4) * 2).next_power_of_two();
        QuadraticTable { keys: vec![EMPTY_KEY; cap], values: vec![0; cap], mask: cap as u64 - 1 }
    }

    #[inline]
    fn hash(key: u64) -> u64 {
        // Fibonacci hashing; adequate spread for (row, col) packed keys.
        key.wrapping_mul(0x9E3779B97F4A7C15)
    }

    fn insert(&mut self, key: u64, value: Weight) {
        let mut idx = Self::hash(key) & self.mask;
        let mut step = 0u64;
        loop {
            if self.keys[idx as usize] == EMPTY_KEY || self.keys[idx as usize] == key {
                self.keys[idx as usize] = key;
                self.values[idx as usize] = value;
                return;
            }
            step += 1;
            idx = (idx + step * step) & self.mask;
        }
    }

    /// Looks `key` up, returning its value (if present) and the number of slots
    /// the probe sequence inspected.
    #[inline]
    fn find(&self, key: u64) -> (Option<Weight>, u64) {
        let mut idx = Self::hash(key) & self.mask;
        let mut step = 0u64;
        loop {
            let k = self.keys[idx as usize];
            if k == key {
                return (Some(self.values[idx as usize]), step + 1);
            }
            if k == EMPTY_KEY || step >= self.mask {
                return (None, step + 1);
            }
            step += 1;
            idx = (idx + step * step) & self.mask;
        }
    }
}

/// A dense `rows × cols` matrix of network distances, stored with one of the three
/// layouts of [`MatrixKind`].
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    kind: MatrixKind,
    rows: usize,
    cols: usize,
    /// Array-layout cells: owned when built, a zero-copy artifact view when
    /// loaded from disk (see `crate::persist`).
    array: PVec<Weight>,
    chained: HashMap<u64, Weight>,
    quadratic: Option<QuadraticTable>,
}

impl DistanceMatrix {
    /// Creates a matrix with every cell set to `fill`.
    pub fn new(kind: MatrixKind, rows: usize, cols: usize, fill: Weight) -> Self {
        let mut m = DistanceMatrix {
            kind,
            rows,
            cols,
            array: PVec::new(),
            chained: HashMap::new(),
            quadratic: None,
        };
        match kind {
            MatrixKind::Array => m.array = vec![fill; rows * cols].into(),
            MatrixKind::ChainedHashing => {
                m.chained.reserve(rows * cols);
                for r in 0..rows {
                    for c in 0..cols {
                        m.chained.insert(pack(r, c), fill);
                    }
                }
            }
            MatrixKind::QuadraticProbing => {
                let mut table = QuadraticTable::with_capacity(rows * cols);
                for r in 0..rows {
                    for c in 0..cols {
                        table.insert(pack(r, c), fill);
                    }
                }
                m.quadratic = Some(table);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage layout.
    pub fn kind(&self) -> MatrixKind {
        self.kind
    }

    /// Writes a cell.
    pub fn set(&mut self, row: usize, col: usize, value: Weight) {
        debug_assert!(row < self.rows && col < self.cols);
        match self.kind {
            MatrixKind::Array => self.array[row * self.cols + col] = value,
            MatrixKind::ChainedHashing => {
                self.chained.insert(pack(row, col), value);
            }
            MatrixKind::QuadraticProbing => {
                self.quadratic.as_mut().expect("initialised").insert(pack(row, col), value);
            }
        }
    }

    /// Writes a full row (`values.len()` must equal the column count). For the array
    /// layout this is a single slice copy, which is what makes bulk assembly of large
    /// matrices cheap during construction.
    pub fn set_row(&mut self, row: usize, values: &[Weight]) {
        debug_assert!(row < self.rows && values.len() == self.cols);
        match self.kind {
            MatrixKind::Array => {
                self.array[row * self.cols..(row + 1) * self.cols].copy_from_slice(values);
            }
            _ => {
                for (col, &v) in values.iter().enumerate() {
                    self.set(row, col, v);
                }
            }
        }
    }

    /// Reads a cell. No per-read bookkeeping: ~680k cells per kNN query at 116k
    /// vertices made per-cell counters the dominant query cost, so cell counts are
    /// kept per row batch by the search ([`crate::GtreeSearchStats::matrix_cells`]).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Weight {
        debug_assert!(
            row < self.rows && col < self.cols,
            "({row},{col}) in {}x{}",
            self.rows,
            self.cols
        );
        match self.kind {
            MatrixKind::Array => self.array[row * self.cols + col],
            MatrixKind::ChainedHashing => {
                *self.chained.get(&pack(row, col)).expect("cell initialised")
            }
            MatrixKind::QuadraticProbing => {
                self.quadratic_table().find(pack(row, col)).0.expect("cell initialised")
            }
        }
    }

    /// Physical probes one read of `(row, col)` costs: slots inspected along the
    /// quadratic probe sequence, and 1 by construction for the array (one load) and
    /// the chained table (one bucket). The software stand-in for Table 3's hardware
    /// profile.
    pub fn probe_length(&self, row: usize, col: usize) -> u64 {
        match self.kind {
            MatrixKind::Array | MatrixKind::ChainedHashing => 1,
            MatrixKind::QuadraticProbing => self.quadratic_table().find(pack(row, col)).1,
        }
    }

    fn quadratic_table(&self) -> &QuadraticTable {
        self.quadratic.as_ref().expect("initialised")
    }

    /// A full row as a contiguous slice — `Some` only for the array layout. The
    /// G-tree assembly sweeps rows through this (cache-friendly, no per-cell
    /// bookkeeping), falling back to [`DistanceMatrix::get`] for the
    /// hash-table ablation layouts.
    #[inline]
    pub fn row_slice(&self, row: usize) -> Option<&[Weight]> {
        match self.kind {
            MatrixKind::Array => Some(&self.array[row * self.cols..(row + 1) * self.cols]),
            _ => None,
        }
    }

    /// A full row as a vector (used when refining matrices).
    pub fn row(&self, row: usize) -> Vec<Weight> {
        (0..self.cols).map(|c| self.get(row, c)).collect()
    }

    /// Reassembles an array-layout matrix from persisted parts (`array` is
    /// typically a zero-copy view into a loaded artifact).
    pub(crate) fn from_array_parts(rows: usize, cols: usize, array: PVec<Weight>) -> Self {
        debug_assert_eq!(array.len(), rows * cols);
        DistanceMatrix {
            kind: MatrixKind::Array,
            rows,
            cols,
            array,
            chained: HashMap::new(),
            quadratic: None,
        }
    }

    /// The raw array-layout cells (`None` for the hash-table ablation layouts,
    /// which are not persistable).
    pub(crate) fn array_data(&self) -> Option<&[Weight]> {
        match self.kind {
            MatrixKind::Array => Some(&self.array),
            _ => None,
        }
    }

    /// Approximate resident size in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self.kind {
            MatrixKind::Array => self.array.len() * std::mem::size_of::<Weight>(),
            MatrixKind::ChainedHashing => {
                // Entry overhead approximation: key + value + bucket pointer.
                self.chained.len() * (8 + std::mem::size_of::<Weight>() + 8)
            }
            MatrixKind::QuadraticProbing => {
                let t = self.quadratic.as_ref().expect("initialised");
                t.keys.len() * 8 + t.values.len() * std::mem::size_of::<Weight>()
            }
        }
    }
}

#[inline]
fn pack(row: usize, col: usize) -> u64 {
    ((row as u64) << 32) | col as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(kind: MatrixKind) {
        let mut m = DistanceMatrix::new(kind, 7, 5, 999);
        assert_eq!(m.rows(), 7);
        assert_eq!(m.cols(), 5);
        assert_eq!(m.kind(), kind);
        assert_eq!(m.get(3, 4), 999);
        for r in 0..7 {
            for c in 0..5 {
                m.set(r, c, (r * 10 + c) as Weight);
            }
        }
        for r in 0..7 {
            for c in 0..5 {
                assert_eq!(m.get(r, c), (r * 10 + c) as Weight);
            }
        }
        assert_eq!(m.row(2), vec![20, 21, 22, 23, 24]);
        assert!(m.memory_bytes() > 0);
        assert!(m.probe_length(3, 4) >= 1);
    }

    #[test]
    fn array_matrix_behaviour() {
        exercise(MatrixKind::Array);
    }

    #[test]
    fn chained_hash_matrix_behaviour() {
        exercise(MatrixKind::ChainedHashing);
    }

    #[test]
    fn quadratic_probing_matrix_behaviour() {
        exercise(MatrixKind::QuadraticProbing);
    }

    #[test]
    fn variants_agree_cell_by_cell() {
        let mut ms: Vec<DistanceMatrix> =
            MatrixKind::all().iter().map(|&k| DistanceMatrix::new(k, 9, 9, 0)).collect();
        for r in 0..9 {
            for c in 0..9 {
                let v = ((r * 31 + c * 17) % 100) as Weight;
                for m in ms.iter_mut() {
                    m.set(r, c, v);
                }
            }
        }
        for r in 0..9 {
            for c in 0..9 {
                let vals: Vec<Weight> = ms.iter().map(|m| m.get(r, c)).collect();
                assert!(vals.windows(2).all(|w| w[0] == w[1]));
            }
        }
    }

    #[test]
    fn probe_counts_reflect_layout_costs() {
        // The array and the chained table cost exactly one probe per read; quadratic
        // probing costs at least one, and more than one somewhere once the table
        // holds colliding keys.
        let a = DistanceMatrix::new(MatrixKind::Array, 16, 16, 5);
        let c = DistanceMatrix::new(MatrixKind::ChainedHashing, 16, 16, 5);
        let q = DistanceMatrix::new(MatrixKind::QuadraticProbing, 16, 16, 5);
        let mut quadratic_probes = 0;
        for r in 0..16 {
            for col in 0..16 {
                assert_eq!(a.probe_length(r, col), 1);
                assert_eq!(c.probe_length(r, col), 1);
                assert!(q.probe_length(r, col) >= 1);
                quadratic_probes += q.probe_length(r, col);
            }
        }
        assert!(quadratic_probes > 256, "no collision among 256 keys in 512 slots?");
    }

    #[test]
    fn names_and_kinds() {
        assert_eq!(MatrixKind::Array.name(), "Array");
        assert_eq!(MatrixKind::all().len(), 3);
    }
}
