//! Flat row-major record matrix — the record representation of every hot
//! microaggregation kernel.
//!
//! The seed implementation stored records as `Vec<Vec<f64>>`: one heap
//! allocation per record, so every distance evaluation in the `O(n²/k)`
//! MDAV loop chased a pointer. [`Matrix`] stores all records in one
//! contiguous row-major buffer with a fixed stride; a row is a plain
//! subslice, adjacent rows are adjacent in memory, and the farthest-record
//! / nearest-neighbour scans of `tclose-microagg` become chunked linear
//! walks the prefetcher can stream.
//!
//! [`RowId`] is the typed record index into a matrix. Kernels accept any
//! index type implementing [`RowIndex`] (both `RowId` and plain `usize`),
//! so index lists held by higher layers (e.g. `Clustering`'s `usize`
//! clusters) work without conversion.

use std::fmt;

/// Typed index of one record (row) of a [`Matrix`].
///
/// Stored as `u32`: index lists are half the size of `usize` lists on
/// 64-bit targets, which matters in the scan-heavy MDAV loop. This caps a
/// matrix at `u32::MAX` rows — far beyond what a contiguous `f64` buffer
/// could hold anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct RowId(u32);

impl RowId {
    /// A row id for position `index`.
    ///
    /// # Panics
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn new(index: usize) -> Self {
        match u32::try_from(index) {
            Ok(i) => RowId(i),
            Err(_) => panic!("row index {index} overflows u32"),
        }
    }

    /// The position as a plain `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<usize> for RowId {
    fn from(index: usize) -> Self {
        RowId::new(index)
    }
}

impl From<RowId> for usize {
    fn from(id: RowId) -> Self {
        id.index()
    }
}

/// An index type that can address a row of a [`Matrix`].
///
/// Implemented for [`RowId`] and `usize` so the flat kernels serve both the
/// typed microaggregation internals and the `usize`-indexed clusters of
/// `Clustering` without copies.
pub trait RowIndex: Copy + Send + Sync {
    /// The row position this index refers to.
    fn row_index(self) -> usize;

    /// An index of this type addressing row `index` — the inverse of
    /// [`RowIndex::row_index`]. Lets kernels that compute positions
    /// internally (e.g. the kd-tree backend of `tclose-index`) hand results
    /// back in whatever index type the caller speaks.
    fn from_row_index(index: usize) -> Self;
}

impl RowIndex for RowId {
    #[inline]
    fn row_index(self) -> usize {
        self.index()
    }

    #[inline]
    fn from_row_index(index: usize) -> Self {
        RowId::new(index)
    }
}

impl RowIndex for usize {
    #[inline]
    fn row_index(self) -> usize {
        self
    }

    #[inline]
    fn from_row_index(index: usize) -> Self {
        index
    }
}

/// A dense row-major matrix of `f64` record vectors in one contiguous
/// buffer.
///
/// Invariants: `data.len() == n_rows * n_cols`; all rows share the stride
/// `n_cols`. A matrix may have zero columns (records with no
/// quasi-identifier dimensions) — every row is then the empty slice.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    n_rows: usize,
    n_cols: usize,
}

impl Matrix {
    /// Builds a matrix from an explicit shape.
    ///
    /// # Panics
    /// Panics if `data.len() != n_rows * n_cols` or `n_rows` overflows
    /// [`RowId`].
    pub fn new(data: Vec<f64>, n_rows: usize, n_cols: usize) -> Self {
        assert_eq!(
            data.len(),
            n_rows * n_cols,
            "buffer of {} values cannot hold {n_rows}×{n_cols}",
            data.len()
        );
        assert!(
            u32::try_from(n_rows).is_ok(),
            "{n_rows} rows overflow the RowId index space"
        );
        Matrix {
            data,
            n_rows,
            n_cols,
        }
    }

    /// Builds a matrix from a flat row-major buffer, deriving the row count.
    ///
    /// # Panics
    /// Panics if `n_cols == 0` or `data.len()` is not a multiple of
    /// `n_cols`.
    pub fn from_flat(data: Vec<f64>, n_cols: usize) -> Self {
        assert!(n_cols > 0, "from_flat needs at least one column");
        assert!(
            data.len().is_multiple_of(n_cols),
            "buffer of {} values is not a whole number of {n_cols}-wide rows",
            data.len()
        );
        let n_rows = data.len() / n_cols;
        Matrix::new(data, n_rows, n_cols)
    }

    /// Copies boxed rows (`Vec<Vec<f64>>`) into a flat matrix.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map(Vec::len).unwrap_or(0);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                n_cols,
                "row {i} has {} values, expected {n_cols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Matrix::new(data, n_rows, n_cols)
    }

    /// Number of records.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes per record (the row stride).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// True when the matrix holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// The record at `id` as a contiguous slice.
    #[inline]
    pub fn row<I: RowIndex>(&self, id: I) -> &[f64] {
        let i = id.row_index();
        debug_assert!(
            i < self.n_rows,
            "row {i} out of range ({} rows)",
            self.n_rows
        );
        &self.data[i * self.n_cols..i * self.n_cols + self.n_cols]
    }

    /// One value, by row and column position.
    #[inline]
    pub fn get<I: RowIndex>(&self, id: I, col: usize) -> f64 {
        debug_assert!(
            col < self.n_cols,
            "column {col} out of range ({} columns)",
            self.n_cols
        );
        debug_assert!(
            id.row_index() < self.n_rows,
            "row {} out of range ({} rows)",
            id.row_index(),
            self.n_rows
        );
        self.data[id.row_index() * self.n_cols + col]
    }

    /// The whole row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Iterator over all row ids, in row order.
    pub fn row_ids(&self) -> impl ExactSizeIterator<Item = RowId> {
        (0..self.n_rows as u32).map(RowId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let m = Matrix::from_rows(&rows);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 2);
        assert!(!m.is_empty());
        assert_eq!(m.row(RowId::new(1)), &[3.0, 4.0]);
        assert_eq!(m.row(2usize), &[5.0, 6.0]);
        assert_eq!(m.get(0usize, 1), 2.0);
        assert_eq!(m.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_flat_derives_rows() {
        let m = Matrix::from_flat(vec![0.0; 12], 3);
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.n_cols(), 3);
    }

    #[test]
    fn empty_and_zero_column_matrices() {
        let m = Matrix::from_rows(&[]);
        assert!(m.is_empty());
        assert_eq!(m.n_cols(), 0);
        assert_eq!(m.row_ids().len(), 0);

        let m = Matrix::new(vec![], 5, 0);
        assert_eq!(m.n_rows(), 5);
        assert_eq!(m.row(3usize), &[] as &[f64]);
    }

    #[test]
    fn row_ids_enumerate_in_order() {
        let m = Matrix::from_flat(vec![0.0; 6], 2);
        let ids: Vec<usize> = m.row_ids().map(RowId::index).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn row_id_conversions() {
        let id = RowId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(usize::from(id), 7);
        assert_eq!(RowId::from(7usize), id);
        assert_eq!(id.to_string(), "7");
        assert!(RowId::new(3) < RowId::new(4));
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn shape_mismatch_panics() {
        Matrix::new(vec![0.0; 5], 2, 3);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_flat_buffer_panics() {
        Matrix::from_flat(vec![0.0; 5], 3);
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
    }
}
