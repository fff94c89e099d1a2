//! O(1)-removal pool of record indices.
//!
//! The clustering algorithms repeatedly scan the unassigned records and
//! remove individual ones. A plain `Vec` makes removal by value `O(n)`;
//! `IndexPool` keeps a position map so removal is `O(1)` while the
//! contents stay iterable as a slice.

use tclose_metrics::matrix::RowIndex;

/// A set of record indices supporting O(1) membership test, O(1) removal by
/// value and iteration as a slice — the live-id list a [`NeighborSet`]
/// is queried with. The indices are plain `usize` row positions by
/// default, or any other [`RowIndex`] such as a typed `RowId`.
///
/// The slice order is scrambled by swap-removes. Every query over it is
/// order-independent anyway: the extreme/k-nearest kernels reduce under
/// the total order (distance, row id), and the blocked centroid sum is a
/// deterministic function of the slice — identical across backends and
/// worker counts because all of them see the same pool history.
///
/// [`NeighborSet`]: crate::NeighborSet
#[derive(Debug, Clone)]
pub struct IndexPool<I = usize> {
    items: Vec<I>,
    /// `pos[r]` is the index of row `r` inside `items`, or `usize::MAX`.
    pos: Vec<usize>,
}

impl<I: RowIndex> IndexPool<I> {
    /// Pool containing rows `0..n`.
    pub fn full(n: usize) -> Self {
        IndexPool {
            items: (0..n).map(I::from_row_index).collect(),
            pos: (0..n).collect(),
        }
    }

    /// The live indices (unspecified order).
    pub fn items(&self) -> &[I] {
        &self.items
    }

    /// Number of live indices.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no indices remain.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when `id` is still in the pool.
    pub fn contains(&self, id: I) -> bool {
        self.pos[id.row_index()] != usize::MAX
    }

    /// Removes `id` from the pool.
    ///
    /// # Panics
    /// Panics if `id` is not in the pool (double removal is a caller bug).
    pub fn remove(&mut self, id: I) {
        let r = id.row_index();
        let p = self.pos[r];
        assert!(p != usize::MAX, "record {r} is not in the pool");
        let last = self.items.last().expect("non-empty").row_index();
        self.items.swap_remove(p);
        self.pos[r] = usize::MAX;
        if last != r {
            self.pos[last] = p;
        }
    }

    /// Re-inserts a previously removed record.
    ///
    /// # Panics
    /// Panics if `id` is already in the pool.
    pub fn insert(&mut self, id: I) {
        let r = id.row_index();
        assert!(
            self.pos[r] == usize::MAX,
            "record {r} is already in the pool"
        );
        self.pos[r] = self.items.len();
        self.items.push(id);
    }

    /// Empties the pool, yielding its indices in slice order.
    pub fn drain(&mut self) -> impl Iterator<Item = I> + '_ {
        for &id in &self.items {
            self.pos[id.row_index()] = usize::MAX;
        }
        self.items.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tclose_metrics::matrix::RowId;

    #[test]
    fn remove_insert_round_trip() {
        let mut p = IndexPool::<usize>::full(5);
        assert_eq!(p.len(), 5);
        p.remove(2);
        assert!(!p.contains(2));
        assert_eq!(p.len(), 4);
        p.remove(4);
        p.remove(0);
        let mut live: Vec<usize> = p.items().to_vec();
        live.sort_unstable();
        assert_eq!(live, vec![1, 3]);
        p.insert(2);
        assert!(p.contains(2));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn drain_everything() {
        let mut p = IndexPool::<usize>::full(4);
        for r in 0..4 {
            p.remove(r);
        }
        assert!(p.is_empty());
        // Typed row ids: drain empties the pool in slice order.
        let mut p = IndexPool::<RowId>::full(4);
        p.remove(RowId::new(1));
        let drained: Vec<usize> = p.drain().map(RowId::index).collect();
        assert_eq!(drained, vec![0, 3, 2]);
        assert!(p.is_empty());
        assert!(!p.contains(RowId::new(0)));
    }

    #[test]
    #[should_panic(expected = "not in the pool")]
    fn double_remove_panics() {
        let mut p = IndexPool::<usize>::full(2);
        p.remove(1);
        p.remove(1);
    }

    #[test]
    #[should_panic(expected = "already in the pool")]
    fn double_insert_panics() {
        let mut p = IndexPool::<usize>::full(2);
        p.insert(1);
    }
}
