//! The backend-dispatched neighbor working set the clustering loops drive.

use crate::{KdTree, NeighborBackend, ResolvedBackend};
use tclose_metrics::distance::{
    farthest_from_ids, k_nearest_ids, min_sq_dist_excluding, nearest_to_ids, nearest_to_many_ids,
    sq_dist_dim,
};
use tclose_metrics::matrix::{Matrix, RowId, RowIndex};
use tclose_parallel::Parallelism;

/// A shrinking working set of matrix rows answering the neighbor queries
/// of the MDAV-family clustering loops, through whichever backend
/// [`NeighborBackend::resolve`] picked.
///
/// The caller keeps its own live-id list (an
/// [`IndexPool`](crate::IndexPool) in MDAV and Algorithms 2 and 3) and
/// passes it to every query; the set mirrors
/// membership via [`remove`](NeighborSet::remove) /
/// [`insert`](NeighborSet::insert) so the kd-tree backend's tombstone mask
/// always matches. Under the `FlatScan` backend queries delegate to the
/// deterministic blocked kernels of [`tclose_metrics::distance`] over the
/// caller's list (honoring the worker-count policy); under `KdTree` they
/// run pruned tree queries. **Both backends return identical results** —
/// same rows, same order, same tie-breaking by lowest row id.
///
/// ```
/// use tclose_index::{NeighborBackend, NeighborSet};
/// use tclose_metrics::matrix::{Matrix, RowId};
/// use tclose_parallel::Parallelism;
///
/// let m = Matrix::from_rows(&[vec![0.0], vec![1.0], vec![10.0]]);
/// let mut live: Vec<RowId> = m.row_ids().collect();
/// let mut set = NeighborSet::new(&m, NeighborBackend::KdTree, Parallelism::sequential());
///
/// assert_eq!(set.farthest_from(&live, &[0.0]), Some(RowId::new(2)));
/// let pair = set.k_nearest(&live, &[0.2], 2);
/// assert_eq!(pair, vec![RowId::new(0), RowId::new(1)]);
///
/// // Keep the set in lockstep with the caller's live list.
/// set.remove_all(&pair);
/// live.retain(|id| !pair.contains(id));
/// assert_eq!(set.farthest_from(&live, &[0.0]), Some(RowId::new(2)));
/// ```
#[derive(Debug)]
pub struct NeighborSet<'m> {
    m: &'m Matrix,
    par: Parallelism,
    /// `None` on the flat backend: every query scans the caller's live
    /// list. `Some` holds the exact pruned kd-tree with tombstones.
    tree: Option<KdTree>,
}

impl<'m> NeighborSet<'m> {
    /// A working set initially containing **every** row of `m`, on the
    /// backend `backend` resolves to for this matrix shape. `par` bounds
    /// the worker count of the flat-scan kernels; the kd-tree is built and
    /// queried on the calling thread.
    pub fn new(m: &'m Matrix, backend: NeighborBackend, par: Parallelism) -> Self {
        let tree = match backend.resolve(m.n_rows(), m.n_cols()) {
            ResolvedBackend::KdTree => Some(KdTree::build(m)),
            ResolvedBackend::FlatScan => None,
        };
        NeighborSet { m, par, tree }
    }

    /// Which backend this set runs on.
    pub fn resolved(&self) -> ResolvedBackend {
        match self.tree {
            None => ResolvedBackend::FlatScan,
            Some(_) => ResolvedBackend::KdTree,
        }
    }

    /// The kd-tree, checked against the caller's live list in debug
    /// builds; `None` on the flat backend.
    fn tree_for<I>(&self, live: &[I]) -> Option<&KdTree> {
        let t = self.tree.as_ref()?;
        debug_assert_eq!(t.len(), live.len(), "live list out of sync with the tree");
        Some(t)
    }

    /// The id among `live` whose row is farthest from `point` (ties toward
    /// the lowest row id); `None` when `live` is empty.
    pub fn farthest_from<I: RowIndex>(&self, live: &[I], point: &[f64]) -> Option<I> {
        match self.tree_for(live) {
            None => farthest_from_ids(self.m, live, point, self.par),
            Some(t) => t.farthest_from(point).map(from_row_id),
        }
    }

    /// The id among `live` whose row is nearest to `point` (ties toward
    /// the lowest row id); `None` when `live` is empty.
    pub fn nearest_to<I: RowIndex>(&self, live: &[I], point: &[f64]) -> Option<I> {
        match self.tree_for(live) {
            None => nearest_to_ids(self.m, live, point, self.par),
            Some(t) => t.nearest(point).map(from_row_id),
        }
    }

    /// The `count` ids among `live` nearest to `point`, ascending under
    /// the total order (distance, row id). All of `live`, sorted, when
    /// `count` exceeds the live count. The result holds exactly
    /// `min(count, live)` distinct live ids; that invariant is what keeps
    /// every MDAV-family cluster k-anonymous.
    pub fn k_nearest<I: RowIndex>(&self, live: &[I], point: &[f64], count: usize) -> Vec<I> {
        match self.tree_for(live) {
            None => k_nearest_ids(self.m, live, point, count, self.par),
            Some(t) => t
                .k_nearest(point, count)
                .into_iter()
                .map(from_row_id)
                .collect(),
        }
    }

    /// [`nearest_to`](Self::nearest_to) for a batch of query points
    /// (V-MDAV's per-member extension scan). The flat backend streams the
    /// matrix once per block instead of once per query
    /// ([`nearest_to_many_ids`]); the kd-tree answers each point with its
    /// own [`KdTree::nearest`] traversal.
    pub fn nearest_batch<I: RowIndex>(&self, live: &[I], points: &[&[f64]]) -> Vec<Option<I>> {
        match self.tree_for(live) {
            None => nearest_to_many_ids(self.m, live, points, self.par),
            Some(t) => points
                .iter()
                .map(|p| t.nearest(p).map(from_row_id))
                .collect(),
        }
    }

    /// Smallest squared distance from `point` to any live row other than
    /// row `exclude` (`f64::INFINITY` when nothing qualifies) — V-MDAV's
    /// `d_out`. On the kd-tree backend this is a 2-nearest query with the
    /// excluded row filtered out (it can occupy at most one of the two
    /// slots), bit-identical to the flat min-scan: both reduce the same
    /// [`sq_dist_dim`] values, one by argmin, one by min.
    pub fn min_sq_dist_to_other<I: RowIndex>(
        &self,
        live: &[I],
        point: &[f64],
        exclude: usize,
    ) -> f64 {
        match self.tree_for(live) {
            None => min_sq_dist_excluding(self.m, live, point, exclude, self.par),
            Some(t) => t
                .k_nearest(point, 2)
                .into_iter()
                .find(|id| id.index() != exclude)
                .map(|id| sq_dist_dim(self.m.row(id.index()), point))
                .unwrap_or(f64::INFINITY),
        }
    }

    /// Mirrors the removal of `id` from the caller's live list. No-op on
    /// the flat backend (the caller's list *is* the state there).
    pub fn remove<I: RowIndex>(&mut self, id: I) {
        if let Some(t) = &mut self.tree {
            t.remove(RowId::new(id.row_index()));
        }
    }

    /// [`remove`](NeighborSet::remove) for a batch of ids.
    pub fn remove_all<I: RowIndex>(&mut self, ids: &[I]) {
        for &id in ids {
            self.remove(id);
        }
    }

    /// Mirrors a re-insertion into the caller's live list (Algorithm 2
    /// returns swapped-out records to the unassigned pool).
    pub fn insert<I: RowIndex>(&mut self, id: I) {
        if let Some(t) = &mut self.tree {
            t.insert(RowId::new(id.row_index()));
        }
    }
}

/// Converts a backend result back into the caller's id type.
fn from_row_id<I: RowIndex>(id: RowId) -> I {
    I::from_row_index(id.index())
}
