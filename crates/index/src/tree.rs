//! The bulk-built kd-tree with tombstone deletion.
//!
//! See the crate docs for the exactness contract. Implementation notes:
//!
//! * **Layout.** Nodes live in one `Vec`; every node records its subtree's
//!   contiguous range into a permutation of the row ids, so leaves own
//!   contiguous slices of both the id array and a leaf-ordered copy of the
//!   coordinates (`coords`) — leaf scans are linear walks over adjacent
//!   memory, exactly like the flat kernels, just over far fewer rows.
//! * **Build.** Recursive median split: at each level the widest dimension
//!   of the node's bounding box is split at the median under the total
//!   order (coordinate, row id) via `select_nth_unstable_by` — `O(n)` per
//!   level, `O(n log n)` total, deterministic. Nodes whose bounding box is
//!   a single point (duplicate-heavy data) become leaves regardless of
//!   size; their members are tied anyway, and every query resolves ties by
//!   row id.
//! * **One traversal per query.** Every query walks the tree on its own,
//!   ordering children by its own bound. Shared multi-query walks and a
//!   fused near+far walk were measured slower and removed (see
//!   `docs/PERFORMANCE.md`).
//! * **Deletion.** [`KdTree::remove`] never restructures: the row is
//!   tombstoned (`alive` mask) and the live counters on its leaf-to-root
//!   path are decremented, `O(depth)`. Queries skip dead rows and dead
//!   subtrees. [`KdTree::insert`] reverses a removal (Algorithm 2 swaps
//!   records back into the unassigned pool).
//! * **Pruning.** Subtrees are pruned only on a **strict** bound
//!   comparison (`min_box > worst` for nearest queries, `max_box < best`
//!   for farthest). On equality the subtree is descended, because a tied
//!   point with a lower row id would win under the tie-breaking order.
//!   Box distances are computed dimension-by-dimension in index order with
//!   the same subtract/square/accumulate sequence as the point distances,
//!   so floating-point rounding preserves the bound inequalities and the
//!   pruned query is *exactly* equivalent to the full scan, not just
//!   approximately.

use tclose_metrics::distance::sq_dist_dim;
use tclose_metrics::matrix::{Matrix, RowId};

/// Sentinel child/parent index meaning "none".
const NONE: u32 = u32::MAX;

/// Rows per leaf before a node stops splitting. Small enough that leaf
/// scans stay cheap, large enough that the tree (and its per-node bounding
/// boxes) stays shallow.
const LEAF_SIZE: usize = 16;

#[derive(Debug, Clone, Copy)]
struct Node {
    parent: u32,
    /// `NONE` for leaves; inner nodes always have both children.
    left: u32,
    right: u32,
    /// Subtree range into the permuted id/coordinate arrays.
    start: u32,
    end: u32,
    /// Live (non-tombstoned) rows in the subtree.
    live: u32,
}

/// A static kd-tree over the rows of a [`Matrix`], supporting exact
/// nearest / k-nearest / farthest queries over a shrinking working set.
///
/// Build once over all rows, then [`remove`](KdTree::remove) rows as the
/// surrounding algorithm assigns them to clusters — queries only consider
/// live rows. Results are **identical** (including tie-breaking by lowest
/// [`RowId`]) to the flat scans of [`tclose_metrics::distance`] over the
/// same live set.
///
/// ```
/// use tclose_index::KdTree;
/// use tclose_metrics::matrix::Matrix;
///
/// let m = Matrix::from_rows(&[
///     vec![0.0, 0.0],
///     vec![1.0, 0.0],
///     vec![0.0, 2.0],
///     vec![5.0, 5.0],
/// ]);
/// let mut tree = KdTree::build(&m);
///
/// // The two rows nearest the origin, ascending by distance.
/// let near = tree.k_nearest(&[0.1, 0.1], 2);
/// assert_eq!(near.iter().map(|id| id.index()).collect::<Vec<_>>(), vec![0, 1]);
///
/// // Tombstone row 0: queries now ignore it, with no rebuild.
/// tree.remove(near[0]);
/// assert_eq!(tree.nearest(&[0.1, 0.1]).unwrap().index(), 1);
/// assert_eq!(tree.farthest_from(&[0.0, 0.0]).unwrap().index(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct KdTree {
    dims: usize,
    nodes: Vec<Node>,
    /// Row ids permuted so every node's subtree is contiguous.
    ids: Vec<RowId>,
    /// Coordinates of `ids` in the same permuted order (leaf-local scans
    /// walk adjacent memory).
    coords: Vec<f64>,
    /// Bounding boxes, `dims` values per node.
    bb_lo: Vec<f64>,
    bb_hi: Vec<f64>,
    /// Row index → index of the leaf node holding it.
    leaf_of: Vec<u32>,
    /// Row index → not tombstoned.
    alive: Vec<bool>,
    n_live: usize,
}

impl KdTree {
    /// Bulk-builds a tree over **all** rows of `m` (`O(n log n)`),
    /// single-threaded.
    ///
    /// The build is deterministic: splits follow the total order
    /// (coordinate, row id), so equal inputs produce equal trees.
    pub fn build(m: &Matrix) -> Self {
        let n = m.n_rows();
        let dims = m.n_cols();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut parts = TreeParts::default();
        if n > 0 {
            build_subtree(m, &mut perm, 0, NONE, &mut parts);
        }
        let mut leaf_of = vec![NONE; n];
        for (idx, nd) in parts.nodes.iter().enumerate() {
            if nd.left == NONE {
                for pos in nd.start..nd.end {
                    leaf_of[perm[pos as usize] as usize] = idx as u32;
                }
            }
        }
        let mut coords = Vec::with_capacity(n * dims);
        for &r in &perm {
            coords.extend_from_slice(m.row(r as usize));
        }
        KdTree {
            dims,
            nodes: parts.nodes,
            ids: perm.iter().map(|&r| RowId::new(r as usize)).collect(),
            coords,
            bb_lo: parts.bb_lo,
            bb_hi: parts.bb_hi,
            leaf_of,
            alive: vec![true; n],
            n_live: n,
        }
    }

    /// Number of live (non-tombstoned) rows.
    pub fn len(&self) -> usize {
        self.n_live
    }

    /// True when every row has been tombstoned (or the matrix was empty).
    pub fn is_empty(&self) -> bool {
        self.n_live == 0
    }

    /// Number of coordinates per row.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// True when `id` has not been tombstoned.
    pub fn is_live(&self, id: RowId) -> bool {
        self.alive[id.index()]
    }

    /// Tombstones `id`: queries no longer see it. `O(tree depth)`, no
    /// rebuild.
    ///
    /// # Panics
    /// Panics if `id` is already tombstoned (double removal is a caller
    /// bug, exactly like `IndexPool`).
    pub fn remove(&mut self, id: RowId) {
        let r = id.index();
        assert!(self.alive[r], "row {r} is already removed from the tree");
        self.alive[r] = false;
        self.n_live -= 1;
        let mut node = self.leaf_of[r];
        loop {
            self.nodes[node as usize].live -= 1;
            let parent = self.nodes[node as usize].parent;
            if parent == NONE {
                break;
            }
            node = parent;
        }
    }

    /// Reverses a [`remove`](KdTree::remove): `id` becomes visible to
    /// queries again.
    ///
    /// # Panics
    /// Panics if `id` is currently live.
    pub fn insert(&mut self, id: RowId) {
        let r = id.index();
        assert!(!self.alive[r], "row {r} is already live in the tree");
        self.alive[r] = true;
        self.n_live += 1;
        let mut node = self.leaf_of[r];
        loop {
            self.nodes[node as usize].live += 1;
            let parent = self.nodes[node as usize].parent;
            if parent == NONE {
                break;
            }
            node = parent;
        }
    }

    /// The live row nearest to `point` (ties toward the lowest row id), or
    /// `None` when no row is live.
    pub fn nearest(&self, point: &[f64]) -> Option<RowId> {
        self.k_nearest(point, 1).into_iter().next()
    }

    /// The `count` live rows nearest to `point`, ascending under the total
    /// order (squared distance, row id) — element for element what
    /// [`k_nearest_ids`](tclose_metrics::distance::k_nearest_ids) returns
    /// over the live set. Returns all live rows (sorted) when `count`
    /// exceeds the live count.
    ///
    /// ```
    /// use tclose_index::KdTree;
    /// use tclose_metrics::matrix::Matrix;
    ///
    /// // Duplicate points: ties resolve toward the lowest row id.
    /// let m = Matrix::from_rows(&[vec![1.0], vec![1.0], vec![3.0]]);
    /// let tree = KdTree::build(&m);
    /// let ids: Vec<usize> = tree.k_nearest(&[0.0], 3).iter().map(|i| i.index()).collect();
    /// assert_eq!(ids, vec![0, 1, 2]);
    /// ```
    pub fn k_nearest(&self, point: &[f64], count: usize) -> Vec<RowId> {
        debug_assert_eq!(point.len(), self.dims);
        if count == 0 || self.n_live == 0 {
            return Vec::new();
        }
        let mut best: Vec<(f64, RowId)> = Vec::with_capacity(count.min(self.n_live) + 1);
        self.knn_visit(
            0,
            self.min_sq_dist_to_box(0, point),
            point,
            count,
            &mut best,
        );
        best.into_iter().map(|(_, id)| id).collect()
    }

    /// The live row farthest from `point` (ties toward the lowest row id),
    /// or `None` when no row is live — what
    /// [`farthest_from_ids`](tclose_metrics::distance::farthest_from_ids)
    /// returns over the live set.
    pub fn farthest_from(&self, point: &[f64]) -> Option<RowId> {
        debug_assert_eq!(point.len(), self.dims);
        if self.n_live == 0 {
            return None;
        }
        let mut best: Option<(f64, RowId)> = None;
        self.far_visit(0, self.max_sq_dist_to_box(0, point), point, &mut best);
        best.map(|(_, id)| id)
    }

    /// Smallest possible squared distance from `point` to any point inside
    /// the node's bounding box. Computed with the same per-dimension
    /// subtract/square/accumulate sequence as [`sq_dist_dim`], so in
    /// floating point it never exceeds the distance of any row in the box.
    #[inline]
    fn min_sq_dist_to_box(&self, node: u32, point: &[f64]) -> f64 {
        let base = node as usize * self.dims;
        let mut acc = 0.0;
        for (j, &x) in point.iter().enumerate() {
            let lo = self.bb_lo[base + j];
            let hi = self.bb_hi[base + j];
            let d = if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Largest possible squared distance from `point` to any point inside
    /// the node's bounding box (never below the distance of any row in the
    /// box, by the same rounding-monotonicity argument).
    #[inline]
    fn max_sq_dist_to_box(&self, node: u32, point: &[f64]) -> f64 {
        let base = node as usize * self.dims;
        let mut acc = 0.0;
        for (j, &x) in point.iter().enumerate() {
            let a = (x - self.bb_lo[base + j]).abs();
            let b = (self.bb_hi[base + j] - x).abs();
            let d = a.max(b);
            acc += d * d;
        }
        acc
    }

    /// `node_bound` is this node's box min-distance, computed once by the
    /// caller (ordering the children already needed it).
    fn knn_visit(
        &self,
        node: u32,
        node_bound: f64,
        point: &[f64],
        count: usize,
        best: &mut Vec<(f64, RowId)>,
    ) {
        let nd = self.nodes[node as usize];
        if nd.live == 0 {
            return;
        }
        if best.len() == count {
            // Strict comparison: on equality a tied row with a lower id
            // inside this box could still displace the current worst.
            let worst = best[best.len() - 1].0;
            if node_bound > worst {
                return;
            }
        }
        if nd.left == NONE {
            for pos in nd.start as usize..nd.end as usize {
                let id = self.ids[pos];
                if !self.alive[id.index()] {
                    continue;
                }
                let row = &self.coords[pos * self.dims..(pos + 1) * self.dims];
                let d = sq_dist_dim(row, point);
                offer(best, count, d, id);
            }
        } else {
            // Nearer child first: tightens `worst` before the far child is
            // considered. Visit order never changes the result — both
            // children are filtered by the same total order.
            let dl = self.min_sq_dist_to_box(nd.left, point);
            let dr = self.min_sq_dist_to_box(nd.right, point);
            if dl <= dr {
                self.knn_visit(nd.left, dl, point, count, best);
                self.knn_visit(nd.right, dr, point, count, best);
            } else {
                self.knn_visit(nd.right, dr, point, count, best);
                self.knn_visit(nd.left, dl, point, count, best);
            }
        }
    }

    /// `node_bound` is this node's box max-distance, computed by the caller.
    fn far_visit(
        &self,
        node: u32,
        node_bound: f64,
        point: &[f64],
        best: &mut Option<(f64, RowId)>,
    ) {
        let nd = self.nodes[node as usize];
        if nd.live == 0 {
            return;
        }
        if let Some((bd, _)) = *best {
            // Strict: an equally far row with a lower id still wins.
            if node_bound < bd {
                return;
            }
        }
        if nd.left == NONE {
            for pos in nd.start as usize..nd.end as usize {
                let id = self.ids[pos];
                if !self.alive[id.index()] {
                    continue;
                }
                let row = &self.coords[pos * self.dims..(pos + 1) * self.dims];
                let d = sq_dist_dim(row, point);
                let wins = match *best {
                    None => true,
                    Some((bd, bid)) => d > bd || (d == bd && id < bid),
                };
                if wins {
                    *best = Some((d, id));
                }
            }
        } else {
            let dl = self.max_sq_dist_to_box(nd.left, point);
            let dr = self.max_sq_dist_to_box(nd.right, point);
            if dl >= dr {
                self.far_visit(nd.left, dl, point, best);
                self.far_visit(nd.right, dr, point, best);
            } else {
                self.far_visit(nd.right, dr, point, best);
                self.far_visit(nd.left, dl, point, best);
            }
        }
    }
}

/// Inserts `(d, id)` into the sorted candidate list if it beats the worst
/// entry (or the list is not full), keeping ascending (distance, row id)
/// order and at most `count` entries.
#[inline]
fn offer(best: &mut Vec<(f64, RowId)>, count: usize, d: f64, id: RowId) {
    if best.len() == count {
        let (wd, wid) = best[best.len() - 1];
        if d > wd || (d == wd && id > wid) {
            return;
        }
        best.pop();
    }
    let at = best.partition_point(|&(bd, bid)| bd < d || (bd == d && bid < id));
    best.insert(at, (d, id));
}

/// The nodes of a tree under construction, numbered in pre-order, plus
/// their bounding boxes (`dims` values per node).
#[derive(Default)]
struct TreeParts {
    nodes: Vec<Node>,
    bb_lo: Vec<f64>,
    bb_hi: Vec<f64>,
}

/// Bounding box of the rows at `perm`, appended to `lo`/`hi` (`dims`
/// values each).
fn push_bbox(m: &Matrix, perm: &[u32], lo: &mut Vec<f64>, hi: &mut Vec<f64>) {
    let dims = m.n_cols();
    let at = lo.len();
    lo.resize(at + dims, f64::INFINITY);
    hi.resize(at + dims, f64::NEG_INFINITY);
    for &r in perm {
        for (j, &x) in m.row(r as usize).iter().enumerate() {
            if x < lo[at + j] {
                lo[at + j] = x;
            }
            if x > hi[at + j] {
                hi[at + j] = x;
            }
        }
    }
}

/// Widest dimension of the box at `lo`/`hi` (first on ties) and its
/// width. A degenerate box (all rows equal, or zero columns) reports a
/// non-positive width, which terminates splitting regardless of size.
fn widest_dim(lo: &[f64], hi: &[f64]) -> (usize, f64) {
    let mut split_dim = 0usize;
    let mut split_width = f64::NEG_INFINITY;
    for (j, (l, h)) in lo.iter().zip(hi).enumerate() {
        let w = h - l;
        if w > split_width {
            split_width = w;
            split_dim = j;
        }
    }
    (split_dim, split_width)
}

/// Partitions `perm` at its median under the total order (coordinate on
/// `split_dim`, row id), so the split is deterministic. Coordinates
/// compare by `total_cmp` with `-0.0` folded into `0.0`, so the two zeros
/// tie (and fall to the row id) as under `partial_cmp`, and a NaN sorts
/// by its sign bit instead of panicking.
fn split_at_median(m: &Matrix, perm: &mut [u32], split_dim: usize) -> usize {
    let mid = perm.len() / 2;
    perm.select_nth_unstable_by(mid, |&a, &b| {
        let (x, y) = (m.get(a as usize, split_dim), m.get(b as usize, split_dim));
        (x + 0.0).total_cmp(&(y + 0.0)).then(a.cmp(&b))
    });
    mid
}

/// Recursively builds the subtree over `perm` (which starts at global
/// position `global_lo` of the full permutation) below `parent`,
/// returning its node index within `parts`.
fn build_subtree(
    m: &Matrix,
    perm: &mut [u32],
    global_lo: usize,
    parent: u32,
    parts: &mut TreeParts,
) -> u32 {
    let idx = parts.nodes.len() as u32;
    let len = perm.len();
    parts.nodes.push(Node {
        parent,
        left: NONE,
        right: NONE,
        start: global_lo as u32,
        end: (global_lo + len) as u32,
        live: len as u32,
    });
    push_bbox(m, perm, &mut parts.bb_lo, &mut parts.bb_hi);
    let dims = m.n_cols();
    let bb_at = idx as usize * dims;
    let (split_dim, split_width) = widest_dim(
        &parts.bb_lo[bb_at..bb_at + dims],
        &parts.bb_hi[bb_at..bb_at + dims],
    );
    if len <= LEAF_SIZE || split_width <= 0.0 {
        return idx;
    }
    let mid = split_at_median(m, perm, split_dim);
    let (lo_half, hi_half) = perm.split_at_mut(mid);
    let left = build_subtree(m, lo_half, global_lo, idx, parts);
    let right = build_subtree(m, hi_half, global_lo + mid, idx, parts);
    parts.nodes[idx as usize].left = left;
    parts.nodes[idx as usize].right = right;
    idx
}
