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
//! * **Parallel build.** [`KdTree::build_with`] distributes the build over
//!   scoped threads and still produces a tree **equal in every field** to
//!   the sequential build: the top of the tree is expanded sequentially
//!   into a skeleton (median splits partition the permutation into
//!   disjoint ranges, so their results never depend on execution order),
//!   the frontier subtrees are built concurrently on disjoint
//!   `split_at_mut` slices, and a sequential pre-order emit pass splices
//!   the pieces with renumbered child/parent links — reproducing exactly
//!   the node numbering the single-threaded recursion assigns.
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use tclose_metrics::distance::sq_dist_dim;
use tclose_metrics::matrix::{Matrix, RowId};
use tclose_parallel::Parallelism;

/// Sentinel child/parent index meaning "none".
const NONE: u32 = u32::MAX;

/// Rows per leaf before a node stops splitting. Small enough that leaf
/// scans stay cheap, large enough that the tree (and its per-node bounding
/// boxes) stays shallow.
const LEAF_SIZE: usize = 16;

/// Minimum rows per worker before [`KdTree::build_with`] goes parallel —
/// below this the skeleton expansion and thread spawn cost more than the
/// concurrent subtree builds save.
const PARALLEL_BUILD_MIN_ROWS: usize = 8 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq)]
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
        Self::build_with(m, Parallelism::sequential())
    }

    /// [`build`](KdTree::build) with the subtree recursion distributed
    /// over scoped threads.
    ///
    /// The result is **equal in every field** to the sequential build —
    /// same node numbering, same bounding boxes, same permutation (see
    /// the module docs for why) — so the worker count can never change a
    /// query answer. Small matrices fall back to the sequential path.
    pub fn build_with(m: &Matrix, par: Parallelism) -> Self {
        let n = m.n_rows();
        let dims = m.n_cols();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut parts = TreeParts::default();
        if n > 0 {
            let workers = par.effective(n, PARALLEL_BUILD_MIN_ROWS);
            if workers <= 1 {
                build_subtree(m, &mut perm, 0, NONE, &mut parts);
            } else {
                build_parallel(m, &mut perm, workers, &mut parts);
            }
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

    /// The `count` live rows farthest from `point`, descending by distance
    /// (ties toward the lowest row id) — exactly the sequence repeated
    /// [`farthest_from`](KdTree::farthest_from) + removal would extract.
    /// Returns all live rows (so ordered) when `count` exceeds the live
    /// count.
    pub fn k_farthest(&self, point: &[f64], count: usize) -> Vec<RowId> {
        debug_assert_eq!(point.len(), self.dims);
        if count == 0 || self.n_live == 0 {
            return Vec::new();
        }
        let mut best: Vec<(f64, RowId)> = Vec::with_capacity(count.min(self.n_live) + 1);
        self.k_far_visit(0, point, count, &mut best);
        best.into_iter().map(|(_, id)| id).collect()
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

    /// List form of [`far_visit`](KdTree::far_visit): keeps the `count`
    /// farthest candidates, pruning on a **strict** max-bound comparison
    /// against the worst kept entry (an equally far row with a lower id
    /// could still enter the list).
    fn k_far_visit(&self, node: u32, point: &[f64], count: usize, best: &mut Vec<(f64, RowId)>) {
        let nd = self.nodes[node as usize];
        if nd.live == 0 {
            return;
        }
        if best.len() == count {
            let worst = best[best.len() - 1].0;
            if self.max_sq_dist_to_box(node, point) < worst {
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
                offer_far(best, count, sq_dist_dim(row, point), id);
            }
        } else {
            // Farther child first tightens the worst-kept bound sooner;
            // visit order never changes the result.
            let dl = self.max_sq_dist_to_box(nd.left, point);
            let dr = self.max_sq_dist_to_box(nd.right, point);
            if dl >= dr {
                self.k_far_visit(nd.left, point, count, best);
                self.k_far_visit(nd.right, point, count, best);
            } else {
                self.k_far_visit(nd.right, point, count, best);
                self.k_far_visit(nd.left, point, count, best);
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

/// [`offer`] for the farthest-candidates order: descending distance, ties
/// toward the **lowest** row id (the sequence repeated farthest-point
/// extraction produces). The worst kept entry is the last one — smallest
/// distance, then highest id.
#[inline]
fn offer_far(best: &mut Vec<(f64, RowId)>, count: usize, d: f64, id: RowId) {
    if best.len() == count {
        let (wd, wid) = best[best.len() - 1];
        if d < wd || (d == wd && id > wid) {
            return;
        }
        best.pop();
    }
    let at = best.partition_point(|&(bd, bid)| bd > d || (bd == d && bid < id));
    best.insert(at, (d, id));
}

/// A free-standing piece of tree: nodes numbered from 0 in pre-order with
/// **global** `start`/`end` ranges, plus the matching bounding boxes. The
/// sequential build produces one covering the whole tree; the parallel
/// build produces one per frontier subtree and splices them.
#[derive(Debug, Default)]
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
/// `split_dim`, row id) — the one deterministic split both the sequential
/// recursion and the parallel skeleton use.
fn split_at_median(m: &Matrix, perm: &mut [u32], split_dim: usize) -> usize {
    let mid = perm.len() / 2;
    perm.select_nth_unstable_by(mid, |&a, &b| {
        m.get(a as usize, split_dim)
            .partial_cmp(&m.get(b as usize, split_dim))
            .expect("finite coordinate")
            .then(a.cmp(&b))
    });
    mid
}

/// Recursively builds the subtree over `perm` (which starts at global
/// position `global_lo` of the full permutation), returning its node index
/// within `parts`. The subtree root's `parent` is stored verbatim; the
/// parallel splice rewrites it.
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

/// One entry of the sequentially expanded top-of-tree skeleton.
enum SkelEntry {
    /// An inner node the skeleton split itself: children are skeleton
    /// indices, the box was computed during expansion.
    Split {
        lo: usize,
        hi: usize,
        left: usize,
        right: usize,
        bb_lo: Vec<f64>,
        bb_hi: Vec<f64>,
    },
    /// A frontier range delegated to a concurrent `build_subtree` task
    /// (`task` indexes the in-range-order task list).
    Task { lo: usize, hi: usize, task: usize },
}

/// Parallel build: sequential skeleton expansion, concurrent frontier
/// subtree builds on disjoint permutation slices, sequential pre-order
/// splice. Produces exactly the `TreeParts` of `build_subtree` over the
/// whole permutation — median splits on disjoint ranges are independent,
/// and the splice renumbers each piece into the pre-order position the
/// sequential recursion would have given it.
fn build_parallel(m: &Matrix, perm: &mut [u32], workers: usize, parts: &mut TreeParts) {
    let n = perm.len();
    // Oversplit a little so one slow subtree cannot serialize the build.
    let target_tasks = workers * 4;
    let mut skel: Vec<SkelEntry> = vec![SkelEntry::Task {
        lo: 0,
        hi: n,
        task: usize::MAX,
    }];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::from([0]);
    let mut open = 1usize;
    while let Some(e) = queue.pop_front() {
        if open >= target_tasks {
            break;
        }
        let (lo, hi) = match skel[e] {
            SkelEntry::Task { lo, hi, .. } => (lo, hi),
            SkelEntry::Split { .. } => unreachable!("queued entries are unexpanded"),
        };
        let mut bb_lo = Vec::new();
        let mut bb_hi = Vec::new();
        push_bbox(m, &perm[lo..hi], &mut bb_lo, &mut bb_hi);
        let (split_dim, split_width) = widest_dim(&bb_lo, &bb_hi);
        if hi - lo <= LEAF_SIZE || split_width <= 0.0 {
            continue; // stays a frontier task (a leaf the task will emit)
        }
        let mid = lo + split_at_median(m, &mut perm[lo..hi], split_dim);
        let left = skel.len();
        skel.push(SkelEntry::Task {
            lo,
            hi: mid,
            task: usize::MAX,
        });
        let right = skel.len();
        skel.push(SkelEntry::Task {
            lo: mid,
            hi,
            task: usize::MAX,
        });
        skel[e] = SkelEntry::Split {
            lo,
            hi,
            left,
            right,
            bb_lo,
            bb_hi,
        };
        queue.push_back(left);
        queue.push_back(right);
        open += 1;
    }

    // Frontier tasks in range order tile [0, n); hand each its disjoint
    // mutable slice of the permutation.
    let mut frontier: Vec<usize> = (0..skel.len())
        .filter(|&i| matches!(skel[i], SkelEntry::Task { .. }))
        .collect();
    frontier.sort_by_key(|&i| match skel[i] {
        SkelEntry::Task { lo, .. } => lo,
        SkelEntry::Split { .. } => unreachable!(),
    });
    let mut slices: Vec<(usize, &mut [u32])> = Vec::with_capacity(frontier.len());
    let mut tail: &mut [u32] = perm;
    let mut consumed = 0usize;
    for (t, &f) in frontier.iter().enumerate() {
        let (lo, hi) = match &mut skel[f] {
            SkelEntry::Task { lo, hi, task } => {
                *task = t;
                (*lo, *hi)
            }
            SkelEntry::Split { .. } => unreachable!(),
        };
        debug_assert_eq!(lo, consumed, "frontier ranges must tile the permutation");
        let (piece, rest) = std::mem::take(&mut tail).split_at_mut(hi - lo);
        slices.push((lo, piece));
        tail = rest;
        consumed = hi;
    }
    debug_assert_eq!(consumed, n);

    // Scoped worker pool over an atomic task counter (same shape as
    // tclose_parallel::map_blocks, which cannot be reused here because its
    // closures take `&I`, not owned mutable slices).
    let n_tasks = slices.len();
    type BuildTask<'a> = (usize, &'a mut [u32]);
    let task_cells: Vec<Mutex<Option<BuildTask>>> =
        slices.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let out_cells: Vec<Mutex<Option<TreeParts>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n_tasks) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_tasks {
                    break;
                }
                let (global_lo, piece) = task_cells[i]
                    .lock()
                    .expect("task lock")
                    .take()
                    .expect("each task runs once");
                let mut local = TreeParts::default();
                build_subtree(m, piece, global_lo, NONE, &mut local);
                *out_cells[i].lock().expect("result lock") = Some(local);
            });
        }
    });
    let mut results: Vec<Option<TreeParts>> = out_cells
        .into_iter()
        .map(|c| {
            Some(
                c.into_inner()
                    .expect("result lock")
                    .expect("task completed"),
            )
        })
        .collect();
    emit(&skel, 0, NONE, &mut results, parts);
}

/// Pre-order emit of the skeleton: `Split` entries become nodes in place,
/// `Task` entries splice their pre-built parts with child/parent indices
/// shifted to their final positions. Visiting root, then the entire left
/// subtree, then the right reproduces the sequential numbering exactly.
fn emit(
    skel: &[SkelEntry],
    e: usize,
    parent: u32,
    results: &mut [Option<TreeParts>],
    parts: &mut TreeParts,
) -> u32 {
    match &skel[e] {
        SkelEntry::Split {
            lo,
            hi,
            left,
            right,
            bb_lo,
            bb_hi,
        } => {
            let idx = parts.nodes.len() as u32;
            parts.nodes.push(Node {
                parent,
                left: NONE,
                right: NONE,
                start: *lo as u32,
                end: *hi as u32,
                live: (*hi - *lo) as u32,
            });
            parts.bb_lo.extend_from_slice(bb_lo);
            parts.bb_hi.extend_from_slice(bb_hi);
            let l = emit(skel, *left, idx, results, parts);
            let r = emit(skel, *right, idx, results, parts);
            parts.nodes[idx as usize].left = l;
            parts.nodes[idx as usize].right = r;
            idx
        }
        SkelEntry::Task { task, .. } => {
            let piece = results[*task].take().expect("each piece spliced once");
            let offset = parts.nodes.len() as u32;
            let shift = |link: u32| if link == NONE { NONE } else { link + offset };
            for nd in piece.nodes {
                parts.nodes.push(Node {
                    parent: if nd.parent == NONE {
                        parent
                    } else {
                        nd.parent + offset
                    },
                    left: shift(nd.left),
                    right: shift(nd.right),
                    ..nd
                });
            }
            parts.bb_lo.extend(piece.bb_lo);
            parts.bb_hi.extend(piece.bb_hi);
            offset
        }
    }
}
