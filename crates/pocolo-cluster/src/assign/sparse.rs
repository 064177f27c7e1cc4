//! Candidate pruning for fleet-scale assignment.
//!
//! A 10k-server fleet gives every BE row 10k candidate edges, but the
//! paper's own scaled-preference-vector insight (§IV-B: the *shape* of a
//! server's spare-capacity response is load-independent) means most
//! servers are near-duplicates of each other from any one BE's point of
//! view. [`SparseCandidates`] exploits that: it buckets columns by the
//! geometry of their scaled value profile (signed random projections over
//! the unit-max-normalized column vector), then emits per BE row a top-k
//! candidate edge list that always covers every occupied geometry bucket.
//!
//! Pruning is a heuristic; exactness comes from the auction solver's
//! certification loop, which widens a row's candidate list whenever the
//! dual prices prove a pruned edge could still matter (the escape hatch —
//! see [`crate::assign::auction`]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::assign::ranked::RankedPrefixes;
use crate::constraints::PlacementConstraints;
use crate::matrix::{ColumnEdit, MatrixDelta, PerfMatrix};

/// Fixed seed for the bucketing hyperplanes — candidate generation is
/// deterministic so replans and benches reproduce bit-identically.
const BUCKET_SEED: u64 = 0x5EED_CA7D;

/// Number of signed random projections: at most `2^PLANES` buckets, enough
/// to separate geometry classes without fragmenting small fleets.
const PLANES: usize = 6;

/// Geometry buckets over the columns of a matrix.
///
/// Each column's *scaled preference vector* (the column divided by its own
/// maximum — shape, not magnitude) is projected onto `PLANES` fixed
/// pseudo-random hyperplanes; the sign pattern is the bucket key. Columns
/// landing in the same bucket respond near-identically across the BE
/// candidates, so one representative per bucket is enough to keep every
/// geometry class reachable from every row's candidate list.
#[derive(Debug, Clone)]
pub struct ColumnBuckets {
    /// Bucket key per column.
    keys: Vec<u64>,
    /// One representative column per occupied bucket (the member with the
    /// largest unscaled norm), ascending by bucket key.
    reps: Vec<usize>,
}

impl ColumnBuckets {
    /// Buckets every column of `matrix`.
    pub fn build(matrix: &PerfMatrix) -> Self {
        let rows = matrix.rows();
        let cols = matrix.cols();
        let mut rng = StdRng::seed_from_u64(BUCKET_SEED);
        // PLANES hyperplanes over row-space, components in [-1, 1).
        let planes: Vec<Vec<f64>> = (0..PLANES)
            .map(|_| (0..rows).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let mut keys = vec![0u64; cols];
        let mut norm = vec![0.0f64; cols];
        for (j, (key, n)) in keys.iter_mut().zip(&mut norm).enumerate() {
            let mut peak = 0.0f64;
            for v in matrix.col_iter(j) {
                peak = peak.max(v);
                *n += v * v;
            }
            if peak <= 0.0 {
                // Zero (or disabled) column: its own degenerate bucket.
                *key = u64::MAX;
                continue;
            }
            for (p, plane) in planes.iter().enumerate() {
                let dot: f64 = matrix
                    .col_iter(j)
                    .zip(plane)
                    .map(|(v, h)| (v / peak) * h)
                    .sum();
                if dot >= 0.0 {
                    *key |= 1 << p;
                }
            }
        }
        // Representative per bucket: largest-norm member.
        let mut by_key: Vec<(u64, usize)> = keys
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k != u64::MAX)
            .map(|(j, &k)| (k, j))
            .collect();
        by_key.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| norm[b.1].partial_cmp(&norm[a.1]).expect("finite norms"))
        });
        let mut reps = Vec::new();
        let mut last = None;
        for (k, j) in by_key {
            if last != Some(k) {
                reps.push(j);
                last = Some(k);
            }
        }
        ColumnBuckets { keys, reps }
    }

    /// The representative columns, one per occupied bucket.
    pub fn representatives(&self) -> &[usize] {
        &self.reps
    }

    /// Number of occupied buckets.
    pub fn bucket_count(&self) -> usize {
        self.reps.len()
    }

    /// The bucket key of one column.
    pub fn key_of(&self, col: usize) -> u64 {
        self.keys[col]
    }
}

/// Per-row top-k candidate edge lists over a [`PerfMatrix`].
///
/// Each row's list holds `(col, value)` pairs, descending by value, over
/// enabled columns only: the row's k best columns plus the representative
/// of every geometry bucket the top-k missed (capped), so no geometry
/// class is unreachable. The auction solver bids only on these edges; its
/// certification loop calls [`SparseCandidates::ensure_edge`] /
/// [`SparseCandidates::widen`] when the dual prices prove the pruning cut
/// too deep.
#[derive(Debug, Clone)]
pub struct SparseCandidates {
    k: usize,
    cols: usize,
    /// Extra bucket-representative edges appended per row.
    bucket_cover: usize,
    rows: Vec<Vec<(usize, f64)>>,
    buckets: ColumnBuckets,
    /// Hard affinity/anti-affinity rules pruned at candidate-edge time:
    /// each column's server class plus the constraint set. `None` for
    /// unconstrained fleets (the legacy path).
    policy: Option<EdgePolicy>,
    /// Ranked prefixes of every row's enabled columns — the auction's
    /// certification index, kept in step with the lists' matrix.
    pub(crate) ranked: RankedPrefixes,
    /// Pre-checkpoint lists of the rows changed since
    /// [`SparseCandidates::checkpoint`].
    journal: Journal,
}

/// The undo log behind [`SparseCandidates::rollback`]: the first saved
/// version of each row changed since the checkpoint, copied into one
/// reused buffer.
#[derive(Debug, Clone, Default)]
struct Journal {
    active: bool,
    k: usize,
    /// Per row: whether its pre-checkpoint list is saved.
    saved: Vec<bool>,
    /// `(row, start, len)` spans of `edges`.
    spans: Vec<(usize, usize, usize)>,
    edges: Vec<(usize, f64)>,
}

impl Journal {
    /// Saves `list` as `row`'s pre-checkpoint version, once.
    fn save(&mut self, row: usize, list: &[(usize, f64)]) {
        if self.active && !self.saved[row] {
            self.saved[row] = true;
            self.spans.push((row, self.edges.len(), list.len()));
            self.edges.extend_from_slice(list);
        }
    }

    fn clear(&mut self) {
        self.active = false;
        self.saved.clear();
        self.spans.clear();
        self.edges.clear();
    }
}

/// Per-column class labels + the constraint set they are checked against.
#[derive(Debug, Clone)]
struct EdgePolicy {
    classes: Vec<usize>,
    constraints: PlacementConstraints,
}

/// How many bucket representatives (beyond the plain top-k) each row keeps.
const BUCKET_COVER: usize = 4;

impl SparseCandidates {
    /// Default list width for a fleet of `cols` servers: `log2(cols) + 8`,
    /// clamped to the fleet size. Deep enough that the certification loop
    /// almost never widens on realistically clustered fleets, shallow
    /// enough that a 10k-column row carries ~20 edges instead of 10k.
    pub fn default_k(cols: usize) -> usize {
        ((usize::BITS - cols.leading_zeros()) as usize + 8).min(cols)
    }

    /// Builds per-row candidate lists of width `k` (clamped to the column
    /// count) over the enabled columns of `matrix`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn build(matrix: &PerfMatrix, k: usize) -> Self {
        Self::build_with_policy(matrix, k, None)
    }

    /// Like [`SparseCandidates::build`], but prunes edges the hard
    /// affinity/anti-affinity `constraints` forbid at candidate-edge
    /// time: a forbidden `(row, class)` edge never enters a row's list —
    /// not through top-k selection, bucket coverage, certification
    /// splicing ([`SparseCandidates::ensure_edge`]), or a later delta.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or `classes` doesn't cover every column.
    pub fn build_constrained(
        matrix: &PerfMatrix,
        k: usize,
        classes: &[usize],
        constraints: &PlacementConstraints,
    ) -> Self {
        assert_eq!(
            classes.len(),
            matrix.cols(),
            "one server class per matrix column"
        );
        let policy = if constraints.is_empty() {
            None
        } else {
            Some(EdgePolicy {
                classes: classes.to_vec(),
                constraints: constraints.clone(),
            })
        };
        Self::build_with_policy(matrix, k, policy)
    }

    fn build_with_policy(matrix: &PerfMatrix, k: usize, policy: Option<EdgePolicy>) -> Self {
        assert!(k > 0, "candidate width k must be positive");
        let buckets = ColumnBuckets::build(matrix);
        let mut cands = SparseCandidates {
            k: k.min(matrix.cols()),
            cols: matrix.cols(),
            bucket_cover: BUCKET_COVER,
            rows: Vec::with_capacity(matrix.rows()),
            buckets,
            policy,
            ranked: RankedPrefixes::default(),
            journal: Journal::default(),
        };
        for row in 0..matrix.rows() {
            let list = cands.build_row(matrix, row);
            cands.rows.push(list);
        }
        cands
    }

    /// Whether the `(row, col)` edge is admissible under the constraint
    /// policy (always true for unconstrained fleets).
    pub fn edge_allowed(&self, row: usize, col: usize) -> bool {
        match &self.policy {
            None => true,
            Some(p) => p.constraints.allows(row, p.classes[col]),
        }
    }

    /// One row's `(col, value)` candidates, descending by value.
    pub fn row(&self, row: usize) -> &[(usize, f64)] {
        &self.rows[row]
    }

    /// The current list width.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of candidate edges across all rows.
    pub fn edge_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// The geometry buckets backing the candidate lists.
    pub fn buckets(&self) -> &ColumnBuckets {
        &self.buckets
    }

    fn build_row(&self, matrix: &PerfMatrix, row: usize) -> Vec<(usize, f64)> {
        let values = matrix.row(row);
        // Top-k selection: keep a small sorted (descending) buffer.
        let mut list: Vec<(usize, f64)> = Vec::with_capacity(self.k + self.bucket_cover);
        for (j, &v) in values.iter().enumerate() {
            if matrix.is_col_disabled(j) || !self.edge_allowed(row, j) {
                continue;
            }
            if list.len() < self.k {
                let at = list.partition_point(|&(_, lv)| lv >= v);
                list.insert(at, (j, v));
            } else if v > list[self.k - 1].1 {
                list.pop();
                let at = list.partition_point(|&(_, lv)| lv >= v);
                list.insert(at, (j, v));
            }
        }
        // Bucket coverage: the best few representatives whose bucket is
        // not already present, so pruning never hides a geometry class.
        let mut have: Vec<u64> = list.iter().map(|&(j, _)| self.buckets.key_of(j)).collect();
        let mut extras: Vec<(usize, f64)> = self
            .buckets
            .representatives()
            .iter()
            .filter(|&&j| {
                !matrix.is_col_disabled(j)
                    && self.edge_allowed(row, j)
                    && !have.contains(&self.buckets.key_of(j))
            })
            .map(|&j| (j, values[j]))
            .collect();
        extras.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).expect("finite values"));
        for (j, v) in extras.into_iter().take(self.bucket_cover) {
            let at = list.partition_point(|&(_, lv)| lv >= v);
            list.insert(at, (j, v));
            have.push(self.buckets.key_of(j));
        }
        list
    }

    /// Widens every row's list to `new_k` (rebuilding from the matrix).
    /// No-op when `new_k` does not exceed the current width.
    pub fn widen(&mut self, matrix: &PerfMatrix, new_k: usize) {
        let new_k = new_k.min(self.cols);
        if new_k <= self.k {
            return;
        }
        self.k = new_k;
        for row in 0..self.rows.len() {
            self.journal.save(row, &self.rows[row]);
            self.rows[row] = self.build_row(matrix, row);
        }
    }

    /// Guarantees `(row, col)` is present (certification found a pruned
    /// edge whose dual price proves it matters). Edges the constraint
    /// policy forbids are refused — a hard rule outranks the dual bound.
    pub fn ensure_edge(&mut self, row: usize, col: usize, value: f64) {
        if !self.edge_allowed(row, col) {
            return;
        }
        let list = &mut self.rows[row];
        if list.iter().any(|&(j, _)| j == col) {
            return;
        }
        self.journal.save(row, list);
        let at = list.partition_point(|&(_, lv)| lv >= value);
        list.insert(at, (col, value));
    }

    /// Starts recording changes so [`SparseCandidates::rollback`] can undo
    /// them. Only rows that change are copied.
    pub(crate) fn checkpoint(&mut self) {
        self.journal.clear();
        self.journal.active = true;
        self.journal.k = self.k;
        self.journal.saved.resize(self.rows.len(), false);
    }

    /// Keeps the changes made since [`SparseCandidates::checkpoint`].
    pub(crate) fn commit(&mut self) {
        self.journal.clear();
    }

    /// Restores the lists and width saved at the last
    /// [`SparseCandidates::checkpoint`]. The ranked prefixes are a cache
    /// of the matrix, so they are rebuilt on demand instead of restored.
    pub(crate) fn rollback(&mut self) {
        for &(row, start, len) in &self.journal.spans {
            self.rows[row].clear();
            self.rows[row].extend_from_slice(&self.journal.edges[start..start + len]);
        }
        self.k = self.journal.k;
        self.journal.clear();
        self.ranked.invalidate();
    }

    /// Applies a [`MatrixDelta`] to the candidate lists of the (already
    /// patched) `matrix`: values of dirtied columns are refreshed in every
    /// list containing them, disabled columns drop out, and a changed
    /// column that now beats a row's worst candidate is inserted. Returns
    /// the rows whose lists changed — the auction's dirty-row set. The
    /// ranked prefixes follow the same delta.
    ///
    /// Cost is O(rows · (k + |delta|)): each row scans its own short list
    /// plus one comparison per dirtied column — never the full matrix.
    pub fn apply_delta(&mut self, matrix: &PerfMatrix, delta: &MatrixDelta) -> Vec<usize> {
        let mut dirty = vec![false; self.cols];
        for (col, _) in delta.edits() {
            dirty[*col] = true;
        }
        // Which edited columns the row being patched lists, so an edit
        // asks "already listed?" in O(1) instead of scanning the list.
        let mut listed = vec![false; self.cols];
        let journal = &mut self.journal;
        let mut touched = Vec::new();
        for (row, list) in self.rows.iter_mut().enumerate() {
            let before = list.len();
            let mut changed = false;
            for &(j, _) in list.iter() {
                if dirty[j] {
                    listed[j] = true;
                    changed = true;
                }
            }
            if changed {
                journal.save(row, list);
                list.retain_mut(|(j, v)| {
                    if !dirty[*j] {
                        return true;
                    }
                    if matrix.is_col_disabled(*j) {
                        return false;
                    }
                    *v = matrix.value(row, *j);
                    true
                });
                list.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).expect("finite values"));
            }
            // Changed columns absent from the list may now belong in it.
            let floor = if list.len() >= self.k {
                list[self.k - 1].1
            } else {
                f64::NEG_INFINITY
            };
            for (col, edit) in delta.edits() {
                let was_listed = std::mem::take(&mut listed[*col]);
                if matches!(edit, ColumnEdit::Disable) || was_listed {
                    continue;
                }
                if let Some(p) = &self.policy {
                    if !p.constraints.allows(row, p.classes[*col]) {
                        continue;
                    }
                }
                let v = matrix.value(row, *col);
                if v > floor {
                    journal.save(row, list);
                    let at = list.partition_point(|&(_, lv)| lv >= v);
                    list.insert(at, (*col, v));
                    changed = true;
                }
            }
            // Lists eroded by disables refill lazily — only when more than
            // half the width is gone does the row rescan the matrix.
            if list.len() < self.k.div_ceil(2).max(1) {
                changed = true;
            }
            if changed || list.len() != before {
                touched.push(row);
            }
        }
        // Refill the eroded rows (borrow-split: compute outside the loop).
        let eroded: Vec<usize> = touched
            .iter()
            .copied()
            .filter(|&r| self.rows[r].len() < self.k.div_ceil(2).max(1))
            .collect();
        for row in eroded {
            self.journal.save(row, &self.rows[row]);
            self.rows[row] = self.build_row(matrix, row);
        }
        self.ranked.apply_delta(matrix, delta);
        touched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(values: Vec<Vec<f64>>) -> PerfMatrix {
        let rows = values.len();
        let cols = values[0].len();
        PerfMatrix::new(
            (0..rows).map(|i| format!("be{i}")).collect(),
            (0..cols).map(|j| format!("lc{j}")).collect(),
            values,
        )
        .unwrap()
    }

    fn clustered(rows: usize, cols: usize, classes: usize, seed: u64) -> PerfMatrix {
        // `classes` geometry classes: servers in a class share a profile
        // shape, scaled by a per-server magnitude.
        let mut rng = StdRng::seed_from_u64(seed);
        let profiles: Vec<Vec<f64>> = (0..classes)
            .map(|_| (0..rows).map(|_| rng.gen_range(0.1..1.0)).collect())
            .collect();
        let mut values = vec![vec![0.0; cols]; rows];
        for j in 0..cols {
            let p = &profiles[j % classes];
            let scale = rng.gen_range(0.5..1.0);
            for (i, row) in values.iter_mut().enumerate() {
                row[j] = p[i] * scale;
            }
        }
        matrix(values)
    }

    #[test]
    fn top_k_lists_are_sorted_and_capped() {
        let m = clustered(6, 40, 4, 1);
        let c = SparseCandidates::build(&m, 5);
        for row in 0..6 {
            let list = c.row(row);
            assert!(list.len() >= 5 && list.len() <= 5 + BUCKET_COVER);
            assert!(list.windows(2).all(|w| w[0].1 >= w[1].1), "descending");
            let mut cols: Vec<usize> = list.iter().map(|&(j, _)| j).collect();
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(cols.len(), list.len(), "no duplicate columns");
            // The true row maximum always survives pruning.
            let best = (0..40)
                .max_by(|&a, &b| m.value(row, a).partial_cmp(&m.value(row, b)).unwrap())
                .unwrap();
            assert!(list.iter().any(|&(j, _)| j == best));
        }
    }

    #[test]
    fn same_shape_columns_share_buckets() {
        // Two exact-duplicate shape classes must land in two buckets.
        let m = matrix(vec![vec![1.0, 0.5, 0.2, 0.1], vec![0.2, 0.1, 0.9, 0.45]]);
        let b = ColumnBuckets::build(&m);
        assert_eq!(b.key_of(0), b.key_of(1), "scaled twins share a bucket");
        assert_eq!(b.key_of(2), b.key_of(3));
        assert_ne!(b.key_of(0), b.key_of(2), "distinct shapes separate");
        assert_eq!(b.bucket_count(), 2);
    }

    #[test]
    fn bucket_cover_keeps_minority_class_reachable() {
        // 19 columns of one shape the row loves, 1 column of another shape
        // with low value for this row: top-k alone would drop it; bucket
        // coverage keeps it.
        let rows = 3;
        let mut values = vec![vec![0.0; 20]; rows];
        for (j, v) in values[0].iter_mut().enumerate().take(19) {
            *v = 0.9 - j as f64 * 0.01;
        }
        for (j, v) in values[1].iter_mut().enumerate().take(19) {
            *v = 0.45 - j as f64 * 0.005;
        }
        for v in values[2].iter_mut().take(19) {
            *v = 0.09;
        }
        values[0][19] = 0.05;
        values[1][19] = 0.5;
        values[2][19] = 0.9;
        let m = matrix(values);
        let c = SparseCandidates::build(&m, 4);
        assert!(
            c.row(0).iter().any(|&(j, _)| j == 19),
            "minority-bucket representative is in row 0's list: {:?}",
            c.row(0)
        );
    }

    #[test]
    fn widen_extends_lists() {
        let m = clustered(4, 30, 3, 2);
        let mut c = SparseCandidates::build(&m, 3);
        let before = c.edge_count();
        c.widen(&m, 10);
        assert_eq!(c.k(), 10);
        assert!(c.edge_count() > before);
        c.widen(&m, 5); // no-op shrink
        assert_eq!(c.k(), 10);
        c.widen(&m, 1000); // clamped to cols
        assert_eq!(c.k(), 30);
        for row in 0..4 {
            assert_eq!(c.row(row).len(), 30, "full width covers every column");
        }
    }

    #[test]
    fn ensure_edge_inserts_once_in_order() {
        let m = clustered(2, 10, 2, 3);
        let mut c = SparseCandidates::build(&m, 2);
        let missing = (0..10)
            .find(|&j| !c.row(0).iter().any(|&(cj, _)| cj == j))
            .unwrap();
        let n = c.row(0).len();
        c.ensure_edge(0, missing, m.value(0, missing));
        assert_eq!(c.row(0).len(), n + 1);
        c.ensure_edge(0, missing, m.value(0, missing));
        assert_eq!(c.row(0).len(), n + 1, "idempotent");
        assert!(c.row(0).windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn apply_delta_touches_only_affected_rows() {
        let m = clustered(8, 40, 4, 4);
        let mut c = SparseCandidates::build(&m, 6);
        // Pick a column and bump it above everything: every row is touched.
        let delta = MatrixDelta::new().set_column(7, vec![2.0; 8]);
        let patched = m.patched(&delta).unwrap();
        let touched = c.apply_delta(&patched, &delta);
        assert_eq!(touched.len(), 8, "a now-dominant column enters every row");
        for row in 0..8 {
            assert_eq!(c.row(row)[0], (7, 2.0));
        }
        // Disable it again: every row that listed it is touched and drops it.
        let delta2 = MatrixDelta::new().disable_column(7);
        let patched2 = patched.patched(&delta2).unwrap();
        let touched2 = c.apply_delta(&patched2, &delta2);
        assert_eq!(touched2.len(), 8);
        for row in 0..8 {
            assert!(!c.row(row).iter().any(|&(j, _)| j == 7));
            assert!(c.row(row).len() >= 3, "lazy refill keeps lists usable");
        }
        // A delta over a column nobody lists and nobody wants touches no row.
        let worst = (0..40)
            .filter(|&j| j != 7)
            .min_by(|&a, &b| {
                let sa: f64 = (0..8).map(|i| patched2.value(i, a)).sum();
                let sb: f64 = (0..8).map(|i| patched2.value(i, b)).sum();
                sa.partial_cmp(&sb).unwrap()
            })
            .unwrap();
        if !(0..8).any(|r| c.row(r).iter().any(|&(j, _)| j == worst)) {
            let tiny = MatrixDelta::new().set_column(worst, vec![1e-6; 8]);
            let patched3 = patched2.patched(&tiny).unwrap();
            let touched3 = c.apply_delta(&patched3, &tiny);
            assert!(
                touched3.is_empty(),
                "unlisted, unwanted column: no rows touched"
            );
        }
    }

    #[test]
    fn rollback_restores_lists_and_width() {
        let m = clustered(6, 30, 3, 8);
        let mut c = SparseCandidates::build(&m, 4);
        let before: Vec<Vec<(usize, f64)>> = (0..6).map(|r| c.row(r).to_vec()).collect();
        c.checkpoint();
        let delta = MatrixDelta::new()
            .disable_column(c.row(0)[0].0)
            .set_column(29, vec![3.0; 6]);
        let patched = m.patched(&delta).unwrap();
        assert!(!c.apply_delta(&patched, &delta).is_empty());
        let missing = (0..30)
            .find(|&j| !c.row(1).iter().any(|&(cj, _)| cj == j))
            .unwrap();
        c.ensure_edge(1, missing, patched.value(1, missing));
        c.widen(&patched, 8);
        c.rollback();
        assert_eq!(c.k(), 4);
        for (r, list) in before.iter().enumerate() {
            assert_eq!(c.row(r), list.as_slice(), "row {r}");
        }
        // A rollback returns to the last committed state.
        c.checkpoint();
        c.widen(&m, 8);
        c.commit();
        let committed: Vec<Vec<(usize, f64)>> = (0..6).map(|r| c.row(r).to_vec()).collect();
        c.checkpoint();
        let missing = (0..30)
            .find(|&j| !c.row(2).iter().any(|&(cj, _)| cj == j))
            .unwrap();
        c.ensure_edge(2, missing, 9.0);
        assert_ne!(c.row(2), committed[2].as_slice());
        c.rollback();
        assert_eq!(c.k(), 8);
        for (r, list) in committed.iter().enumerate() {
            assert_eq!(c.row(r), list.as_slice(), "row {r}");
        }
    }

    #[test]
    fn default_k_scales_logarithmically() {
        assert_eq!(SparseCandidates::default_k(4), 4);
        assert!(SparseCandidates::default_k(1000) <= 20);
        assert!(SparseCandidates::default_k(10_000) <= 24);
        assert!(SparseCandidates::default_k(10_000) >= 16);
    }

    #[test]
    fn forbidden_edges_are_pruned_at_candidate_time() {
        let m = clustered(4, 12, 3, 6);
        // Columns alternate classes 0/1/2; row 0 may never touch class 1,
        // row 2 is pinned to class 2.
        let classes: Vec<usize> = (0..12).map(|j| j % 3).collect();
        let rules = PlacementConstraints::new().forbid(0, 1).require(2, 2);
        let mut c = SparseCandidates::build_constrained(&m, 12, &classes, &rules);
        for &(j, _) in c.row(0) {
            assert_ne!(classes[j], 1, "forbidden class in row 0's list");
        }
        for &(j, _) in c.row(2) {
            assert_eq!(classes[j], 2, "required row lists only its class");
        }
        assert!(!c.row(1).is_empty(), "unconstrained rows keep full lists");
        // Certification splicing cannot force a forbidden edge back in.
        let banned = classes.iter().position(|&cl| cl == 1).unwrap();
        let before = c.row(0).len();
        c.ensure_edge(0, banned, 10.0);
        assert_eq!(c.row(0).len(), before, "ensure_edge refused the edge");
        assert!(c.edge_allowed(1, banned) && !c.edge_allowed(0, banned));
        // A delta bumping a forbidden column never inserts it either.
        let delta = MatrixDelta::new().set_column(banned, vec![5.0; 4]);
        let patched = m.patched(&delta).unwrap();
        c.apply_delta(&patched, &delta);
        assert!(!c.row(0).iter().any(|&(j, _)| j == banned));
        assert!(
            c.row(1).iter().any(|&(j, _)| j == banned),
            "allowed rows get it"
        );
    }

    #[test]
    fn empty_constraints_match_unconstrained_build() {
        let m = clustered(4, 20, 3, 7);
        let classes: Vec<usize> = (0..20).map(|j| j % 3).collect();
        let plain = SparseCandidates::build(&m, 6);
        let constrained =
            SparseCandidates::build_constrained(&m, 6, &classes, &PlacementConstraints::new());
        for row in 0..4 {
            assert_eq!(plain.row(row), constrained.row(row));
        }
    }

    #[test]
    fn disabled_columns_never_enter_lists() {
        let m = clustered(4, 12, 3, 5);
        let delta = MatrixDelta::new().disable_column(0).disable_column(5);
        let p = m.patched(&delta).unwrap();
        let c = SparseCandidates::build(&p, 12);
        for row in 0..4 {
            assert!(c.row(row).iter().all(|&(j, _)| j != 0 && j != 5));
            assert_eq!(c.row(row).len(), 10);
        }
    }
}
