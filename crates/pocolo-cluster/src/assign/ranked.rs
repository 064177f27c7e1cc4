//! Ranked column prefixes: the index behind the auction's exact sparse
//! certification ([`crate::assign::auction`]).
//!
//! Certification needs, per row, the best profit `v_ij − p_j` over every
//! enabled column. Unowned columns carry price zero (DESIGN.md §8), so
//! among them the best profit is simply the best *value* — the first
//! unowned column in the row's enabled columns ordered by (value desc,
//! column asc). Each row keeps a prefix of that order about `2 · rows`
//! wide. At most `rows` columns are owned, so a full-width prefix always
//! holds an unowned one; a prefix eroded by disabled columns is refilled
//! from the matrix only when a walk runs out of it.

use crate::matrix::{ColumnEdit, MatrixDelta, PerfMatrix};

/// Prefix width per matrix row: twice the row count leaves `rows` spare
/// entries for disables to erode before a refill.
const WIDTH_PER_ROW: usize = 2;

/// One row's ranked prefix. Invariant: `cols` is sorted by (value desc,
/// column asc) over the current matrix, holds enabled columns only, and
/// every enabled column not in it ranks after its last entry. Empty and
/// not `complete` means "not built". Columns are stored as `u32`: a
/// fleet has fewer than 2³² servers.
#[derive(Debug, Clone, Default)]
struct Prefix {
    cols: Vec<u32>,
    /// `cols` holds every enabled column of the row.
    complete: bool,
}

/// Per-row ranked prefixes over one matrix, built lazily and patched by
/// [`MatrixDelta`]s.
#[derive(Debug, Clone, Default)]
pub(crate) struct RankedPrefixes {
    rows: Vec<Prefix>,
    /// Reused selection buffer of [`rank_key`]s (empty between rebuilds).
    scratch: Vec<u128>,
    /// Rebuilds of a row whose prefix had run out.
    #[cfg(test)]
    pub(crate) refills: usize,
}

/// A sort key that orders entries by (value desc, column asc): matrix
/// values are finite and non-negative, so once -0.0 is folded into 0.0
/// their bit patterns order like the values; the low 32 bits carry the
/// column.
fn rank_key(value: f64, col: usize) -> u128 {
    let bits = if value == 0.0 { 0 } else { value.to_bits() };
    (u128::from(!bits) << 32) | col as u128
}

impl RankedPrefixes {
    /// Forgets every prefix; rows rebuild on their next walk.
    pub(crate) fn invalidate(&mut self) {
        for p in &mut self.rows {
            p.cols.clear();
            p.complete = false;
        }
    }

    /// The lowest-ranked unowned enabled column of `row` — the unowned
    /// column with the largest value, lowest index on ties — or `None`
    /// when every enabled column is owned. Adds the entries read (prefix
    /// walk plus any rebuild) to `reads`.
    pub(crate) fn best_unowned(
        &mut self,
        matrix: &PerfMatrix,
        row: usize,
        owner: &[Option<usize>],
        reads: &mut u64,
    ) -> Option<usize> {
        if self.rows.len() != matrix.rows() {
            self.rows = vec![Prefix::default(); matrix.rows()];
        }
        loop {
            let p = &self.rows[row];
            if let Some(i) = p.cols.iter().position(|&c| owner[c as usize].is_none()) {
                *reads += i as u64 + 1;
                return Some(p.cols[i] as usize);
            }
            *reads += p.cols.len() as u64;
            if p.complete {
                return None;
            }
            // A full-width rebuild holds more columns than can be owned,
            // so the next walk ends.
            *reads += self.rebuild(matrix, row) as u64;
        }
    }

    /// Rebuilds `row`'s prefix from the matrix; returns the entries read.
    fn rebuild(&mut self, matrix: &PerfMatrix, row: usize) -> usize {
        let values = matrix.row(row);
        let scratch = &mut self.scratch;
        scratch.extend(
            (0..matrix.cols())
                .filter(|&j| !matrix.is_col_disabled(j))
                .map(|j| rank_key(values[j], j)),
        );
        let enabled = scratch.len();
        let width = (WIDTH_PER_ROW * matrix.rows()).min(enabled);
        if width < enabled {
            scratch.select_nth_unstable(width);
        }
        scratch[..width].sort_unstable();
        let p = &mut self.rows[row];
        #[cfg(test)]
        if !p.cols.is_empty() {
            self.refills += 1;
        }
        p.cols.clear();
        p.cols
            .extend(scratch[..width].iter().map(|&key| key as u32));
        p.complete = width == enabled;
        scratch.clear();
        enabled
    }

    /// Brings every built prefix up to date with `delta` over the patched
    /// `matrix`: edited columns are dropped, then re-inserted where they
    /// now rank if that is inside the prefix. A delta editing so many
    /// columns that patching would cost more than rebuilding invalidates
    /// instead.
    pub(crate) fn apply_delta(&mut self, matrix: &PerfMatrix, delta: &MatrixDelta) {
        if delta.is_empty() {
            return;
        }
        let width = WIDTH_PER_ROW * matrix.rows();
        if delta.len() * width >= matrix.cols() {
            self.invalidate();
            return;
        }
        for (row, p) in self.rows.iter_mut().enumerate() {
            if p.cols.is_empty() && !p.complete {
                continue;
            }
            let values = matrix.row(row);
            for col in delta.dirty_cols() {
                if let Some(i) = p.cols.iter().position(|&c| c == col as u32) {
                    p.cols.remove(i);
                }
            }
            // An edited column comes back in if it ranks before the last
            // entry, or anywhere in a complete prefix. A full prefix drops
            // its last entry to make room: it stays a prefix, and its
            // buffer never grows.
            for (col, edit) in delta.edits() {
                let col = *col;
                if matches!(edit, ColumnEdit::Disable) {
                    continue;
                }
                let key = rank_key(values[col], col);
                let rank = |c: &u32| rank_key(values[*c as usize], *c as usize);
                if p.complete || p.cols.last().is_some_and(|l| key < rank(l)) {
                    if !p.complete && p.cols.len() >= width {
                        p.cols.pop();
                    }
                    let at = p.cols.partition_point(|c| rank(c) < key);
                    p.cols.insert(at, col as u32);
                }
            }
        }
    }
}
