//! The BE×LC performance matrix (Fig. 7-II of the paper) and the sparse
//! delta representation the incremental replan path consumes.

use std::fmt;

use crate::error::ClusterError;

/// A labelled rows×cols matrix of estimated throughputs: entry `(i, j)` is
/// the predicted average throughput of best-effort app `i` when placed on
/// latency-critical server `j`.
///
/// A column may be **disabled** (server faulted out of the fleet): its
/// values read as zero and solvers must not place anything there. Freshly
/// built matrices have every column enabled; disabling happens through
/// [`PerfMatrix::patched`] with a [`MatrixDelta`].
#[derive(Debug, Clone, PartialEq)]
pub struct PerfMatrix {
    row_labels: Vec<String>,
    col_labels: Vec<String>,
    values: Vec<Vec<f64>>,
    /// `disabled[j]` — column `j` is out of the fleet. Empty ⇔ all enabled
    /// (the common case pays no memory).
    disabled: Vec<bool>,
    /// `col_max[j]` — the largest entry of column `j` (0.0 floor), kept
    /// exact through patches so [`PerfMatrix::max_value`] is O(cols).
    col_max: Vec<f64>,
}

/// The largest of `values`, with a 0.0 floor.
fn column_max(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |best, v| if v > best { v } else { best })
}

impl PerfMatrix {
    /// Builds a matrix from labels and row-major values.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidMatrix`] if empty, ragged, label
    /// counts mismatch, or any value is not finite and non-negative.
    pub fn new(
        row_labels: Vec<String>,
        col_labels: Vec<String>,
        values: Vec<Vec<f64>>,
    ) -> Result<Self, ClusterError> {
        if values.is_empty() || col_labels.is_empty() {
            return Err(ClusterError::InvalidMatrix("matrix is empty".into()));
        }
        if values.len() != row_labels.len() {
            return Err(ClusterError::InvalidMatrix(format!(
                "{} rows but {} row labels",
                values.len(),
                row_labels.len()
            )));
        }
        for row in &values {
            if row.len() != col_labels.len() {
                return Err(ClusterError::InvalidMatrix(format!(
                    "ragged row: {} entries, {} col labels",
                    row.len(),
                    col_labels.len()
                )));
            }
            for &v in row {
                if !v.is_finite() || v < 0.0 {
                    return Err(ClusterError::InvalidMatrix(format!(
                        "throughput {v} must be finite and non-negative"
                    )));
                }
            }
        }
        let col_max = (0..col_labels.len())
            .map(|j| column_max(values.iter().map(|row| row[j])))
            .collect();
        Ok(PerfMatrix {
            row_labels,
            col_labels,
            values,
            disabled: Vec::new(),
            col_max,
        })
    }

    /// Number of best-effort apps (rows).
    pub fn rows(&self) -> usize {
        self.values.len()
    }

    /// Number of servers (columns), enabled or not.
    pub fn cols(&self) -> usize {
        self.col_labels.len()
    }

    /// Number of columns still in the fleet.
    pub fn enabled_cols(&self) -> usize {
        if self.disabled.is_empty() {
            self.cols()
        } else {
            self.disabled.iter().filter(|&&d| !d).count()
        }
    }

    /// Whether column `j` has been disabled (server faulted out).
    pub fn is_col_disabled(&self, col: usize) -> bool {
        self.disabled.get(col).copied().unwrap_or(false)
    }

    /// Entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn value(&self, row: usize, col: usize) -> f64 {
        self.values[row][col]
    }

    /// One row as a slice — candidate scoring iterates rows without
    /// materializing anything.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn row(&self, row: usize) -> &[f64] {
        &self.values[row]
    }

    /// Iterates column `col` top-to-bottom without materializing it —
    /// bucketing and delta diffs walk columns through this.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn col_iter(&self, col: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(col < self.cols(), "column {col} out of range");
        self.values.iter().map(move |r| r[col])
    }

    /// The largest entry over enabled columns (0.0 if everything is
    /// disabled) — the auction's ε-scaling schedule starts here. O(cols):
    /// a max of the per-column maxima, which is exact.
    pub fn max_value(&self) -> f64 {
        column_max(
            self.col_max
                .iter()
                .enumerate()
                .filter(|&(j, _)| !self.is_col_disabled(j))
                .map(|(_, &m)| m),
        )
    }

    /// The raw row-major values.
    pub fn values(&self) -> &[Vec<f64>] {
        &self.values
    }

    /// Row (best-effort app) labels.
    pub fn row_labels(&self) -> &[String] {
        &self.row_labels
    }

    /// Column (server / LC app) labels.
    pub fn col_labels(&self) -> &[String] {
        &self.col_labels
    }

    /// Total value of an assignment given as `pairs[(row, col)]`.
    pub fn assignment_value(&self, pairs: &[(usize, usize)]) -> f64 {
        pairs.iter().map(|&(r, c)| self.values[r][c]).sum()
    }

    /// Applies a [`MatrixDelta`], returning the patched matrix. Disabled
    /// columns have their values zeroed and are excluded from placement.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range columns, wrong-length replacement columns, and
    /// non-finite or negative replacement values.
    pub fn patched(&self, delta: &MatrixDelta) -> Result<PerfMatrix, ClusterError> {
        let mut out = self.clone();
        out.patch(&mut delta.clone())?;
        Ok(out)
    }

    /// [`PerfMatrix::patched`] in place, in O(rows × edited columns). The
    /// whole delta is validated before anything is written, so on error
    /// the matrix is unchanged. Each `Set` edit swaps its values with the
    /// column's, so afterwards `delta` holds the replaced values: it and
    /// the returned undo are what [`PerfMatrix::restore`] needs to revert
    /// the patch.
    pub(crate) fn patch(&mut self, delta: &mut MatrixDelta) -> Result<MatrixUndo, ClusterError> {
        for (col, edit) in &delta.edits {
            if *col >= self.cols() {
                return Err(ClusterError::InvalidMatrix(format!(
                    "delta column {col} out of range ({} cols)",
                    self.cols()
                )));
            }
            if let ColumnEdit::Set(values) = edit {
                if values.len() != self.rows() {
                    return Err(ClusterError::InvalidMatrix(format!(
                        "delta column {col} has {} entries, matrix has {} rows",
                        values.len(),
                        self.rows()
                    )));
                }
                if let Some(v) = values.iter().find(|v| !v.is_finite() || **v < 0.0) {
                    return Err(ClusterError::InvalidMatrix(format!(
                        "delta throughput {v} must be finite and non-negative"
                    )));
                }
            }
        }
        let mut undo = MatrixUndo {
            cols: Vec::with_capacity(delta.len()),
            disabled_values: Vec::new(),
            all_enabled: self.disabled.is_empty(),
        };
        for (col, edit) in &mut delta.edits {
            let col = *col;
            undo.cols
                .push((col, self.col_max[col], self.is_col_disabled(col)));
            match edit {
                ColumnEdit::Set(values) => {
                    self.col_max[col] = column_max(values.iter().copied());
                    for (row, v) in self.values.iter_mut().zip(values.iter_mut()) {
                        std::mem::swap(&mut row[col], v);
                    }
                    if !self.disabled.is_empty() {
                        self.disabled[col] = false;
                    }
                }
                ColumnEdit::Disable => {
                    if self.disabled.is_empty() {
                        self.disabled = vec![false; self.cols()];
                    }
                    self.disabled[col] = true;
                    for row in &mut self.values {
                        undo.disabled_values.push(row[col]);
                        row[col] = 0.0;
                    }
                    self.col_max[col] = 0.0;
                }
            }
        }
        Ok(undo)
    }

    /// Reverts a [`PerfMatrix::patch`] bit for bit, given the delta it
    /// swapped values into and the undo it returned.
    pub(crate) fn restore(&mut self, delta: &mut MatrixDelta, undo: MatrixUndo) {
        let mut disabled_values = undo.disabled_values.chunks(self.rows());
        for ((_, edit), &(col, max, disabled)) in delta.edits.iter_mut().zip(&undo.cols) {
            match edit {
                ColumnEdit::Set(values) => {
                    for (row, v) in self.values.iter_mut().zip(values.iter_mut()) {
                        std::mem::swap(&mut row[col], v);
                    }
                }
                ColumnEdit::Disable => {
                    let old = disabled_values.next().expect("one undo column per disable");
                    for (row, &v) in self.values.iter_mut().zip(old) {
                        row[col] = v;
                    }
                }
            }
            self.col_max[col] = max;
            if let Some(d) = self.disabled.get_mut(col) {
                *d = disabled;
            }
        }
        if undo.all_enabled {
            self.disabled = Vec::new();
        }
    }

    /// Projects out disabled columns: returns the compacted matrix and the
    /// map from compact column index back to the original one. `None` when
    /// nothing is disabled (solvers run on `self` directly).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidMatrix`] when every column is
    /// disabled.
    pub fn compact_enabled(&self) -> Result<Option<(PerfMatrix, Vec<usize>)>, ClusterError> {
        if self.disabled.iter().all(|&d| !d) {
            return Ok(None);
        }
        let keep: Vec<usize> = (0..self.cols())
            .filter(|&j| !self.is_col_disabled(j))
            .collect();
        if keep.is_empty() {
            return Err(ClusterError::InvalidMatrix(
                "every column is disabled".into(),
            ));
        }
        let values: Vec<Vec<f64>> = self
            .values
            .iter()
            .map(|row| keep.iter().map(|&j| row[j]).collect())
            .collect();
        let compact = PerfMatrix::new(
            self.row_labels.clone(),
            keep.iter().map(|&j| self.col_labels[j].clone()).collect(),
            values,
        )?;
        Ok(Some((compact, keep)))
    }
}

/// What a [`PerfMatrix::patch`] overwrote besides the values it swapped
/// into the delta.
#[derive(Debug)]
pub(crate) struct MatrixUndo {
    /// `(col, old column max, was disabled)` per edit.
    cols: Vec<(usize, f64, bool)>,
    /// The old values of the disabled columns, one column after another.
    disabled_values: Vec<f64>,
    /// Whether no column was disabled before the patch.
    all_enabled: bool,
}

/// One column's worth of change in a [`MatrixDelta`].
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnEdit {
    /// The server's estimates changed (cap de-rate, model refit): the new
    /// column values, one per BE row. Re-enables a disabled column.
    Set(Vec<f64>),
    /// The server left the fleet (crash, maintenance): values read as zero
    /// and no BE may be placed there.
    Disable,
}

/// A sparse set of column edits between two replans — what changed since
/// the matrix was last solved, so the incremental solver can repair only
/// the dirtied part instead of re-solving from scratch.
///
/// Edits are column-oriented because every fleet event the replan loop
/// sees (per-server fault, per-server cap de-rate, a server's model refit)
/// dirties whole columns; BE-side changes (new candidate set) rebuild the
/// matrix outright.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixDelta {
    /// `(col, edit)`, sorted and unique by column.
    edits: Vec<(usize, ColumnEdit)>,
}

impl MatrixDelta {
    /// An empty delta (nothing changed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records new values for a column (builder style). A later edit for
    /// the same column replaces the earlier one.
    #[must_use]
    pub fn set_column(mut self, col: usize, values: Vec<f64>) -> Self {
        self.insert(col, ColumnEdit::Set(values));
        self
    }

    /// Records a column leaving the fleet (builder style).
    #[must_use]
    pub fn disable_column(mut self, col: usize) -> Self {
        self.insert(col, ColumnEdit::Disable);
        self
    }

    fn insert(&mut self, col: usize, edit: ColumnEdit) {
        match self.edits.binary_search_by_key(&col, |(c, _)| *c) {
            Ok(i) => self.edits[i].1 = edit,
            Err(i) => self.edits.insert(i, (col, edit)),
        }
    }

    /// The delta between two same-shape matrices: every column whose
    /// values or disabled state differ becomes an edit. `old.patched(&d)`
    /// then equals `new` up to the recorded columns.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidMatrix`] on shape or label mismatch.
    pub fn diff(old: &PerfMatrix, new: &PerfMatrix) -> Result<MatrixDelta, ClusterError> {
        if old.rows() != new.rows() || old.cols() != new.cols() {
            return Err(ClusterError::InvalidMatrix(format!(
                "cannot diff a {}x{} matrix against {}x{}",
                old.rows(),
                old.cols(),
                new.rows(),
                new.cols()
            )));
        }
        let mut delta = MatrixDelta::new();
        for col in 0..old.cols() {
            if new.is_col_disabled(col) {
                if !old.is_col_disabled(col) {
                    delta = delta.disable_column(col);
                }
                continue;
            }
            let changed = old.is_col_disabled(col)
                || old
                    .col_iter(col)
                    .zip(new.col_iter(col))
                    .any(|(a, b)| a != b);
            if changed {
                delta = delta.set_column(col, new.col_iter(col).collect());
            }
        }
        Ok(delta)
    }

    /// The edits, sorted by column.
    pub fn edits(&self) -> &[(usize, ColumnEdit)] {
        &self.edits
    }

    /// The dirtied column indices, ascending.
    pub fn dirty_cols(&self) -> impl Iterator<Item = usize> + '_ {
        self.edits.iter().map(|(c, _)| *c)
    }

    /// Number of dirtied columns.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }
}

impl fmt::Display for PerfMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>10}", "")?;
        for c in &self.col_labels {
            write!(f, " {c:>9}")?;
        }
        writeln!(f)?;
        for (r, row) in self.row_labels.iter().zip(&self.values) {
            write!(f, "{r:>10}")?;
            for v in row {
                write!(f, " {v:>9.4}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn matrix3() -> PerfMatrix {
        PerfMatrix::new(
            labels(&["a", "b"]),
            labels(&["x", "y", "z"]),
            vec![vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6]],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = PerfMatrix::new(
            labels(&["lstm", "graph"]),
            labels(&["sphinx", "xapian"]),
            vec![vec![0.5, 0.7], vec![0.9, 0.4]],
        )
        .unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.enabled_cols(), 2);
        assert_eq!(m.value(1, 0), 0.9);
        assert_eq!(m.row(0), &[0.5, 0.7]);
        assert_eq!(m.col_iter(1).collect::<Vec<_>>(), vec![0.7, 0.4]);
        assert_eq!(m.max_value(), 0.9);
        assert_eq!(m.assignment_value(&[(0, 1), (1, 0)]), 0.7 + 0.9);
    }

    #[test]
    fn validation() {
        assert!(PerfMatrix::new(labels(&[]), labels(&["a"]), vec![]).is_err());
        assert!(PerfMatrix::new(labels(&["x"]), labels(&["a", "b"]), vec![vec![1.0]]).is_err());
        assert!(PerfMatrix::new(labels(&["x"]), labels(&["a"]), vec![vec![-1.0]]).is_err());
        assert!(PerfMatrix::new(labels(&["x"]), labels(&["a"]), vec![vec![f64::NAN]]).is_err());
        assert!(PerfMatrix::new(labels(&["x", "y"]), labels(&["a"]), vec![vec![1.0]]).is_err());
    }

    #[test]
    fn display_contains_labels() {
        let m =
            PerfMatrix::new(labels(&["lstm"]), labels(&["sphinx"]), vec![vec![0.1234]]).unwrap();
        let s = m.to_string();
        assert!(s.contains("lstm") && s.contains("sphinx") && s.contains("0.1234"));
    }

    #[test]
    fn patched_set_and_disable() {
        let m = matrix3();
        let delta = MatrixDelta::new()
            .set_column(0, vec![1.0, 2.0])
            .disable_column(2);
        let p = m.patched(&delta).unwrap();
        assert_eq!(p.value(0, 0), 1.0);
        assert_eq!(p.value(1, 0), 2.0);
        assert_eq!(p.value(0, 1), 0.2, "untouched column survives");
        assert!(p.is_col_disabled(2));
        assert_eq!(p.value(0, 2), 0.0, "disabled column reads zero");
        assert_eq!(p.enabled_cols(), 2);
        // Re-enabling by setting fresh values.
        let back = p
            .patched(&MatrixDelta::new().set_column(2, vec![0.3, 0.6]))
            .unwrap();
        assert!(!back.is_col_disabled(2));
        assert_eq!(back.enabled_cols(), 3);
    }

    #[test]
    fn patched_rejects_bad_edits() {
        let m = matrix3();
        assert!(m.patched(&MatrixDelta::new().disable_column(9)).is_err());
        assert!(m
            .patched(&MatrixDelta::new().set_column(0, vec![1.0]))
            .is_err());
        assert!(m
            .patched(&MatrixDelta::new().set_column(0, vec![1.0, f64::NAN]))
            .is_err());
    }

    #[test]
    fn in_place_patch_restores_bit_for_bit() {
        let m = matrix3();
        let mut p = m.clone();
        let original = MatrixDelta::new()
            .set_column(0, vec![1.0, -0.0])
            .disable_column(2);
        let mut delta = original.clone();
        let undo = p.patch(&mut delta).unwrap();
        assert_eq!(p, m.patched(&original).unwrap());
        assert_eq!(p.max_value(), 1.0);
        p.restore(&mut delta, undo);
        assert_eq!(p, m);
        assert!(p.disabled.is_empty(), "all-enabled representation restored");
        assert_eq!(delta, original, "the delta gets its values back");
        // A later invalid edit rejects the whole delta before any write.
        let mut bad = MatrixDelta::new()
            .disable_column(0)
            .set_column(1, vec![0.5, f64::INFINITY]);
        assert!(p.patch(&mut bad).is_err());
        assert_eq!(p, m);
    }

    #[test]
    fn max_value_follows_patches() {
        let m = matrix3();
        let brute = |m: &PerfMatrix| {
            (0..m.cols())
                .filter(|&j| !m.is_col_disabled(j))
                .flat_map(|j| m.col_iter(j))
                .fold(0.0, f64::max)
        };
        let mut p = m.clone();
        for delta in [
            MatrixDelta::new().disable_column(2),
            MatrixDelta::new().set_column(1, vec![0.05, 0.9]),
            MatrixDelta::new().set_column(2, vec![7.0, 0.0]),
            MatrixDelta::new().disable_column(2).disable_column(1),
        ] {
            p = p.patched(&delta).unwrap();
            assert_eq!(p.max_value().to_bits(), brute(&p).to_bits());
        }
    }

    #[test]
    fn diff_finds_exactly_the_dirty_columns() {
        let m = matrix3();
        let delta = MatrixDelta::new()
            .set_column(1, vec![0.9, 0.8])
            .disable_column(2);
        let p = m.patched(&delta).unwrap();
        let d = MatrixDelta::diff(&m, &p).unwrap();
        assert_eq!(d.dirty_cols().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(d.len(), 2);
        assert!(MatrixDelta::diff(&m, &m).unwrap().is_empty());
        // Applying the recovered delta reproduces the patched matrix.
        assert_eq!(m.patched(&d).unwrap(), p);
    }

    #[test]
    fn compact_projects_out_disabled_columns() {
        let m = matrix3();
        assert!(m.compact_enabled().unwrap().is_none());
        let p = m.patched(&MatrixDelta::new().disable_column(1)).unwrap();
        let (compact, map) = p.compact_enabled().unwrap().unwrap();
        assert_eq!(compact.cols(), 2);
        assert_eq!(map, vec![0, 2]);
        assert_eq!(compact.value(1, 1), 0.6);
        assert_eq!(compact.col_labels(), &["x".to_string(), "z".to_string()]);
        // All-disabled is rejected.
        let dead = p
            .patched(&MatrixDelta::new().disable_column(0).disable_column(2))
            .unwrap();
        assert!(dead.compact_enabled().is_err());
    }

    #[test]
    fn delta_edits_replace_per_column() {
        let d = MatrixDelta::new()
            .disable_column(1)
            .set_column(1, vec![1.0, 2.0]);
        assert_eq!(d.len(), 1);
        assert!(matches!(d.edits()[0], (1, ColumnEdit::Set(_))));
    }
}
