//! Forward-auction assignment with ε-scaling over sparse candidate lists.
//!
//! The dense exact solvers (Hungarian, simplex LP) re-solve from scratch
//! and touch every matrix entry; at fleet scale (10k servers × 500 BE
//! apps) that is the replan-loop bottleneck the ROADMAP calls out. The
//! auction algorithm (Bertsekas-style) instead lets each unassigned BE row
//! *bid* for its most profitable server — profit = value − price — raising
//! that server's price by the bid increment plus ε. At termination the
//! assignment satisfies ε-complementary slackness, which bounds the gap to
//! the true optimum by ε per row.
//!
//! Three properties make it the scale path:
//!
//! * **Sparsity.** Bids scan only the row's [`SparseCandidates`] list
//!   (~k ≈ log₂(cols) + 8 edges), not the dense row. Certification (below)
//!   restores exactness when pruning cut too deep.
//! * **Warm starts.** Prices are a dual solution; re-running from the
//!   previous replan's prices after a small change converges in a handful
//!   of bids instead of a full ε-scaling schedule.
//! * **Incremental repair.** [`solve_incremental`] keeps every pair whose
//!   column the [`MatrixDelta`] did not dirty, re-bids only the dirtied
//!   rows, and its work is O(k · dirtied rows) — counted, not timed, so CI
//!   can assert the bound without wall-clock flakiness.
//!
//! **Certification.** Prices give a feasible dual: with unassigned-column
//! prices read as zero, `π_i = max_j (v_ij − p_j)` over *all* enabled
//! columns makes `Σπ_i + Σ_{assigned j} p_j` an upper bound on the
//! optimum. If the bound exceeds the auction total by more than ε·rows,
//! the violating rows' best off-list edges are spliced into their
//! candidate lists ([`SparseCandidates::ensure_edge`]) and those rows
//! re-bid — the exactness escape hatch. A price crossing the feasibility
//! ceiling means the pruned graph has no perfect matching (e.g. k columns
//! shared by k+1 rows): the engine widens k and restarts.
//!
//! The sweep never reads a whole row. Unowned columns cost zero, so
//! `π_i = max(max over owned j of (v_ij − p_j), best unowned enabled
//! v_ij)`: the first term reads the ≤ rows owned columns, the second walks
//! the row's ranked prefix (enabled columns by value desc, column asc,
//! 2·rows wide, patched from each delta and refilled only when a walk runs
//! out of it) to its first unowned column. Each row's `(π_i, column)`,
//! lowest column on ties, equals the dense sweep's, so a sweep costs
//! O(rows · (rows + prefix)) whatever the fleet width, and its result is
//! bit-identical.

use std::collections::VecDeque;

use crate::assign::sparse::SparseCandidates;
use crate::assign::Assignment;
use crate::error::ClusterError;
use crate::matrix::{MatrixDelta, PerfMatrix};

/// Default ε: with paper-scale throughputs (≈0..1) this keeps the
/// per-row optimality loss three orders of magnitude below the signal.
pub const DEFAULT_EPS: f64 = 1e-3;

/// Tuning knobs for the auction engine.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionConfig {
    /// Final ε: the per-row optimality tolerance.
    pub eps: f64,
    /// ε-scaling factor: each phase divides ε by `theta` until `eps`.
    pub theta: f64,
    /// Run the dual-bound certification/repair loop after bidding.
    pub certify: bool,
    /// Certification repair rounds before the full-width fallback.
    pub max_widen: usize,
    /// Initial candidate-list width; `None` = [`SparseCandidates::default_k`].
    pub k0: Option<usize>,
}

impl Default for AuctionConfig {
    fn default() -> Self {
        AuctionConfig {
            eps: DEFAULT_EPS,
            theta: 4.0,
            certify: true,
            max_widen: 16,
            k0: None,
        }
    }
}

impl AuctionConfig {
    /// The default configuration with a custom ε.
    pub fn with_eps(eps: f64) -> Self {
        AuctionConfig {
            eps,
            ..AuctionConfig::default()
        }
    }
}

/// Operation counters — the timing-independent evidence for the scale
/// claims (mirrors the PR 1 `min_power_solves_on_thread` pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuctionStats {
    /// Bid operations (one row picking its best candidate).
    pub bids: u64,
    /// Candidate edges scanned while bidding — the headline counter the
    /// incremental O(k · dirtied rows) bound is asserted against.
    pub bid_edges: u64,
    /// Dense edges scanned by certification sweeps.
    pub cert_edges: u64,
    /// ε-scaling phases run.
    pub phases: u32,
    /// Candidate-list widenings (certification splices + restarts).
    pub widen_rounds: u32,
    /// Rows the last incremental repair had to re-bid.
    pub dirty_rows: usize,
}

/// An auction result: the assignment plus the dual state needed to
/// warm-start the next replan.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionSolution {
    /// The placement, pairs sorted by row.
    pub assignment: Assignment,
    /// Final column prices — the warm-start state.
    pub prices: Vec<f64>,
    /// The ε the solution satisfies ε-complementary slackness for.
    pub eps: f64,
    /// Whether the dual bound certified `total ≥ optimum − eps·rows`.
    pub certified: bool,
    /// Operation counters.
    pub stats: AuctionStats,
}

/// Why a bidding phase stopped early.
enum Abort {
    /// A price crossed the feasibility ceiling: the sparse graph has no
    /// perfect matching — widen and restart.
    Ceiling,
    /// A row had no enabled candidates at all.
    Starved,
}

struct Engine<'a> {
    matrix: &'a PerfMatrix,
    cfg: &'a AuctionConfig,
    vmax: f64,
    ceiling: f64,
    prices: Vec<f64>,
    /// Column assigned to each row.
    assigned: Vec<Option<usize>>,
    /// Row owning each column.
    owner: Vec<Option<usize>>,
    queue: VecDeque<usize>,
    certified: bool,
    stats: AuctionStats,
}

impl<'a> Engine<'a> {
    fn new(matrix: &'a PerfMatrix, cfg: &'a AuctionConfig, prices: Vec<f64>) -> Self {
        let vmax = matrix.max_value();
        let rows = matrix.rows() as f64;
        let p0 = prices.iter().cloned().fold(0.0f64, f64::max);
        Engine {
            matrix,
            cfg,
            vmax,
            // Feasible-auction price bound: initial + (rows+1)(vmax + ε₀).
            ceiling: p0 + (rows + 1.0) * (vmax + vmax / 2.0 + cfg.eps) + 1.0,
            prices,
            assigned: vec![None; matrix.rows()],
            owner: vec![None; matrix.cols()],
            queue: VecDeque::new(),
            certified: false,
            stats: AuctionStats::default(),
        }
    }

    fn unassign(&mut self, row: usize) {
        if let Some(col) = self.assigned[row].take() {
            self.owner[col] = None;
            // A vacated column must not keep its stale price: certification
            // counts unassigned columns at zero, and re-bidding rows must
            // see the same number or the repair loop cannot converge.
            self.prices[col] = 0.0;
        }
        self.queue.push_back(row);
    }

    fn reset_assignment(&mut self) {
        self.assigned.fill(None);
        self.owner.fill(None);
        self.queue.clear();
        self.queue.extend(0..self.matrix.rows());
    }

    /// One Gauss-Seidel bidding phase at a fixed ε: drain the unassigned
    /// queue, each row bidding on its best candidate.
    fn bid_phase(&mut self, cands: &SparseCandidates, eps: f64) -> Result<(), Abort> {
        self.stats.phases += 1;
        while let Some(row) = self.queue.pop_front() {
            let list = cands.row(row);
            self.stats.bids += 1;
            self.stats.bid_edges += list.len() as u64;
            let mut best = f64::NEG_INFINITY;
            let mut best_col = usize::MAX;
            let mut second = f64::NEG_INFINITY;
            for &(col, value) in list {
                let profit = value - self.prices[col];
                if profit > best {
                    second = best;
                    best = profit;
                    best_col = col;
                } else if profit > second {
                    second = profit;
                }
            }
            if best_col == usize::MAX {
                self.queue.push_front(row);
                return Err(Abort::Starved);
            }
            if second == f64::NEG_INFINITY {
                // Lone candidate: bid decisively.
                second = best - (self.vmax + eps);
            }
            let bid = self.prices[best_col] + (best - second) + eps;
            if bid > self.ceiling {
                self.queue.push_front(row);
                return Err(Abort::Ceiling);
            }
            if let Some(evicted) = self.owner[best_col].replace(row) {
                self.assigned[evicted] = None;
                self.queue.push_back(evicted);
            }
            self.assigned[row] = Some(best_col);
            self.prices[best_col] = bid;
        }
        Ok(())
    }

    /// The full ε-scaling schedule: phases at ε = vmax/2, vmax/2θ, …
    /// down to the configured final ε, keeping prices across phases.
    fn run_scaled(&mut self, cands: &SparseCandidates) -> Result<(), Abort> {
        let mut eps = self.vmax / 2.0;
        while eps > self.cfg.eps {
            self.reset_assignment();
            self.bid_phase(cands, eps)?;
            eps /= self.cfg.theta;
        }
        self.reset_assignment();
        self.bid_phase(cands, self.cfg.eps)
    }

    /// Pruning infeasibility: double the candidate width, reset the dual
    /// state (aborted runs leave inflated prices), and report whether a
    /// retry makes sense.
    fn widen_restart(&mut self, cands: &mut SparseCandidates) -> Result<(), ClusterError> {
        if cands.k() >= self.matrix.cols() {
            return Err(ClusterError::Infeasible);
        }
        self.stats.widen_rounds += 1;
        cands.widen(self.matrix, cands.k() * 2);
        self.prices.fill(0.0);
        let rows = self.matrix.rows() as f64;
        self.ceiling = (rows + 1.0) * (self.vmax + self.vmax / 2.0 + self.cfg.eps) + 1.0;
        Ok(())
    }

    /// Cold/restartable solve: scaled schedule, widening on infeasibility.
    fn run_to_completion(&mut self, cands: &mut SparseCandidates) -> Result<(), ClusterError> {
        loop {
            match self.run_scaled(cands) {
                Ok(()) => return Ok(()),
                Err(_) => self.widen_restart(cands)?,
            }
        }
    }

    /// Floors unassigned columns' prices to zero. ε-scaling phases and
    /// repair re-bids leave stale inflated prices on columns nobody owns;
    /// bidding would keep avoiding them while the dual bound counts them
    /// at zero, so the two views must be reconciled before certifying.
    fn floor_unassigned_prices(&mut self) {
        for (col, owner) in self.owner.iter().enumerate() {
            if owner.is_none() {
                self.prices[col] = 0.0;
            }
        }
    }

    /// Dual sweep: after flooring unassigned-column prices, computes
    /// `π_i = max_j (v_ij − p_j)` over all enabled columns (lowest column
    /// on ties). Returns the dual upper bound and, per row with slack > ε,
    /// its best off-profit column.
    ///
    /// Every unowned column is priced at zero, so `π_i` is the better of
    /// the owned columns' profits and the row's best unowned value, which
    /// the ranked prefix in `cands` yields: O(rows · (rows + prefix)) per
    /// sweep, independent of the fleet width.
    fn certify_scan(&mut self, cands: &mut SparseCandidates) -> (f64, Vec<(usize, usize)>) {
        self.floor_unassigned_prices();
        let owned: Vec<usize> = (0..self.owner.len())
            .filter(|&col| self.owner[col].is_some())
            .collect();
        let mut ub: f64 = owned.iter().map(|&col| self.prices[col]).sum();
        let live: Vec<(usize, f64)> = owned
            .iter()
            .filter(|&&col| !self.matrix.is_col_disabled(col))
            .map(|&col| (col, self.prices[col]))
            .collect();
        let mut violations = Vec::new();
        for row in 0..self.matrix.rows() {
            let values = self.matrix.row(row);
            let mut pi = f64::NEG_INFINITY;
            let mut pi_col = 0;
            self.stats.cert_edges += live.len() as u64;
            for &(col, price) in &live {
                let profit = values[col] - price;
                if profit > pi {
                    pi = profit;
                    pi_col = col;
                }
            }
            let free = cands.ranked.best_unowned(
                self.matrix,
                row,
                &self.owner,
                &mut self.stats.cert_edges,
            );
            if let Some(col) = free {
                let profit = values[col] - self.prices[col];
                if profit > pi || (profit == pi && col < pi_col) {
                    pi = profit;
                    pi_col = col;
                }
            }
            ub += pi;
            let own_col = self.assigned[row].expect("certify runs on a complete assignment");
            let own = values[own_col] - self.prices[own_col];
            if pi - own > self.cfg.eps {
                violations.push((row, pi_col));
            }
        }
        #[cfg(test)]
        tests::assert_matches_dense_sweep(self, ub, &violations);
        (ub, violations)
    }

    fn total(&self) -> f64 {
        self.assigned
            .iter()
            .enumerate()
            .map(|(row, col)| self.matrix.value(row, col.expect("complete assignment")))
            .sum()
    }

    /// Certification/repair: bound the gap; splice violating off-list
    /// edges in and re-bid their rows; after `max_widen` rounds fall back
    /// to full-width lists (where ε-CS alone certifies).
    fn certify_repair(&mut self, cands: &mut SparseCandidates) -> Result<(), ClusterError> {
        let rows = self.matrix.rows() as f64;
        let tol = self.cfg.eps * rows + 1e-9 * (1.0 + self.vmax) * rows;
        for round in 0..=self.cfg.max_widen {
            let (ub, violations) = self.certify_scan(cands);
            if ub - self.total() <= tol {
                self.certified = true;
                return Ok(());
            }
            if round == self.cfg.max_widen {
                break;
            }
            self.stats.widen_rounds += 1;
            for &(row, col) in &violations {
                cands.ensure_edge(row, col, self.matrix.value(row, col));
                self.unassign(row);
            }
            if self.bid_phase(cands, self.cfg.eps).is_err() {
                self.widen_restart(cands)?;
                self.run_to_completion(cands)?;
            }
        }
        // Escape hatch of last resort: full-width lists and zero prices.
        // From an empty assignment with zero prices, a column bid on stays
        // owned for the rest of the phase, so unassigned columns end at
        // price zero and ε-CS over all columns certifies by construction.
        cands.widen(self.matrix, self.matrix.cols());
        self.stats.widen_rounds += 1;
        self.prices.fill(0.0);
        self.reset_assignment();
        if self.bid_phase(cands, self.cfg.eps).is_err() {
            return Err(ClusterError::Infeasible);
        }
        let (ub, _) = self.certify_scan(cands);
        self.certified = ub - self.total() <= tol;
        Ok(())
    }

    fn into_solution(mut self) -> AuctionSolution {
        // Stored prices warm-start the next replan; stale prices on
        // unowned columns would poison it the same way they poison
        // certification.
        self.floor_unassigned_prices();
        let pairs: Vec<(usize, usize)> = self
            .assigned
            .iter()
            .enumerate()
            .map(|(row, col)| (row, col.expect("complete assignment")))
            .collect();
        let total = self.matrix.assignment_value(&pairs);
        AuctionSolution {
            assignment: Assignment::new(pairs, total),
            prices: self.prices,
            eps: self.cfg.eps,
            certified: self.certified,
            stats: self.stats,
        }
    }
}

fn validate(matrix: &PerfMatrix, cfg: &AuctionConfig) -> Result<(), ClusterError> {
    if !cfg.eps.is_finite() || cfg.eps <= 0.0 {
        return Err(ClusterError::InvalidMatrix(format!(
            "auction eps {} must be finite and positive",
            cfg.eps
        )));
    }
    // NaN theta must fail too, so compare through the negation.
    if cfg.theta.partial_cmp(&1.0) != Some(std::cmp::Ordering::Greater) {
        return Err(ClusterError::InvalidMatrix(format!(
            "auction scaling factor {} must exceed 1",
            cfg.theta
        )));
    }
    if matrix.rows() > matrix.enabled_cols() {
        return Err(ClusterError::TooManyApps {
            apps: matrix.rows(),
            servers: matrix.enabled_cols(),
        });
    }
    Ok(())
}

/// Cold solve: builds candidate lists at `cfg.k0` (default
/// [`SparseCandidates::default_k`]) and runs the full ε-scaling schedule.
///
/// # Errors
///
/// [`ClusterError::TooManyApps`] when rows exceed enabled columns,
/// [`ClusterError::InvalidMatrix`] for a bad config, and
/// [`ClusterError::Infeasible`] if no perfect matching exists even at full
/// candidate width.
pub fn solve(matrix: &PerfMatrix, cfg: &AuctionConfig) -> Result<AuctionSolution, ClusterError> {
    let k0 = cfg
        .k0
        .unwrap_or_else(|| SparseCandidates::default_k(matrix.cols()));
    let mut cands = SparseCandidates::build(matrix, k0);
    solve_with_candidates(matrix, &mut cands, cfg)
}

/// Cold solve over caller-owned candidate lists (kept for warm-started
/// and incremental replans later). Their ranked prefixes are rebuilt
/// for `matrix`.
///
/// # Errors
///
/// As [`solve`].
pub fn solve_with_candidates(
    matrix: &PerfMatrix,
    cands: &mut SparseCandidates,
    cfg: &AuctionConfig,
) -> Result<AuctionSolution, ClusterError> {
    validate(matrix, cfg)?;
    cands.ranked.invalidate();
    let mut eng = Engine::new(matrix, cfg, vec![0.0; matrix.cols()]);
    eng.run_to_completion(cands)?;
    if cfg.certify {
        eng.certify_repair(cands)?;
    }
    Ok(eng.into_solution())
}

/// Warm-started solve: a single bidding phase at the final ε from the
/// given prices (a near-feasible dual from a previous replan), falling
/// back to the full schedule on pruning infeasibility. The ranked
/// prefixes of `cands` are rebuilt for `matrix`.
///
/// # Errors
///
/// As [`solve`]; additionally [`ClusterError::InvalidMatrix`] when
/// `prices` does not have one entry per column.
pub fn solve_warm(
    matrix: &PerfMatrix,
    cands: &mut SparseCandidates,
    prices: &[f64],
    cfg: &AuctionConfig,
) -> Result<AuctionSolution, ClusterError> {
    validate(matrix, cfg)?;
    if prices.len() != matrix.cols() {
        return Err(ClusterError::InvalidMatrix(format!(
            "{} warm-start prices for {} columns",
            prices.len(),
            matrix.cols()
        )));
    }
    cands.ranked.invalidate();
    let mut eng = Engine::new(matrix, cfg, prices.to_vec());
    eng.reset_assignment();
    if eng.bid_phase(cands, cfg.eps).is_err() {
        eng.widen_restart(cands)?;
        eng.run_to_completion(cands)?;
    }
    if cfg.certify {
        eng.certify_repair(cands)?;
    }
    Ok(eng.into_solution())
}

/// Incremental repair: patches the candidate lists with `delta`, keeps
/// every pair of `prev` whose column the delta did not dirty, and re-bids
/// only the dirtied rows from the previous prices.
///
/// `matrix` must already be the patched matrix (`old.patched(delta)`) and
/// `cands` the lists (and ranked prefixes) last used against the *old*
/// matrix — this function brings them up to date. Work is O(k · dirtied
/// rows) candidate edges plus O(rows · (rows + prefix)) per
/// certification sweep; `stats.dirty_rows`, `stats.bid_edges` and
/// `stats.cert_edges` report the actual counts. Only the delta's columns
/// and edit kinds are read: new values come from `matrix`.
///
/// # Errors
///
/// As [`solve_warm`].
pub fn solve_incremental(
    matrix: &PerfMatrix,
    cands: &mut SparseCandidates,
    prev: &AuctionSolution,
    delta: &MatrixDelta,
    cfg: &AuctionConfig,
) -> Result<AuctionSolution, ClusterError> {
    validate(matrix, cfg)?;
    if prev.prices.len() != matrix.cols() {
        return Err(ClusterError::InvalidMatrix(format!(
            "{} previous prices for {} columns",
            prev.prices.len(),
            matrix.cols()
        )));
    }
    let touched = cands.apply_delta(matrix, delta);
    let mut dirty_col = vec![false; matrix.cols()];
    for col in delta.dirty_cols() {
        if col >= matrix.cols() {
            return Err(ClusterError::InvalidMatrix(format!(
                "delta column {col} out of range ({} cols)",
                matrix.cols()
            )));
        }
        dirty_col[col] = true;
    }
    let mut eng = Engine::new(matrix, cfg, prev.prices.clone());
    for &(row, col) in &prev.assignment.pairs {
        if row >= matrix.rows() || col >= matrix.cols() {
            return Err(ClusterError::InvalidMatrix(format!(
                "previous pair ({row}, {col}) out of range"
            )));
        }
        if dirty_col[col] || touched.binary_search(&row).is_ok() {
            continue;
        }
        eng.assigned[row] = Some(col);
        eng.owner[col] = Some(row);
    }
    for row in 0..matrix.rows() {
        if eng.assigned[row].is_none() {
            eng.queue.push_back(row);
        }
    }
    eng.stats.dirty_rows = eng.queue.len();
    // Columns vacated by dropping pairs keep their certified prices: they
    // are the equilibrium dual, and re-bidding rows re-take them with an
    // O(ε) adjustment. Flooring them to zero here would force the auction
    // to rebuild each price from scratch in ε-sized increments — turning
    // an O(k · dirty rows) repair into thousands of bids. Columns that
    // were unassigned in `prev` already carry price zero
    // (`into_solution` floors them), so certification stays consistent.
    if eng.bid_phase(cands, cfg.eps).is_err() {
        eng.widen_restart(cands)?;
        eng.run_to_completion(cands)?;
    }
    if cfg.certify {
        eng.certify_repair(cands)?;
    }
    Ok(eng.into_solution())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::{hungarian, solve as dispatch_solve, Solver};
    use crate::constraints::PlacementConstraints;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    thread_local! {
        /// Certification sweeps checked against the dense oracle.
        static ORACLE_CHECKS: Cell<usize> = const { Cell::new(0) };
    }

    fn oracle_checks() -> usize {
        ORACLE_CHECKS.with(Cell::get)
    }

    /// The dense certification sweep: `π_i` over every enabled column of
    /// every row, the first maximum in column order.
    fn dense_sweep(eng: &Engine) -> (f64, Vec<(usize, usize)>) {
        let mut ub: f64 = eng
            .owner
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_some())
            .map(|(col, _)| eng.prices[col])
            .sum();
        let mut violations = Vec::new();
        for row in 0..eng.matrix.rows() {
            let values = eng.matrix.row(row);
            let mut pi = f64::NEG_INFINITY;
            let mut pi_col = 0;
            for (col, &v) in values.iter().enumerate() {
                if eng.matrix.is_col_disabled(col) {
                    continue;
                }
                let profit = v - eng.prices[col];
                if profit > pi {
                    pi = profit;
                    pi_col = col;
                }
            }
            ub += pi;
            let own_col = eng.assigned[row].expect("complete assignment");
            if pi - (values[own_col] - eng.prices[own_col]) > eng.cfg.eps {
                violations.push((row, pi_col));
            }
        }
        (ub, violations)
    }

    /// Run by every `certify_scan` in test builds: the ranked sweep must
    /// reproduce the dense one bit for bit.
    pub(super) fn assert_matches_dense_sweep(eng: &Engine, ub: f64, violations: &[(usize, usize)]) {
        let (dense_ub, dense_violations) = dense_sweep(eng);
        assert_eq!(
            ub.to_bits(),
            dense_ub.to_bits(),
            "dual bound {ub} vs dense {dense_ub}"
        );
        assert_eq!(violations, dense_violations.as_slice());
        ORACLE_CHECKS.with(|c| c.set(c.get() + 1));
    }

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

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> PerfMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        matrix(
            (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect(),
        )
    }

    fn valid(matrix: &PerfMatrix, sol: &AuctionSolution) {
        assert_eq!(sol.assignment.pairs.len(), matrix.rows());
        let mut cols: Vec<usize> = sol.assignment.pairs.iter().map(|&(_, c)| c).collect();
        cols.sort_unstable();
        let n = cols.len();
        cols.dedup();
        assert_eq!(cols.len(), n, "one BE per server");
        assert!(cols.iter().all(|&c| !matrix.is_col_disabled(c)));
        let recomputed = matrix.assignment_value(&sol.assignment.pairs);
        assert!((sol.assignment.total - recomputed).abs() < 1e-9);
    }

    #[test]
    fn matches_exact_solver_within_eps_bound() {
        for seed in 0..10 {
            let m = random_matrix(12, 20, seed);
            let cfg = AuctionConfig::default();
            let sol = solve(&m, &cfg).unwrap();
            valid(&m, &sol);
            assert!(sol.certified, "seed {seed} not certified");
            let opt = hungarian::solve_max(&m);
            let bound = cfg.eps * m.rows() as f64 + 1e-9;
            assert!(
                sol.assignment.total >= opt.total - bound,
                "seed {seed}: auction {} vs optimum {} (bound {bound})",
                sol.assignment.total,
                opt.total
            );
        }
    }

    #[test]
    fn deterministic() {
        let m = random_matrix(10, 30, 7);
        let a = solve(&m, &AuctionConfig::default()).unwrap();
        let b = solve(&m, &AuctionConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn warm_start_is_cheaper_than_cold() {
        let m = random_matrix(40, 120, 3);
        let cfg = AuctionConfig::default();
        let cold = solve(&m, &cfg).unwrap();
        let mut cands = SparseCandidates::build(&m, SparseCandidates::default_k(m.cols()));
        let warm = solve_warm(&m, &mut cands, &cold.prices, &cfg).unwrap();
        valid(&m, &warm);
        assert!(
            warm.stats.bid_edges < cold.stats.bid_edges / 2,
            "warm {} edges vs cold {}",
            warm.stats.bid_edges,
            cold.stats.bid_edges
        );
        assert!(warm.assignment.total >= cold.assignment.total - cfg.eps * m.rows() as f64 - 1e-9);
    }

    #[test]
    fn incremental_repair_matches_cold_solve_and_is_bounded() {
        let m = random_matrix(40, 120, 11);
        let cfg = AuctionConfig::default();
        let mut cands = SparseCandidates::build(&m, SparseCandidates::default_k(m.cols()));
        let prev = solve_with_candidates(&m, &mut cands, &cfg).unwrap();
        // Fault the server hosting row 0.
        let faulted = prev.assignment.server_for(0).unwrap();
        let delta = MatrixDelta::new().disable_column(faulted);
        let patched = m.patched(&delta).unwrap();
        let inc = solve_incremental(&patched, &mut cands, &prev, &delta, &cfg).unwrap();
        valid(&patched, &inc);
        assert!(!inc.assignment.pairs.iter().any(|&(_, c)| c == faulted));
        // Quality: within the ε bound of a cold solve on the patched matrix.
        let cold = solve(&patched, &cfg).unwrap();
        let bound = 2.0 * cfg.eps * patched.rows() as f64 + 1e-9;
        assert!(
            inc.assignment.total >= cold.assignment.total - bound,
            "incremental {} vs cold {}",
            inc.assignment.total,
            cold.assignment.total
        );
        // Work bound: O(k · dirtied rows) edges, generous cascade slack.
        let k_eff = cands.k() + 8;
        let budget = (k_eff * inc.stats.dirty_rows.max(1) * 16) as u64;
        assert!(
            inc.stats.bid_edges <= budget,
            "incremental scanned {} edges, budget {budget} (dirty rows {})",
            inc.stats.bid_edges,
            inc.stats.dirty_rows
        );
        assert!(inc.stats.bid_edges < prev.stats.bid_edges / 2);
    }

    #[test]
    fn empty_delta_keeps_everything() {
        let m = random_matrix(15, 40, 5);
        let cfg = AuctionConfig::default();
        let mut cands = SparseCandidates::build(&m, SparseCandidates::default_k(m.cols()));
        let prev = solve_with_candidates(&m, &mut cands, &cfg).unwrap();
        let delta = MatrixDelta::new();
        let inc = solve_incremental(&m, &mut cands, &prev, &delta, &cfg).unwrap();
        assert_eq!(inc.stats.dirty_rows, 0);
        assert_eq!(inc.assignment.pairs, prev.assignment.pairs);
    }

    #[test]
    fn certification_widens_past_adversarial_pruning() {
        // k0 = 1 prunes everything but each row's favourite; with three
        // rows sharing a favourite, bidding alone cannot finish — the
        // engine must widen to find a perfect matching, and certification
        // must still bound the gap.
        let m = matrix(vec![
            vec![1.0, 0.9, 0.1, 0.1],
            vec![1.0, 0.1, 0.9, 0.1],
            vec![1.0, 0.1, 0.1, 0.9],
        ]);
        let cfg = AuctionConfig {
            k0: Some(1),
            ..AuctionConfig::default()
        };
        let sol = solve(&m, &cfg).unwrap();
        valid(&m, &sol);
        assert!(sol.stats.widen_rounds > 0, "must have widened: {sol:?}");
        assert!(sol.certified);
        let opt = hungarian::solve_max(&m);
        assert!(sol.assignment.total >= opt.total - cfg.eps * 3.0 - 1e-9);
    }

    #[test]
    fn too_many_rows_for_enabled_columns() {
        let m = matrix(vec![vec![0.4, 0.5], vec![0.6, 0.7]]);
        let dead = m.patched(&MatrixDelta::new().disable_column(0)).unwrap();
        assert!(matches!(
            solve(&dead, &AuctionConfig::default()),
            Err(ClusterError::TooManyApps {
                apps: 2,
                servers: 1
            })
        ));
    }

    #[test]
    fn bad_config_rejected() {
        let m = matrix(vec![vec![0.5]]);
        assert!(solve(&m, &AuctionConfig::with_eps(0.0)).is_err());
        assert!(solve(&m, &AuctionConfig::with_eps(f64::NAN)).is_err());
        let cfg = AuctionConfig {
            theta: 1.0,
            ..AuctionConfig::default()
        };
        assert!(solve(&m, &cfg).is_err());
    }

    #[test]
    fn disabled_columns_are_never_assigned() {
        let m = random_matrix(6, 12, 9);
        let delta = MatrixDelta::new()
            .disable_column(2)
            .disable_column(7)
            .disable_column(11);
        let p = m.patched(&delta).unwrap();
        let sol = solve(&p, &AuctionConfig::default()).unwrap();
        valid(&p, &sol);
    }

    /// Values for `rows` × `cols`: with `keyed`, every column copies one
    /// of `profiles` columns of eighths, so profits tie across columns.
    fn tie_heavy_values(
        rows: usize,
        cols: usize,
        profiles: usize,
        keyed: bool,
        rng: &mut StdRng,
    ) -> Vec<Vec<f64>> {
        let draw = |rng: &mut StdRng| -> Vec<f64> {
            (0..rows)
                .map(|_| {
                    if keyed {
                        f64::from(rng.gen_range(0u32..8)) / 8.0
                    } else {
                        rng.gen_range(0.0..1.0)
                    }
                })
                .collect()
        };
        let shapes: Vec<Vec<f64>> = (0..profiles).map(|_| draw(rng)).collect();
        let columns: Vec<Vec<f64>> = (0..cols)
            .map(|_| {
                if keyed {
                    shapes[rng.gen_range(0..profiles)].clone()
                } else {
                    draw(rng)
                }
            })
            .collect();
        (0..rows)
            .map(|r| columns.iter().map(|c| c[r]).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranked_certification_matches_the_dense_sweep(
            rows in 1usize..=6,
            extra in 1usize..=30,
            profiles in 1usize..=4,
            keyed in any::<bool>(),
            constrained in any::<bool>(),
            seed in any::<u64>(),
            steps in 1usize..=40,
        ) {
            let cols = rows + extra;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = matrix(tie_heavy_values(rows, cols, profiles, keyed, &mut rng));
            let k = SparseCandidates::default_k(cols);
            let mut cands = if constrained {
                let classes: Vec<usize> = (0..cols).map(|j| j % 3).collect();
                let rules = PlacementConstraints::new().forbid(0, 1).forbid(rows - 1, 2);
                SparseCandidates::build_constrained(&m, k, &classes, &rules)
            } else {
                SparseCandidates::build(&m, k)
            };
            let cfg = AuctionConfig::default();
            let checks = oracle_checks();
            let Ok(mut prev) = solve_with_candidates(&m, &mut cands, &cfg) else {
                return Ok(());
            };
            prop_assert!(oracle_checks() > checks, "cold solve certified");
            for _ in 0..steps {
                let checks = oracle_checks();
                let delta = match rng.gen_range(0..4) {
                    // Fault an occupied server while spares remain.
                    0 | 1 if m.enabled_cols() > rows => {
                        let pairs = &prev.assignment.pairs;
                        MatrixDelta::new().disable_column(pairs[rng.gen_range(0..pairs.len())].1)
                    }
                    // Refit or re-enable one column, possibly as a copy
                    // of another (a keyed peer).
                    0..=2 => {
                        let col = rng.gen_range(0..cols);
                        let src = rng.gen_range(0..cols);
                        let values = if keyed && !m.is_col_disabled(src) {
                            m.col_iter(src).collect()
                        } else {
                            tie_heavy_values(rows, 1, 1, keyed, &mut rng)
                                .into_iter()
                                .map(|r| r[0])
                                .collect()
                        };
                        MatrixDelta::new().set_column(col, values)
                    }
                    // A brownout-like delta over several columns.
                    _ => {
                        let mut d = MatrixDelta::new();
                        for col in 0..cols {
                            if !m.is_col_disabled(col) && rng.gen_bool(0.5) {
                                let scale = f64::from(rng.gen_range(1u32..=4)) / 4.0;
                                d = d.set_column(col, m.col_iter(col).map(|v| v * scale).collect());
                            }
                        }
                        d
                    }
                };
                let patched = m.patched(&delta).expect("valid delta");
                match solve_incremental(&patched, &mut cands, &prev, &delta, &cfg) {
                    Ok(next) => {
                        valid(&patched, &next);
                        prop_assert!(oracle_checks() > checks, "repair certified");
                        prev = next;
                        m = patched;
                    }
                    // Constraints can leave a row nowhere to go.
                    Err(_) => break,
                }
            }
        }
    }

    #[test]
    fn owned_and_unowned_ties_break_to_the_lowest_column() {
        // A hand-made previous state with zero prices: row 0 sits on
        // column 2 and values columns 0 (unowned) and 1 (owned by row 1)
        // equally, so its best profit ties across the two halves of the
        // sparse sweep. The dense sweep names column 0.
        let m = matrix(vec![vec![0.9, 0.9, 0.1], vec![0.2, 0.5, 0.3]]);
        let mut cands = SparseCandidates::build(&m, 1);
        let prev = AuctionSolution {
            assignment: Assignment::new(vec![(0, 2), (1, 1)], 0.6),
            prices: vec![0.0; 3],
            eps: DEFAULT_EPS,
            certified: false,
            stats: AuctionStats::default(),
        };
        let checks = oracle_checks();
        let cfg = AuctionConfig::default();
        let sol = solve_incremental(&m, &mut cands, &prev, &MatrixDelta::new(), &cfg).unwrap();
        valid(&m, &sol);
        assert!(sol.certified);
        assert!(oracle_checks() > checks);
    }

    #[test]
    fn repair_chains_refill_exhausted_prefixes() {
        // Three rows keep prefixes 6 wide over 40 columns; thirty faults
        // of occupied servers wear them out, and every sweep must still
        // match the dense one.
        let mut m = random_matrix(3, 40, 17);
        let cfg = AuctionConfig::default();
        let mut cands = SparseCandidates::build(&m, SparseCandidates::default_k(40));
        let mut prev = solve_with_candidates(&m, &mut cands, &cfg).unwrap();
        let checks = oracle_checks();
        for step in 0..30 {
            let victim = prev.assignment.pairs[step % 3].1;
            let delta = MatrixDelta::new().disable_column(victim);
            let patched = m.patched(&delta).unwrap();
            prev = solve_incremental(&patched, &mut cands, &prev, &delta, &cfg).unwrap();
            valid(&patched, &prev);
            assert!(prev.certified);
            m = patched;
        }
        assert!(oracle_checks() >= checks + 30);
        assert!(cands.ranked.refills > 0, "no prefix ran out");
    }

    #[test]
    fn single_fault_certification_reads_no_dense_sweep() {
        // 1000 columns, 20 rows: a repair's sweeps read the owned columns
        // and a short prefix walk per row, never a whole row.
        let m = random_matrix(20, 1000, 4);
        let cfg = AuctionConfig::default();
        let mut cands = SparseCandidates::build(&m, SparseCandidates::default_k(1000));
        let prev = solve_with_candidates(&m, &mut cands, &cfg).unwrap();
        let delta = MatrixDelta::new().disable_column(prev.assignment.pairs[0].1);
        let patched = m.patched(&delta).unwrap();
        let inc = solve_incremental(&patched, &mut cands, &prev, &delta, &cfg).unwrap();
        let sweeps = u64::from(inc.stats.widen_rounds) + 1;
        let rows = 20u64;
        assert!(
            inc.stats.cert_edges <= sweeps * rows * (rows + 2 * rows),
            "{} cert edges over {sweeps} sweeps",
            inc.stats.cert_edges
        );
        assert!(inc.stats.cert_edges < rows * 999);
    }

    #[test]
    fn dispatcher_auction_variant_round_trips() {
        let m = random_matrix(9, 14, 21);
        let via_dispatch = dispatch_solve(&m, Solver::Auction { eps: DEFAULT_EPS }).unwrap();
        let opt = hungarian::solve_max(&m);
        assert!(via_dispatch.total >= opt.total - DEFAULT_EPS * 9.0 - 1e-9);
    }
}
