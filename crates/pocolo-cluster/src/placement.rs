//! The cluster manager: performance matrix + assignment solver (Fig. 7,
//! stages II–III).

use pocolo_core::utility::IndirectUtility;

use crate::assign::auction::{self, AuctionConfig, AuctionSolution};
use crate::assign::sparse::SparseCandidates;
use crate::assign::{self, Assignment, Solver};
use crate::constraints::PlacementConstraints;
use crate::error::ClusterError;
use crate::matrix::{MatrixDelta, PerfMatrix};
use crate::perfmatrix::{PerfMatrixBuilder, ServerProfile};

/// The `(be, server)` pairs of `new` that are not already in `old` — the
/// migrations a replan implies. Both pair lists are sorted by row
/// ([`Assignment::new`] guarantees it), so this is a linear merge, not the
/// O(n²) `contains` scan it replaces.
pub fn migration_diff(old: &Assignment, new: &Assignment) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    for &(row, col) in &new.pairs {
        while i < old.pairs.len() && old.pairs[i].0 < row {
            i += 1;
        }
        if i < old.pairs.len() && old.pairs[i] == (row, col) {
            continue;
        }
        out.push((row, col));
    }
    out
}

/// The smallest key not in `keys`.
fn unused_key(keys: &[usize]) -> usize {
    let mut used = keys.to_vec();
    used.sort_unstable();
    used.dedup();
    used.iter()
        .enumerate()
        .find(|&(i, &k)| i != k)
        .map_or(used.len(), |(i, _)| i)
}

/// A solved sparse placement plus everything needed to repair it
/// incrementally: the matrix it was solved on, the candidate lists, and
/// the auction's dual prices. Produced by [`ClusterManager::plan_sparse`];
/// replans mutate it in place through [`PlacementPlan::apply_delta`].
#[derive(Debug, Clone)]
pub struct PlacementPlan {
    matrix: PerfMatrix,
    cands: SparseCandidates,
    solution: AuctionSolution,
    eps: f64,
}

impl PlacementPlan {
    /// The current placement.
    pub fn assignment(&self) -> &Assignment {
        &self.solution.assignment
    }

    /// The matrix the current placement was solved on.
    pub fn matrix(&self) -> &PerfMatrix {
        &self.matrix
    }

    /// The full auction solution (prices, certification, op counters).
    pub fn solution(&self) -> &AuctionSolution {
        &self.solution
    }

    /// The auction's dual column prices — the warm-start state a later
    /// solve over the same columns can resume from (e.g. the destination
    /// region of a cross-region migration re-admitting a drained app).
    pub fn prices(&self) -> &[f64] {
        &self.solution.prices
    }

    /// Repairs the plan after a matrix change, re-bidding only the rows
    /// the delta dirties (warm-started from the previous prices). Returns
    /// the migration intents: pairs of the new placement not already in
    /// the old one.
    ///
    /// The matrix and candidate lists are patched in place, in time
    /// proportional to the delta; a failed repair undoes both.
    ///
    /// # Errors
    ///
    /// Propagates patching and solver failures; on error the plan is
    /// unchanged.
    pub fn apply_delta(
        &mut self,
        delta: &MatrixDelta,
    ) -> Result<Vec<(usize, usize)>, ClusterError> {
        self.repair(delta.clone())
    }

    /// [`PlacementPlan::apply_delta`] on an owned delta, which doubles as
    /// the undo buffer: the in-place patch swaps the replaced values into
    /// it, and the solver reads only its columns and edit kinds.
    fn repair(&mut self, mut delta: MatrixDelta) -> Result<Vec<(usize, usize)>, ClusterError> {
        let undo = self.matrix.patch(&mut delta)?;
        let cfg = AuctionConfig::with_eps(self.eps);
        self.cands.checkpoint();
        match auction::solve_incremental(
            &self.matrix,
            &mut self.cands,
            &self.solution,
            &delta,
            &cfg,
        ) {
            Ok(next) => {
                self.cands.commit();
                let intents = migration_diff(&self.solution.assignment, &next.assignment);
                self.solution = next;
                Ok(intents)
            }
            Err(e) => {
                self.cands.rollback();
                self.matrix.restore(&mut delta, undo);
                Err(e)
            }
        }
    }
}

/// Solves a row-set over fixed columns, warm-starting from the dual
/// prices of a previous solve on the same columns — the cross-region
/// migration path: when an application drains out of one region and is
/// re-admitted into another, the destination's incremental auction
/// resumes from its standing prices instead of re-converging from zero.
///
/// `prices` is the previous solve's column-price vector; pass `None`
/// (or a vector of the wrong length, e.g. after the region gained
/// slots) to fall back to a cold ε-scaled solve.
///
/// # Errors
///
/// Propagates solver failures ([`ClusterError`]); infeasible inputs
/// (more rows than columns) surface as solver errors, not panics.
pub fn warm_assign(
    matrix: &PerfMatrix,
    prices: Option<&[f64]>,
    eps: f64,
) -> Result<AuctionSolution, ClusterError> {
    let cfg = AuctionConfig::with_eps(eps);
    let mut cands = SparseCandidates::build(matrix, SparseCandidates::default_k(matrix.cols()));
    match prices {
        Some(p) if p.len() == matrix.cols() => auction::solve_warm(matrix, &mut cands, p, &cfg),
        _ => auction::solve_with_candidates(matrix, &mut cands, &cfg),
    }
}

/// Cluster-level placement engine.
///
/// Owns the fitted models of every best-effort candidate and every
/// latency-critical server; produces the performance matrix and solves the
/// placement.
#[derive(Debug, Clone)]
pub struct ClusterManager {
    be_apps: Vec<(String, IndirectUtility)>,
    servers: Vec<ServerProfile>,
    builder: PerfMatrixBuilder,
    /// Expansion-path cache keys per server column: columns sharing a key
    /// share one path and one estimate per BE row. `None` = one key per
    /// column (the legacy homogeneous path).
    profile_keys: Option<Vec<usize>>,
    /// Server class per column, checked against `constraints`. `None` =
    /// unconstrained single-class fleet.
    classes: Option<Vec<usize>>,
    constraints: PlacementConstraints,
}

impl ClusterManager {
    /// Creates a manager over fitted BE apps and LC server profiles, using
    /// the paper's default 10–90 % load range for estimation.
    pub fn new(be_apps: Vec<(String, IndirectUtility)>, servers: Vec<ServerProfile>) -> Self {
        ClusterManager {
            be_apps,
            servers,
            builder: PerfMatrixBuilder::new(),
            profile_keys: None,
            classes: None,
            constraints: PlacementConstraints::new(),
        }
    }

    /// Overrides the load levels used for matrix estimation.
    #[must_use]
    pub fn with_load_levels(mut self, levels: Vec<f64>) -> Self {
        self.builder = self.builder.with_load_levels(levels);
        self
    }

    /// Sets expansion-path cache keys (one per server column): columns
    /// sharing a key are interchangeable profiles — the same (SKU,
    /// primary-app) class — and share one expansion path and one estimate
    /// per BE row, both in full builds ([`PerfMatrixBuilder::build_keyed`])
    /// and in brownout column rebuilds
    /// ([`PerfMatrixBuilder::rebuild_columns_keyed`]).
    ///
    /// The keys must be honest: equal keys assert interchangeable
    /// profiles, and the builders copy one column's values to its key
    /// peers without checking. [`ClusterManager::replan_after_refit`]
    /// keeps them honest by moving the refitted column to a key no other
    /// column holds.
    ///
    /// # Panics
    ///
    /// Panics if the key list doesn't cover every server.
    #[must_use]
    pub fn with_profile_keys(mut self, keys: Vec<usize>) -> Self {
        assert_eq!(keys.len(), self.servers.len(), "one cache key per server");
        self.profile_keys = Some(keys);
        self
    }

    /// Sets hard affinity/anti-affinity constraints over server classes:
    /// `classes` labels each server column with its class index, and
    /// `constraints` rules (BE row, class) pairs in or out. Both solve
    /// paths enforce the rules — pruned at candidate-edge time on the
    /// sparse path, masked to zero on the dense path — and every solved
    /// placement is verified, so a violation surfaces as
    /// [`ClusterError::ConstraintViolation`] rather than a silent
    /// placement.
    ///
    /// # Panics
    ///
    /// Panics if the class list doesn't cover every server.
    #[must_use]
    pub fn with_constraints(
        mut self,
        classes: Vec<usize>,
        constraints: PlacementConstraints,
    ) -> Self {
        assert_eq!(
            classes.len(),
            self.servers.len(),
            "one server class per server"
        );
        self.classes = Some(classes);
        self.constraints = constraints;
        self
    }

    /// The active placement constraints (empty when unconstrained).
    pub fn constraints(&self) -> &PlacementConstraints {
        &self.constraints
    }

    /// Builds the matrix for `servers` through the keyed cache and
    /// constraint mask when configured; reduces to the plain builder on
    /// the legacy path.
    fn matrix_for(
        &self,
        servers: &[ServerProfile],
        keys: Option<&[usize]>,
    ) -> Result<PerfMatrix, ClusterError> {
        let matrix = match keys {
            Some(keys) => self.builder.build_keyed(&self.be_apps, servers, keys)?,
            None => self.builder.build(&self.be_apps, servers)?,
        };
        match &self.classes {
            Some(classes) if !self.constraints.is_empty() => {
                self.constraints.mask(&matrix, classes)
            }
            _ => Ok(matrix),
        }
    }

    /// Verifies a solved placement against the constraints (no-op when
    /// unconstrained).
    fn verify_constraints(&self, pairs: &[(usize, usize)]) -> Result<(), ClusterError> {
        match &self.classes {
            Some(classes) if !self.constraints.is_empty() => {
                self.constraints.verify(pairs, classes)
            }
            _ => Ok(()),
        }
    }

    /// The server profiles with each cap scaled by `factor(column)`.
    fn scaled_servers(&self, factor: impl Fn(usize) -> f64) -> Vec<ServerProfile> {
        self.servers
            .iter()
            .enumerate()
            .map(|(j, s)| ServerProfile {
                power_cap: s.power_cap * factor(j),
                ..s.clone()
            })
            .collect()
    }

    /// Re-estimates `cols` of `current` against `servers` — through the
    /// keyed cache when configured — and re-masks the result: column
    /// rebuilds re-estimate raw values, and forbidden entries must stay
    /// masked so a replan can't un-hide them.
    fn rebuild_delta(
        &self,
        servers: &[ServerProfile],
        cols: &[usize],
        current: &PerfMatrix,
    ) -> Result<MatrixDelta, ClusterError> {
        let delta = match &self.profile_keys {
            Some(keys) => {
                self.builder
                    .rebuild_columns_keyed(&self.be_apps, servers, cols, keys, current)?
            }
            None => self
                .builder
                .rebuild_columns(&self.be_apps, servers, cols, current)?,
        };
        Ok(match &self.classes {
            Some(classes) => self.constraints.mask_delta(delta, classes),
            None => delta,
        })
    }

    /// The best-effort candidates (label, fitted utility).
    pub fn be_apps(&self) -> &[(String, IndirectUtility)] {
        &self.be_apps
    }

    /// The LC server profiles.
    pub fn servers(&self) -> &[ServerProfile] {
        &self.servers
    }

    /// Builds the BE×LC performance matrix.
    ///
    /// # Errors
    ///
    /// Propagates estimation failures.
    pub fn performance_matrix(&self) -> Result<PerfMatrix, ClusterError> {
        self.matrix_for(&self.servers, self.profile_keys.as_deref())
    }

    /// Builds the matrix and solves the placement with `solver`.
    ///
    /// # Errors
    ///
    /// Propagates matrix and solver failures; returns
    /// [`ClusterError::ConstraintViolation`] when the constrained
    /// instance has no admissible perfect matching.
    pub fn place(&self, solver: Solver) -> Result<Assignment, ClusterError> {
        let matrix = self.performance_matrix()?;
        let assignment = assign::solve(&matrix, solver)?;
        self.verify_constraints(&assignment.pairs)?;
        Ok(assignment)
    }

    /// Re-solves the placement under a shrunk power budget (a brownout or
    /// infrastructure de-rating): every server's cap is scaled by
    /// `cap_factor`, the matrix is rebuilt, and a fresh assignment is
    /// solved — but the `incumbent` placement is kept unless the new one
    /// beats it by more than `hysteresis` (relative, on the *shrunk*
    /// matrix). The hysteresis is what keeps the cluster from thrashing
    /// migrations over marginal gains while the budget flaps.
    ///
    /// Returns the chosen assignment (its `total` is always measured on
    /// the shrunk matrix, for either choice).
    ///
    /// # Errors
    ///
    /// Propagates matrix and solver failures.
    ///
    /// # Panics
    ///
    /// Panics if `cap_factor` is outside `(0, 1]` or `hysteresis` is
    /// negative.
    pub fn replan_under_budget(
        &self,
        cap_factor: f64,
        incumbent: &Assignment,
        hysteresis: f64,
        solver: Solver,
    ) -> Result<Assignment, ClusterError> {
        assert!(
            cap_factor > 0.0 && cap_factor <= 1.0,
            "cap factor must be in (0, 1], got {cap_factor}"
        );
        assert!(
            hysteresis >= 0.0 && hysteresis.is_finite(),
            "hysteresis must be non-negative, got {hysteresis}"
        );
        let shrunk = self.scaled_servers(|_| cap_factor);
        // A uniform factor keeps same-key profiles interchangeable, so
        // the keyed cache stays valid.
        let matrix = self.matrix_for(&shrunk, self.profile_keys.as_deref())?;
        let fresh = assign::solve(&matrix, solver)?;
        let incumbent_total = matrix.assignment_value(&incumbent.pairs);
        if fresh.total > incumbent_total * (1.0 + hysteresis) {
            self.verify_constraints(&fresh.pairs)?;
            Ok(fresh)
        } else {
            Ok(Assignment::new(incumbent.pairs.clone(), incumbent_total))
        }
    }

    /// Class-aware counterpart of [`ClusterManager::replan_under_budget`]
    /// for heterogeneous fleets: each server's cap is scaled by its *own*
    /// factor — the brownout request pushed through each SKU's power
    /// curve, so a step-function class that must shed a whole power plane
    /// replans at the factor it actually holds, not the one the
    /// infrastructure asked for. The same hysteresis rule applies.
    ///
    /// # Errors
    ///
    /// Propagates matrix and solver failures.
    ///
    /// # Panics
    ///
    /// Panics if `cap_factors` doesn't cover every server, any factor is
    /// outside `(0, 1]`, or `hysteresis` is negative.
    pub fn replan_under_budget_classed(
        &self,
        cap_factors: &[f64],
        incumbent: &Assignment,
        hysteresis: f64,
        solver: Solver,
    ) -> Result<Assignment, ClusterError> {
        assert_eq!(
            cap_factors.len(),
            self.servers.len(),
            "one cap factor per server"
        );
        for &f in cap_factors {
            assert!(f > 0.0 && f <= 1.0, "cap factor must be in (0, 1], got {f}");
        }
        assert!(
            hysteresis >= 0.0 && hysteresis.is_finite(),
            "hysteresis must be non-negative, got {hysteresis}"
        );
        let shrunk = self.scaled_servers(|j| cap_factors[j]);
        // Per-server factors can split a cache class: two columns that
        // shared a key stay interchangeable only if they also share a
        // factor, so re-key on (base key, factor bits).
        let mut seen: Vec<((usize, u64), usize)> = Vec::new();
        let keys: Vec<usize> = cap_factors
            .iter()
            .enumerate()
            .map(|(j, f)| {
                let base = self.profile_keys.as_ref().map_or(j, |k| k[j]);
                let pair = (base, f.to_bits());
                match seen.iter().find(|(p, _)| *p == pair) {
                    Some(&(_, key)) => key,
                    None => {
                        let key = seen.len();
                        seen.push((pair, key));
                        key
                    }
                }
            })
            .collect();
        let matrix = self.matrix_for(&shrunk, Some(&keys))?;
        let fresh = assign::solve(&matrix, solver)?;
        let incumbent_total = matrix.assignment_value(&incumbent.pairs);
        if fresh.total > incumbent_total * (1.0 + hysteresis) {
            self.verify_constraints(&fresh.pairs)?;
            Ok(fresh)
        } else {
            Ok(Assignment::new(incumbent.pairs.clone(), incumbent_total))
        }
    }

    /// The migration intents of a class-aware budget replan: the pairs of
    /// [`ClusterManager::replan_under_budget_classed`]'s chosen assignment
    /// not already in the `incumbent`. Empty when hysteresis keeps the
    /// incumbent.
    ///
    /// # Errors
    ///
    /// Propagates matrix and solver failures.
    ///
    /// # Panics
    ///
    /// As [`ClusterManager::replan_under_budget_classed`].
    pub fn migration_intents_classed(
        &self,
        cap_factors: &[f64],
        incumbent: &Assignment,
        hysteresis: f64,
        solver: Solver,
    ) -> Result<Vec<(usize, usize)>, ClusterError> {
        let replan =
            self.replan_under_budget_classed(cap_factors, incumbent, hysteresis, solver)?;
        Ok(migration_diff(incumbent, &replan))
    }

    /// The migration intents a budget replan implies: the `(be, server)`
    /// pairs of [`ClusterManager::replan_under_budget`]'s chosen
    /// assignment that are *not* already in the `incumbent`, in the
    /// replan's pair order. Empty when hysteresis keeps the incumbent —
    /// the brownout proceeds with no migrations.
    ///
    /// # Errors
    ///
    /// Propagates matrix and solver failures.
    ///
    /// # Panics
    ///
    /// Panics if `cap_factor` is outside `(0, 1]` or `hysteresis` is
    /// negative.
    pub fn migration_intents(
        &self,
        cap_factor: f64,
        incumbent: &Assignment,
        hysteresis: f64,
        solver: Solver,
    ) -> Result<Vec<(usize, usize)>, ClusterError> {
        let replan = self.replan_under_budget(cap_factor, incumbent, hysteresis, solver)?;
        Ok(migration_diff(incumbent, &replan))
    }

    /// Solves the placement through the sparse auction path and returns a
    /// [`PlacementPlan`] that later replans can repair incrementally
    /// instead of re-solving from scratch.
    ///
    /// # Errors
    ///
    /// Propagates matrix and solver failures.
    pub fn plan_sparse(&self, eps: f64) -> Result<PlacementPlan, ClusterError> {
        let matrix = self.performance_matrix()?;
        let k = SparseCandidates::default_k(matrix.cols());
        let mut cands = match &self.classes {
            Some(classes) if !self.constraints.is_empty() => {
                SparseCandidates::build_constrained(&matrix, k, classes, &self.constraints)
            }
            _ => SparseCandidates::build(&matrix, k),
        };
        let cfg = AuctionConfig::with_eps(eps);
        let solution = auction::solve_with_candidates(&matrix, &mut cands, &cfg)?;
        self.verify_constraints(&solution.assignment.pairs)?;
        Ok(PlacementPlan {
            matrix,
            cands,
            solution,
            eps,
        })
    }

    /// Repairs `plan` after per-server faults: the given columns leave the
    /// fleet, their BE tenants are re-bid onto the survivors, every other
    /// pair stays put unless the eviction cascade moves it. Returns the
    /// migration intents.
    ///
    /// # Errors
    ///
    /// Propagates patching and solver failures ([`ClusterError::TooManyApps`]
    /// when the survivors cannot host every BE app).
    pub fn replan_after_faults(
        &self,
        plan: &mut PlacementPlan,
        faulted_cols: &[usize],
    ) -> Result<Vec<(usize, usize)>, ClusterError> {
        let mut delta = MatrixDelta::new();
        for &col in faulted_cols {
            delta = delta.disable_column(col);
        }
        plan.repair(delta)
    }

    /// Incremental counterpart of [`ClusterManager::replan_under_budget`]:
    /// re-estimates the columns under the new cap — one expansion path
    /// per profile key when keys are set
    /// ([`PerfMatrixBuilder::rebuild_columns_keyed`]), else one per column
    /// ([`PerfMatrixBuilder::rebuild_columns`]) — and repairs the plan's
    /// assignment from its previous prices. The same hysteresis rule
    /// applies: if the repaired placement does not beat the incumbent by
    /// more than `hysteresis` on the patched matrix, the incumbent pairs
    /// are kept and no migrations are emitted.
    ///
    /// # Errors
    ///
    /// Propagates estimation and solver failures.
    ///
    /// # Panics
    ///
    /// Panics if `cap_factor` is outside `(0, 1]` or `hysteresis` is
    /// negative.
    pub fn replan_under_budget_incremental(
        &self,
        plan: &mut PlacementPlan,
        cap_factor: f64,
        hysteresis: f64,
    ) -> Result<Vec<(usize, usize)>, ClusterError> {
        assert!(
            cap_factor > 0.0 && cap_factor <= 1.0,
            "cap factor must be in (0, 1], got {cap_factor}"
        );
        assert!(
            hysteresis >= 0.0 && hysteresis.is_finite(),
            "hysteresis must be non-negative, got {hysteresis}"
        );
        // A uniform factor keeps same-key profiles interchangeable, so
        // the rebuild re-estimates one column per key.
        let shrunk = self.scaled_servers(|_| cap_factor);
        let all_cols: Vec<usize> = (0..plan.matrix.cols()).collect();
        let delta = self.rebuild_delta(&shrunk, &all_cols, &plan.matrix)?;
        let incumbent = plan.solution.assignment.clone();
        let intents = plan.repair(delta)?;
        let incumbent_total = plan.matrix.assignment_value(&incumbent.pairs);
        if plan.solution.assignment.total > incumbent_total * (1.0 + hysteresis) {
            Ok(intents)
        } else {
            // Hysteresis keeps the incumbent; the repaired prices stay as
            // warm-start state for the next replan.
            plan.solution.assignment = Assignment::new(incumbent.pairs, incumbent_total);
            Ok(Vec::new())
        }
    }

    /// Adopts a freshly refitted utility model for server `col` and
    /// repairs the plan around it. This is the online-refit hook used by
    /// `pocolo-traffic`: when an [`OnlineFitter`] drifts far enough from
    /// the model a column was planned with, the stale column — and only
    /// that column — is re-estimated under the current power budget
    /// (`cap_factor` of each server's provisioned cap, `1.0` outside a
    /// brownout) and the assignment is repaired from its previous prices.
    ///
    /// On a keyed manager the column moves to a profile key no other
    /// column holds, since its new model no longer matches its former key
    /// peers.
    ///
    /// Returns the migration intents the repair produced (often empty:
    /// a refit that confirms the incumbent moves nothing).
    ///
    /// [`OnlineFitter`]: pocolo_core::fit::OnlineFitter
    ///
    /// # Errors
    ///
    /// Propagates estimation and solver failures.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range or `cap_factor` is outside
    /// `(0, 1]`.
    pub fn replan_after_refit(
        &mut self,
        plan: &mut PlacementPlan,
        col: usize,
        utility: IndirectUtility,
        cap_factor: f64,
    ) -> Result<Vec<(usize, usize)>, ClusterError> {
        assert!(
            col < self.servers.len(),
            "column {col} out of range for {} servers",
            self.servers.len()
        );
        assert!(
            cap_factor > 0.0 && cap_factor <= 1.0,
            "cap factor must be in (0, 1], got {cap_factor}"
        );
        self.servers[col].utility = utility;
        if let Some(keys) = &mut self.profile_keys {
            keys[col] = unused_key(keys);
        }
        // The rebuild reads only the listed column's profile, so only that
        // cap is scaled, and put back before anything can fail.
        let provisioned = self.servers[col].power_cap;
        self.servers[col].power_cap = provisioned * cap_factor;
        let delta = self.rebuild_delta(&self.servers, &[col], &plan.matrix);
        self.servers[col].power_cap = provisioned;
        plan.repair(delta?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pocolo_core::fit::{fit_indirect_utility, FitOptions};
    use pocolo_simserver::power::PowerDrawModel;
    use pocolo_simserver::MachineSpec;
    use pocolo_workloads::profiler::{profile_be, profile_lc, ProfilerConfig};
    use pocolo_workloads::{BeApp, BeModel, LcApp, LcModel};

    fn manager() -> ClusterManager {
        let machine = MachineSpec::xeon_e5_2650();
        let power = PowerDrawModel::new(machine.clone());
        let space = machine.resource_space();
        let cfg = ProfilerConfig::default();
        let servers = LcApp::ALL
            .iter()
            .map(|&app| {
                let truth = LcModel::for_app(app, machine.clone());
                let samples = profile_lc(&truth, &power, &space, &cfg);
                let fit = fit_indirect_utility(&space, &samples, &FitOptions::default()).unwrap();
                ServerProfile {
                    label: app.name().to_string(),
                    utility: fit.utility,
                    power_cap: truth.provisioned_power(),
                    peak_load: truth.peak_load_rps(),
                }
            })
            .collect();
        let bes = BeApp::ALL
            .iter()
            .map(|&app| {
                let truth = BeModel::for_app(app, machine.clone());
                let samples = profile_be(&truth, &power, &space, &cfg);
                let fit = fit_indirect_utility(&space, &samples, &FitOptions::default()).unwrap();
                (app.name().to_string(), fit.utility)
            })
            .collect();
        ClusterManager::new(bes, servers)
    }

    #[test]
    fn pocolo_reproduces_paper_pairings() {
        // §V-E: "Pocolo chooses to assign Graph to sphinx server ...
        // LSTM is matched to img-dnn, whereas RNN/Pbzip are matched to
        // Xapian or TPCC".
        let mgr = manager();
        let assignment = mgr.place(Solver::Hungarian).unwrap();
        let matrix = mgr.performance_matrix().unwrap();
        let col_of = |name: &str| matrix.col_labels().iter().position(|l| l == name).unwrap();
        let row_of = |name: &str| matrix.row_labels().iter().position(|l| l == name).unwrap();
        assert_eq!(
            assignment.server_for(row_of("graph")),
            Some(col_of("sphinx")),
            "graph should pair with sphinx\n{matrix}"
        );
        assert_eq!(
            assignment.server_for(row_of("lstm")),
            Some(col_of("img-dnn")),
            "lstm should pair with img-dnn\n{matrix}"
        );
        // rnn and pbzip land on xapian/tpcc in either order.
        let rnn = assignment.server_for(row_of("rnn")).unwrap();
        let pbzip = assignment.server_for(row_of("pbzip")).unwrap();
        let xt = [col_of("xapian"), col_of("tpcc")];
        assert!(xt.contains(&rnn) && xt.contains(&pbzip) && rnn != pbzip);
    }

    #[test]
    fn lp_and_hungarian_agree() {
        let mgr = manager();
        let h = mgr.place(Solver::Hungarian).unwrap();
        let l = mgr.place(Solver::Lp).unwrap();
        let e = mgr.place(Solver::Exhaustive).unwrap();
        assert!((h.total - e.total).abs() < 1e-9);
        assert!((l.total - e.total).abs() < 1e-9);
    }

    #[test]
    fn optimal_beats_random_on_average() {
        let mgr = manager();
        let opt = mgr.place(Solver::Hungarian).unwrap();
        let mut rand_total = 0.0;
        let n = 24;
        for seed in 0..n {
            rand_total += mgr.place(Solver::Random { seed }).unwrap().total;
        }
        let avg = rand_total / n as f64;
        assert!(
            opt.total > avg * 1.02,
            "optimal {} should beat random average {avg}",
            opt.total
        );
    }

    #[test]
    fn replan_full_budget_matches_place() {
        let mgr = manager();
        let incumbent = mgr.place(Solver::Hungarian).unwrap();
        let replan = mgr
            .replan_under_budget(1.0, &incumbent, 0.0, Solver::Hungarian)
            .unwrap();
        assert_eq!(replan.pairs, incumbent.pairs);
        assert!((replan.total - incumbent.total).abs() < 1e-9);
    }

    #[test]
    fn replan_high_hysteresis_keeps_incumbent() {
        // Start from a deliberately bad incumbent; with huge hysteresis
        // even a much better fresh solve must not displace it.
        let mgr = manager();
        let bad = mgr.place(Solver::Random { seed: 3 }).unwrap();
        let kept = mgr
            .replan_under_budget(0.7, &bad, 1e6, Solver::Hungarian)
            .unwrap();
        assert_eq!(kept.pairs, bad.pairs);
        // With zero hysteresis the fresh optimum wins (or ties).
        let fresh = mgr
            .replan_under_budget(0.7, &bad, 0.0, Solver::Hungarian)
            .unwrap();
        assert!(fresh.total >= kept.total);
    }

    #[test]
    fn replan_totals_are_on_the_shrunk_matrix() {
        // Shrinking every cap weakly shrinks matrix entries, so the
        // replan's total must not exceed the full-budget optimum.
        let mgr = manager();
        let incumbent = mgr.place(Solver::Hungarian).unwrap();
        let shrunk = mgr
            .replan_under_budget(0.6, &incumbent, 0.05, Solver::Hungarian)
            .unwrap();
        assert!(
            shrunk.total <= incumbent.total + 1e-9,
            "shrunk-budget total {} exceeds full-budget {}",
            shrunk.total,
            incumbent.total
        );
    }

    #[test]
    fn migration_intents_are_the_non_incumbent_replan_pairs() {
        let mgr = manager();
        let incumbent = mgr.place(Solver::Hungarian).unwrap();
        // Keeping the incumbent (full budget, or huge hysteresis) means
        // no migrations.
        let none = mgr
            .migration_intents(1.0, &incumbent, 0.0, Solver::Hungarian)
            .unwrap();
        assert!(none.is_empty());
        let kept = mgr
            .migration_intents(0.6, &incumbent, 1e6, Solver::Hungarian)
            .unwrap();
        assert!(kept.is_empty());
        // From a bad incumbent at zero hysteresis, the intents are
        // exactly the fresh pairs not already placed.
        let bad = mgr.place(Solver::Random { seed: 3 }).unwrap();
        let replan = mgr
            .replan_under_budget(0.6, &bad, 0.0, Solver::Hungarian)
            .unwrap();
        let intents = mgr
            .migration_intents(0.6, &bad, 0.0, Solver::Hungarian)
            .unwrap();
        let expected: Vec<_> = replan
            .pairs
            .iter()
            .filter(|p| !bad.pairs.contains(p))
            .copied()
            .collect();
        assert_eq!(intents, expected);
        for pair in &intents {
            assert!(!bad.pairs.contains(pair));
        }
    }

    #[test]
    fn migration_diff_matches_contains_filter() {
        let old = Assignment::new(vec![(0, 3), (1, 1), (2, 0), (4, 2)], 1.0);
        let new = Assignment::new(vec![(0, 3), (1, 2), (3, 1), (4, 0)], 1.0);
        let expected: Vec<_> = new
            .pairs
            .iter()
            .filter(|p| !old.pairs.contains(p))
            .copied()
            .collect();
        assert_eq!(migration_diff(&old, &new), expected);
        assert!(migration_diff(&old, &old).is_empty());
    }

    #[test]
    fn sparse_plan_matches_exact_placement() {
        let mgr = manager();
        let exact = mgr.place(Solver::Hungarian).unwrap();
        let plan = mgr.plan_sparse(1e-3).unwrap();
        assert!(plan.solution().certified);
        assert!(
            plan.assignment().total >= exact.total - 1e-3 * 4.0 - 1e-9,
            "sparse {} vs exact {}",
            plan.assignment().total,
            exact.total
        );
    }

    #[test]
    fn fault_replan_evicts_only_whats_needed() {
        let mgr = manager();
        let plan = mgr.plan_sparse(1e-3).unwrap();
        let faulted = plan.assignment().server_for(0).unwrap();
        // 4 BE apps on 3 surviving servers is infeasible — and must say so.
        let err = mgr.replan_after_faults(&mut plan.clone(), &[faulted]);
        assert!(matches!(err, Err(ClusterError::TooManyApps { .. })));
        // Drop a BE row first, then the fault is repairable.
        let mut small = ClusterManager::new(mgr.be_apps()[..3].to_vec(), mgr.servers().to_vec());
        small.builder = mgr.builder.clone();
        let mut plan3 = small.plan_sparse(1e-3).unwrap();
        let victim_col = plan3.assignment().server_for(0).unwrap();
        let intents = small
            .replan_after_faults(&mut plan3, &[victim_col])
            .unwrap();
        assert!(plan3.matrix().is_col_disabled(victim_col));
        assert!(plan3
            .assignment()
            .pairs
            .iter()
            .all(|&(_, c)| c != victim_col));
        // Row 0 had to move, so it appears in the intents.
        assert!(intents.iter().any(|&(r, _)| r == 0), "intents: {intents:?}");
        // The repair touched only the dirtied rows.
        assert!(plan3.solution().stats.dirty_rows <= 3);
    }

    #[test]
    fn failed_repair_leaves_the_plan_unchanged() {
        // Rows 0 and 1 must sit on class-1 servers (columns 2 and 3).
        // Losing one of them passes every up-front check but leaves the
        // solver no admissible matching, after it has patched the matrix
        // and candidate lists.
        let mgr = manager();
        let small = ClusterManager {
            be_apps: mgr.be_apps()[..3].to_vec(),
            ..mgr
        }
        .with_constraints(
            vec![0, 0, 1, 1],
            PlacementConstraints::new().require(0, 1).require(1, 1),
        );
        let mut plan = small.plan_sparse(1e-3).unwrap();
        let pristine = plan.clone();
        let err = small.replan_after_faults(&mut plan, &[2]).unwrap_err();
        assert_eq!(err, ClusterError::Infeasible);
        assert_eq!(plan.matrix(), pristine.matrix());
        assert_eq!(plan.solution(), pristine.solution());
        assert_eq!(plan.cands.k(), pristine.cands.k());
        for row in 0..3 {
            assert_eq!(plan.cands.row(row), pristine.cands.row(row));
        }
        // The restored plan repairs the next fault exactly like one that
        // never saw the failure.
        let mut untouched = pristine;
        let col = plan.assignment().server_for(2).unwrap();
        let a = small.replan_after_faults(&mut plan, &[col]).unwrap();
        let b = small.replan_after_faults(&mut untouched, &[col]).unwrap();
        assert_eq!(a, b);
        assert_eq!(plan.assignment(), untouched.assignment());
        assert_eq!(plan.prices(), untouched.prices());
        assert_eq!(plan.matrix(), untouched.matrix());
    }

    #[test]
    fn incremental_budget_replan_agrees_with_dense_path() {
        let mgr = manager();
        let mut plan = mgr.plan_sparse(1e-3).unwrap();
        let incumbent = plan.assignment().clone();
        // Full budget: nothing dirties, nothing migrates.
        let none = mgr
            .replan_under_budget_incremental(&mut plan, 1.0, 0.0)
            .unwrap();
        assert!(none.is_empty());
        assert_eq!(plan.assignment().pairs, incumbent.pairs);
        // Shrunk budget, zero hysteresis: totals match the dense replan
        // within the auction tolerance.
        let dense = mgr
            .replan_under_budget(0.6, &incumbent, 0.0, Solver::Hungarian)
            .unwrap();
        let intents = mgr
            .replan_under_budget_incremental(&mut plan, 0.6, 0.0)
            .unwrap();
        assert!(
            plan.assignment().total >= dense.total - 2.0 * 1e-3 * 4.0 - 1e-9,
            "incremental {} vs dense {}",
            plan.assignment().total,
            dense.total
        );
        assert_eq!(
            intents,
            migration_diff(&incumbent, plan.assignment()),
            "intents are the pair diff"
        );
        // Huge hysteresis keeps the (shrunk-matrix) incumbent: no intents.
        let mut plan2 = mgr.plan_sparse(1e-3).unwrap();
        let kept_pairs = plan2.assignment().pairs.clone();
        let kept = mgr
            .replan_under_budget_incremental(&mut plan2, 0.6, 1e6)
            .unwrap();
        assert!(kept.is_empty());
        assert_eq!(plan2.assignment().pairs, kept_pairs);
    }

    #[test]
    fn refit_replan_swaps_one_column_and_repairs() {
        let mut mgr = manager();
        let mut plan = mgr.plan_sparse(1e-3).unwrap();
        let incumbent = plan.assignment().clone();
        // Re-adopting the same model changes no estimates, so the repair
        // must keep the incumbent and move nothing.
        let same = mgr.servers()[1].utility.clone();
        let none = mgr.replan_after_refit(&mut plan, 1, same, 1.0).unwrap();
        assert!(none.is_empty(), "unchanged model migrated: {none:?}");
        assert_eq!(plan.assignment().pairs, incumbent.pairs);
        // A genuinely different model (another server's fit) dirties only
        // that column; intents, if any, are the pair diff.
        let other = mgr.servers()[2].utility.clone();
        let intents = mgr.replan_after_refit(&mut plan, 1, other, 0.7).unwrap();
        assert_eq!(intents, migration_diff(&incumbent, plan.assignment()));
        assert!(plan.solution().stats.dirty_rows <= mgr.be_apps().len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn refit_replan_rejects_bad_column() {
        let mut mgr = manager();
        let mut plan = mgr.plan_sparse(1e-3).unwrap();
        let u = mgr.servers()[0].utility.clone();
        let _ = mgr.replan_after_refit(&mut plan, 99, u, 1.0);
    }

    #[test]
    #[should_panic(expected = "cap factor must be in (0, 1]")]
    fn replan_rejects_bad_factor() {
        let mgr = manager();
        let incumbent = mgr.place(Solver::Hungarian).unwrap();
        let _ = mgr.replan_under_budget(0.0, &incumbent, 0.0, Solver::Hungarian);
    }

    #[test]
    fn profile_keys_reproduce_the_unkeyed_matrix() {
        // Distinct keys (the homogeneous degenerate case) must be
        // bit-identical to the legacy build.
        let mgr = manager();
        let legacy = mgr.performance_matrix().unwrap();
        let n = mgr.servers().len();
        let keyed_mgr = mgr.clone().with_profile_keys((0..n).collect());
        let keyed = keyed_mgr.performance_matrix().unwrap();
        assert_eq!(keyed, legacy);
        let a = mgr.place(Solver::Hungarian).unwrap();
        let b = keyed_mgr.place(Solver::Hungarian).unwrap();
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.total.to_bits(), b.total.to_bits());
    }

    /// The 4×4 manager's fleet twice over: columns `c` and `c + 4` are
    /// interchangeable. Returns it unkeyed and keyed `c % 4`.
    fn doubled_managers() -> (ClusterManager, ClusterManager) {
        let mgr = manager();
        let servers: Vec<ServerProfile> =
            mgr.servers().iter().chain(mgr.servers()).cloned().collect();
        let unkeyed = ClusterManager::new(mgr.be_apps().to_vec(), servers);
        let keyed = unkeyed
            .clone()
            .with_profile_keys((0..8).map(|c| c % 4).collect());
        (unkeyed, keyed)
    }

    #[test]
    fn refit_rekeys_the_column_so_keyed_matrices_stay_exact() {
        let (mut unkeyed, mut keyed) = doubled_managers();
        assert_eq!(
            keyed.performance_matrix().unwrap(),
            unkeyed.performance_matrix().unwrap()
        );
        let mut plan_u = unkeyed.plan_sparse(1e-3).unwrap();
        let mut plan_k = keyed.plan_sparse(1e-3).unwrap();
        // Refit the second column of key 0, then the first column of
        // key 1: neither may leak into or borrow from its former peer.
        for (col, model) in [(4, 2), (1, 3)] {
            let u = keyed.servers()[model].utility.clone();
            unkeyed
                .replan_after_refit(&mut plan_u, col, u.clone(), 1.0)
                .unwrap();
            keyed.replan_after_refit(&mut plan_k, col, u, 1.0).unwrap();
            assert_eq!(
                keyed.performance_matrix().unwrap(),
                unkeyed.performance_matrix().unwrap(),
                "after refitting column {col}"
            );
        }
    }

    #[test]
    fn keyed_brownout_refit_lift_matches_the_unkeyed_manager() {
        let (mut unkeyed, mut keyed) = doubled_managers();
        let mut plan_u = unkeyed.plan_sparse(1e-3).unwrap();
        let mut plan_k = keyed.plan_sparse(1e-3).unwrap();
        let same = |plan_u: &PlacementPlan, plan_k: &PlacementPlan| {
            let (u, k) = (plan_u.assignment(), plan_k.assignment());
            assert_eq!(u.pairs, k.pairs);
            assert_eq!(u.total.to_bits(), k.total.to_bits());
            assert_eq!(plan_u.solution().stats, plan_k.solution().stats);
            assert_eq!(plan_u.matrix(), plan_k.matrix());
        };
        same(&plan_u, &plan_k);
        let brownout = |mgr: &ClusterManager, plan: &mut PlacementPlan| {
            mgr.replan_under_budget_incremental(plan, 0.7, 0.0).unwrap()
        };
        assert_eq!(
            brownout(&unkeyed, &mut plan_u),
            brownout(&keyed, &mut plan_k)
        );
        same(&plan_u, &plan_k);
        let refit = keyed.servers()[2].utility.clone();
        let intents_u = unkeyed
            .replan_after_refit(&mut plan_u, 5, refit.clone(), 0.7)
            .unwrap();
        let intents_k = keyed
            .replan_after_refit(&mut plan_k, 5, refit, 0.7)
            .unwrap();
        assert_eq!(intents_u, intents_k);
        same(&plan_u, &plan_k);
        let lift = |mgr: &ClusterManager, plan: &mut PlacementPlan| {
            mgr.replan_under_budget_incremental(plan, 1.0, 0.0).unwrap()
        };
        assert_eq!(lift(&unkeyed, &mut plan_u), lift(&keyed, &mut plan_k));
        same(&plan_u, &plan_k);
    }

    #[test]
    fn unused_key_fills_the_first_gap() {
        assert_eq!(unused_key(&[]), 0);
        assert_eq!(unused_key(&[1, 0, 1, 2]), 3);
        assert_eq!(unused_key(&[3, 0, 0, 2]), 1);
    }

    #[test]
    fn constraints_steer_the_placement() {
        let mgr = manager();
        let free = mgr.place(Solver::Hungarian).unwrap();
        // Forbid row 0's chosen server's class: columns 0/1 are class 0,
        // columns 2/3 are class 1.
        let classes = vec![0, 0, 1, 1];
        let chosen = free.server_for(0).unwrap();
        let banned_class = classes[chosen];
        let constrained = mgr.clone().with_constraints(
            classes.clone(),
            PlacementConstraints::new().forbid(0, banned_class),
        );
        let placed = constrained.place(Solver::Hungarian).unwrap();
        let new_col = placed.server_for(0).unwrap();
        assert_ne!(classes[new_col], banned_class, "row 0 moved off the class");
        // The same rule holds on the sparse path.
        let plan = constrained.plan_sparse(1e-3).unwrap();
        let sparse_col = plan.assignment().server_for(0).unwrap();
        assert_ne!(classes[sparse_col], banned_class);
        // Constraint-respecting placements can only lose utility.
        assert!(placed.total <= free.total + 1e-9);
        // An affinity (require) form works too.
        let required = mgr
            .clone()
            .with_constraints(classes.clone(), PlacementConstraints::new().require(1, 0));
        let r = required.place(Solver::Hungarian).unwrap();
        assert_eq!(classes[r.server_for(1).unwrap()], 0);
    }

    #[test]
    fn infeasible_constraints_error_not_silently_place() {
        let mgr = manager();
        // Every class is forbidden for row 2 — there is no admissible
        // placement, and the solver must say so.
        let constrained = mgr.with_constraints(
            vec![0, 0, 1, 1],
            PlacementConstraints::new().forbid(2, 0).forbid(2, 1),
        );
        let err = constrained.place(Solver::Hungarian).unwrap_err();
        assert!(
            matches!(err, ClusterError::ConstraintViolation { row: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn classed_replan_tracks_per_server_factors() {
        let mgr = manager();
        let incumbent = mgr.place(Solver::Hungarian).unwrap();
        // All factors 1.0 == no change, keeps the incumbent.
        let same = mgr
            .replan_under_budget_classed(&[1.0; 4], &incumbent, 0.0, Solver::Hungarian)
            .unwrap();
        assert_eq!(same.pairs, incumbent.pairs);
        // Uniform factors agree with the scalar path bit-for-bit.
        let scalar = mgr
            .replan_under_budget(0.7, &incumbent, 0.0, Solver::Hungarian)
            .unwrap();
        let vectored = mgr
            .replan_under_budget_classed(&[0.7; 4], &incumbent, 0.0, Solver::Hungarian)
            .unwrap();
        assert_eq!(scalar.pairs, vectored.pairs);
        assert_eq!(scalar.total.to_bits(), vectored.total.to_bits());
        // Non-uniform factors are a genuinely different instance: the
        // deep-derated server's column shrinks more than the others'.
        let uneven = mgr
            .replan_under_budget_classed(
                &[0.95, 0.5, 0.95, 0.95],
                &incumbent,
                0.0,
                Solver::Hungarian,
            )
            .unwrap();
        assert!(uneven.total <= incumbent.total + 1e-9);
        let intents = mgr
            .migration_intents_classed(&[0.95, 0.5, 0.95, 0.95], &incumbent, 0.0, Solver::Hungarian)
            .unwrap();
        assert_eq!(intents, migration_diff(&incumbent, &uneven));
    }

    #[test]
    #[should_panic(expected = "one cap factor per server")]
    fn classed_replan_rejects_short_factor_list() {
        let mgr = manager();
        let incumbent = mgr.place(Solver::Hungarian).unwrap();
        let _ = mgr.replan_under_budget_classed(&[0.9], &incumbent, 0.0, Solver::Hungarian);
    }

    #[test]
    fn custom_load_levels() {
        let mgr = manager().with_load_levels(vec![0.5]);
        let m = mgr.performance_matrix().unwrap();
        assert_eq!(m.rows(), 4);
        assert_eq!(mgr.be_apps().len(), 4);
        assert_eq!(mgr.servers().len(), 4);
    }

    #[test]
    fn warm_assign_resumes_from_prior_prices() {
        // A region with 6 slots and 4 resident apps; one app drains out
        // and a migrant arrives. The re-admission solve warm-starts from
        // the standing prices and must still be optimal within ε·rows.
        let values = |rows: &[usize]| -> Vec<Vec<f64>> {
            rows.iter()
                .map(|&r| {
                    (0..6)
                        .map(|c| 1.0 + ((r * 7 + c * 3) % 11) as f64 / 11.0)
                        .collect()
                })
                .collect()
        };
        let mk = |rows: &[usize]| {
            PerfMatrix::new(
                rows.iter().map(|r| format!("app{r}")).collect(),
                (0..6).map(|c| format!("slot{c}")).collect(),
                values(rows),
            )
            .unwrap()
        };
        let eps = 1e-3;
        let before = mk(&[0, 1, 2, 3]);
        let cold = warm_assign(&before, None, eps).unwrap();
        assert!(cold.certified);

        let after = mk(&[0, 1, 3, 9]); // app2 drained, app9 arrived
        let warm = warm_assign(&after, Some(&cold.prices), eps).unwrap();
        assert!(warm.certified);
        let exact = assign::solve(&after, Solver::Hungarian).unwrap();
        assert!(exact.total - warm.assignment.total <= eps * 4.0 + 1e-9);

        // A stale price vector of the wrong length falls back to cold.
        let fallback = warm_assign(&after, Some(&[0.0; 3]), eps).unwrap();
        assert!(fallback.certified);
    }
}
