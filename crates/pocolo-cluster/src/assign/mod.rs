//! Assignment solvers over a [`PerfMatrix`].
//!
//! The paper's cluster manager "uses a LP solver to identify an assignment
//! that maximizes the overall cluster performance" and cites the Hungarian
//! method and randomization as standard alternatives (§IV-B, refs
//! \[28–30\]). All of them are implemented here from scratch, plus the
//! exhaustive search used as the oracle in Fig. 14 and the sparse
//! forward-auction path ([`auction`]) that scales replans to 10k-server
//! fleets.

pub mod auction;
pub mod fairness;
pub mod hungarian;
mod ranked;
pub mod search;
pub mod simplex;
pub mod sparse;

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::error::ClusterError;
use crate::matrix::PerfMatrix;

/// Below these dimensions the auction's pruning/scaling machinery costs
/// more than an exact dense solve, so `Solver::Auction` silently falls
/// back to Hungarian (DESIGN.md §8).
const AUCTION_DENSE_ROWS: usize = 6;
const AUCTION_DENSE_COLS: usize = 8;

/// Which algorithm to use for placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Solver {
    /// Exact O(n³) Kuhn-Munkres.
    Hungarian,
    /// Two-phase dense simplex on the assignment LP (integral at optimum).
    Lp,
    /// Brute-force over all placements — exponential, oracle only.
    Exhaustive,
    /// Uniform random one-BE-per-server placement (the paper's baseline).
    Random {
        /// RNG seed for reproducibility.
        seed: u64,
    },
    /// Max-min fair: maximize the worst co-runner's throughput first, then
    /// the total (the fairness objective the paper's POColo trades away).
    MaxMinFair,
    /// Sparse forward auction with ε-scaling: total within ε·rows of the
    /// optimum, scales to 10k-server fleets ([`auction`]).
    Auction {
        /// Per-row optimality tolerance.
        eps: f64,
    },
}

impl std::fmt::Display for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Solver::Hungarian => f.write_str("hungarian"),
            Solver::Lp => f.write_str("lp"),
            Solver::Exhaustive => f.write_str("exhaustive"),
            Solver::Random { seed } => write!(f, "random:{seed}"),
            Solver::MaxMinFair => f.write_str("fair"),
            Solver::Auction { eps } => write!(f, "auction:{eps}"),
        }
    }
}

impl std::str::FromStr for Solver {
    type Err = String;

    /// Parses the [`Display`](Solver#impl-Display-for-Solver) form:
    /// `hungarian`, `lp`, `exhaustive`, `fair`, `random:<seed>`, or
    /// `auction` / `auction:<eps>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "hungarian" => Ok(Solver::Hungarian),
            "lp" => Ok(Solver::Lp),
            "exhaustive" => Ok(Solver::Exhaustive),
            "fair" => Ok(Solver::MaxMinFair),
            "auction" => Ok(Solver::Auction {
                eps: auction::DEFAULT_EPS,
            }),
            other => {
                if let Some(seed) = other.strip_prefix("random:") {
                    return seed
                        .parse()
                        .map(|seed| Solver::Random { seed })
                        .map_err(|_| format!("bad random-solver seed {seed:?}"));
                }
                if let Some(eps) = other.strip_prefix("auction:") {
                    return match eps.parse::<f64>() {
                        Ok(e) if e.is_finite() && e > 0.0 => Ok(Solver::Auction { eps: e }),
                        _ => Err(format!(
                            "bad auction eps {eps:?} (want a positive number, e.g. auction:0.001)"
                        )),
                    };
                }
                Err(format!(
                    "unknown solver {other:?} (want hungarian, lp, exhaustive, fair, random:<seed>, or auction:<eps>)"
                ))
            }
        }
    }
}

/// A placement: `pairs[(be_row, server_col)]` plus its total value.
///
/// Built through [`Assignment::new`], which sorts `pairs` by row — the
/// sort order is what makes [`Assignment::server_for`] a binary search.
/// The column index behind [`Assignment::app_on`] is built once on first
/// use; if you mutate `pairs` in place, do it before the first `app_on`
/// call.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// `(row, col)` pairs, sorted by row.
    pub pairs: Vec<(usize, usize)>,
    /// Sum of matrix entries over the pairs.
    pub total: f64,
    /// Lazily-built `(col, row)` pairs sorted by col, for `app_on`.
    col_index: OnceLock<Vec<(usize, usize)>>,
}

impl PartialEq for Assignment {
    fn eq(&self, other: &Self) -> bool {
        self.pairs == other.pairs && self.total == other.total
    }
}

impl Assignment {
    /// Builds an assignment, sorting `pairs` by row.
    pub fn new(mut pairs: Vec<(usize, usize)>, total: f64) -> Self {
        pairs.sort_unstable();
        Assignment {
            pairs,
            total,
            col_index: OnceLock::new(),
        }
    }

    /// The server column assigned to best-effort row `row`, if any.
    /// O(log pairs) — called per-tick in placement hot paths.
    pub fn server_for(&self, row: usize) -> Option<usize> {
        self.pairs
            .binary_search_by_key(&row, |&(r, _)| r)
            .ok()
            .map(|i| self.pairs[i].1)
    }

    /// The best-effort row placed on server `col`, if any. O(log pairs)
    /// after a build-once column index.
    pub fn app_on(&self, col: usize) -> Option<usize> {
        let index = self.col_index.get_or_init(|| {
            let mut by_col: Vec<(usize, usize)> = self.pairs.iter().map(|&(r, c)| (c, r)).collect();
            by_col.sort_unstable();
            by_col
        });
        index
            .binary_search_by_key(&col, |&(c, _)| c)
            .ok()
            .map(|i| index[i].1)
    }
}

/// Solves the placement problem with the chosen algorithm.
///
/// Disabled (faulted-out) columns are handled natively by the auction
/// path and projected out before any dense solver runs, so no solver ever
/// places an app on a server that left the fleet.
///
/// # Errors
///
/// Returns [`ClusterError::TooManyApps`] when rows exceed enabled
/// columns, and solver-specific errors ([`ClusterError::Infeasible`] /
/// [`ClusterError::Unbounded`] from the LP).
pub fn solve(matrix: &PerfMatrix, solver: Solver) -> Result<Assignment, ClusterError> {
    if matrix.rows() > matrix.enabled_cols() {
        return Err(ClusterError::TooManyApps {
            apps: matrix.rows(),
            servers: matrix.enabled_cols(),
        });
    }
    if let Solver::Auction { eps } = solver {
        // Fleet-scale instances take the sparse path; tiny ones fall
        // through to the dense Hungarian fallback below.
        if matrix.rows() > AUCTION_DENSE_ROWS || matrix.cols() > AUCTION_DENSE_COLS {
            return auction::solve(matrix, &auction::AuctionConfig::with_eps(eps))
                .map(|sol| sol.assignment);
        }
    }
    match matrix.compact_enabled()? {
        None => solve_dense(matrix, solver),
        Some((compact, col_map)) => {
            let a = solve_dense(&compact, solver)?;
            let pairs: Vec<(usize, usize)> =
                a.pairs.iter().map(|&(r, c)| (r, col_map[c])).collect();
            Ok(Assignment::new(pairs, a.total))
        }
    }
}

/// Dense dispatch over a fully-enabled matrix.
fn solve_dense(matrix: &PerfMatrix, solver: Solver) -> Result<Assignment, ClusterError> {
    let assignment = match solver {
        Solver::Hungarian => hungarian::solve_max(matrix),
        Solver::Lp => simplex::solve_assignment_lp(matrix)?,
        Solver::Exhaustive => search::exhaustive_max(matrix),
        Solver::MaxMinFair => fairness::solve_max_min_fair(matrix)?,
        // Small-instance fallback: exact, deterministic, cheaper than the
        // auction's scaling schedule at these sizes.
        Solver::Auction { .. } => hungarian::solve_max(matrix),
        Solver::Random { seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cols: Vec<usize> = (0..matrix.cols()).collect();
            cols.shuffle(&mut rng);
            let pairs: Vec<(usize, usize)> = (0..matrix.rows()).map(|r| (r, cols[r])).collect();
            let total = matrix.assignment_value(&pairs);
            Assignment::new(pairs, total)
        }
    };
    Ok(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixDelta;

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

    #[test]
    fn all_exact_solvers_agree_on_small_instance() {
        let m = matrix(vec![
            vec![0.9, 0.2, 0.3, 0.1],
            vec![0.4, 0.8, 0.2, 0.2],
            vec![0.3, 0.3, 0.7, 0.4],
            vec![0.1, 0.2, 0.4, 0.6],
        ]);
        let h = solve(&m, Solver::Hungarian).unwrap();
        let l = solve(&m, Solver::Lp).unwrap();
        let e = solve(&m, Solver::Exhaustive).unwrap();
        assert!((h.total - e.total).abs() < 1e-9, "hungarian {h:?} vs {e:?}");
        assert!((l.total - e.total).abs() < 1e-9, "lp {l:?} vs {e:?}");
        assert_eq!(e.total, 0.9 + 0.8 + 0.7 + 0.6);
    }

    #[test]
    fn random_is_valid_but_usually_worse() {
        let m = matrix(vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        let opt = solve(&m, Solver::Exhaustive).unwrap();
        let mut worse = 0;
        for seed in 0..20 {
            let r = solve(&m, Solver::Random { seed }).unwrap();
            // Valid: one app per server.
            let mut cols: Vec<usize> = r.pairs.iter().map(|&(_, c)| c).collect();
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(cols.len(), 3);
            if r.total < opt.total - 1e-9 {
                worse += 1;
            }
        }
        assert!(
            worse > 10,
            "random should usually miss the diagonal optimum"
        );
    }

    #[test]
    fn random_is_reproducible() {
        let m = matrix(vec![vec![0.3, 0.4], vec![0.2, 0.9]]);
        let a = solve(&m, Solver::Random { seed: 11 }).unwrap();
        let b = solve(&m, Solver::Random { seed: 11 }).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rectangular_more_servers_than_apps() {
        let m = matrix(vec![vec![0.1, 0.9, 0.5], vec![0.8, 0.7, 0.2]]);
        let h = solve(&m, Solver::Hungarian).unwrap();
        let e = solve(&m, Solver::Exhaustive).unwrap();
        let l = solve(&m, Solver::Lp).unwrap();
        assert!((h.total - e.total).abs() < 1e-9);
        assert!((l.total - e.total).abs() < 1e-9);
        assert_eq!(e.total, 0.9 + 0.8);
    }

    #[test]
    fn too_many_apps_rejected() {
        let m = matrix(vec![vec![0.1], vec![0.2]]);
        assert!(matches!(
            solve(&m, Solver::Hungarian),
            Err(ClusterError::TooManyApps { .. })
        ));
    }

    #[test]
    fn disabled_columns_excluded_from_dense_solvers() {
        // Column 1 holds the best value for both rows; disabling it must
        // push every solver elsewhere — and count against feasibility.
        let m = matrix(vec![vec![0.1, 0.9, 0.5], vec![0.2, 0.8, 0.3]]);
        let faulted = m.patched(&MatrixDelta::new().disable_column(1)).unwrap();
        for solver in [
            Solver::Hungarian,
            Solver::Lp,
            Solver::Exhaustive,
            Solver::MaxMinFair,
            Solver::Auction {
                eps: auction::DEFAULT_EPS,
            },
        ] {
            let a = solve(&faulted, solver).unwrap();
            assert!(
                a.pairs.iter().all(|&(_, c)| c != 1),
                "{solver} used a disabled column: {a:?}"
            );
            assert_eq!(a.pairs.len(), 2);
        }
        let dead = m
            .patched(&MatrixDelta::new().disable_column(0).disable_column(1))
            .unwrap();
        assert!(matches!(
            solve(&dead, Solver::Hungarian),
            Err(ClusterError::TooManyApps {
                apps: 2,
                servers: 1
            })
        ));
    }

    #[test]
    fn auction_small_instance_falls_back_to_exact() {
        let m = matrix(vec![
            vec![0.9, 0.2, 0.3],
            vec![0.4, 0.8, 0.2],
            vec![0.3, 0.3, 0.7],
        ]);
        let a = solve(
            &m,
            Solver::Auction {
                eps: auction::DEFAULT_EPS,
            },
        )
        .unwrap();
        let e = solve(&m, Solver::Exhaustive).unwrap();
        assert!((a.total - e.total).abs() < 1e-9, "fallback is exact");
    }

    #[test]
    fn accessors() {
        let m = matrix(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let a = solve(&m, Solver::Hungarian).unwrap();
        assert_eq!(a.server_for(0), Some(0));
        assert_eq!(a.app_on(1), Some(1));
        assert_eq!(a.server_for(9), None);
        assert_eq!(a.app_on(9), None);
    }

    #[test]
    fn indexed_accessors_agree_with_linear_scan() {
        // A sparse rectangular placement exercises the binary search and
        // the built-once column index off the hot path.
        let pairs = vec![(0, 7), (1, 3), (2, 11), (5, 0), (9, 4)];
        let a = Assignment::new(pairs.clone(), 1.0);
        for row in 0..12 {
            let want = pairs.iter().find(|&&(r, _)| r == row).map(|&(_, c)| c);
            assert_eq!(a.server_for(row), want, "server_for({row})");
        }
        for col in 0..12 {
            let want = pairs.iter().find(|&&(_, c)| c == col).map(|&(r, _)| r);
            assert_eq!(a.app_on(col), want, "app_on({col})");
        }
    }

    #[test]
    fn new_sorts_pairs_by_row() {
        let a = Assignment::new(vec![(2, 0), (0, 2), (1, 1)], 3.0);
        assert_eq!(a.pairs, vec![(0, 2), (1, 1), (2, 0)]);
        assert_eq!(a.server_for(2), Some(0));
    }

    #[test]
    fn solver_display_from_str_round_trips() {
        let solvers = [
            Solver::Hungarian,
            Solver::Lp,
            Solver::Exhaustive,
            Solver::MaxMinFair,
            Solver::Random { seed: 42 },
            Solver::Auction { eps: 0.001 },
            Solver::Auction { eps: 0.25 },
        ];
        for s in solvers {
            let text = s.to_string();
            let back: Solver = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, s, "{text} did not round-trip");
        }
        // Bare `auction` means the default ε.
        assert_eq!(
            "auction".parse::<Solver>().unwrap(),
            Solver::Auction {
                eps: auction::DEFAULT_EPS
            }
        );
    }

    #[test]
    fn malformed_solver_strings_fail_fast() {
        for bad in [
            "quantum",
            "auction:",
            "auction:zero",
            "auction:-1",
            "auction:nan",
            "random:x",
        ] {
            let err = bad.parse::<Solver>().unwrap_err();
            assert!(!err.is_empty(), "{bad} should not parse");
            assert!(!err.contains('\n'), "one-line error for {bad}: {err:?}");
        }
        assert!(
            "auction:0".parse::<Solver>().is_err(),
            "eps must be positive"
        );
    }

    #[test]
    fn exact_solvers_match_on_random_matrices() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..30 {
            let n = rng.gen_range(2..=5);
            let mcols = rng.gen_range(n..=6);
            let vals: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..mcols).map(|_| rng.gen_range(0.0..10.0)).collect())
                .collect();
            let m = matrix(vals);
            let h = solve(&m, Solver::Hungarian).unwrap();
            let e = solve(&m, Solver::Exhaustive).unwrap();
            let l = solve(&m, Solver::Lp).unwrap();
            assert!(
                (h.total - e.total).abs() < 1e-6,
                "hungarian {} != exhaustive {} on {m}",
                h.total,
                e.total
            );
            assert!(
                (l.total - e.total).abs() < 1e-6,
                "lp {} != exhaustive {} on {m}",
                l.total,
                e.total
            );
        }
    }
}
