//! Fleet-scale assignment benchmark (§IV-B systems claim).
//!
//! The dense solvers stop being viable long before fleet scale, so the
//! sparse auction path ([`pocolo_cluster::assign::auction`]) carries the
//! 10k-server claim. This module generates synthetic fleets whose columns
//! have *class structure* — servers come in a handful of SKUs, exactly the
//! geometry the candidate-pruning LSH exploits — and measures three
//! scenarios per size:
//!
//! - **cold**: candidate build + ε-scaled auction from zero prices;
//! - **warm**: one bidding phase from the previous replan's prices
//!   (the steady-state replan);
//! - **incremental**: [`auction::solve_incremental`] after a single-server
//!   fault ([`MatrixDelta`] disabling one assigned column).
//!
//! Timings are self-measured medians (the vendored criterion shim has no
//! programmatic median export) and land in `BENCH_assignment.json`, the
//! repo's first standing perf baseline. Warm and incremental samples each
//! start from a copy of the reference candidate lists; the copy is not
//! timed, since replans patch their lists in place. The `--smoke` entry point
//! ([`smoke`]) is the CI gate: it asserts the certified optimality gap
//! against dense Hungarian, the O(k · dirtied rows) incremental bidding
//! bound and the fleet-width-independent certification bound, so the
//! gate stays timing-independent.

use std::hint::black_box;
use std::time::Instant;

use pocolo_cluster::assign::auction::{self, AuctionConfig, AuctionSolution, DEFAULT_EPS};
use pocolo_cluster::assign::sparse::SparseCandidates;
use pocolo_cluster::assign::{self, hungarian};
use pocolo_cluster::matrix::{MatrixDelta, PerfMatrix};
use pocolo_core::fleet::FleetSpec;
use rand::prelude::*;

/// Server SKU classes in the synthetic fleet. Real fleets have a handful
/// of hardware generations; the pruning buckets key on exactly this.
pub const CLASSES: usize = 12;

/// Resource archetypes spanning the preference geometry (compute-bound,
/// cache-bound, bandwidth-bound, balanced).
const ARCHETYPES: usize = 4;

/// Columns above this are out of reach for the dense Hungarian baseline
/// in a benchmark loop (O(rows²·cols) with rows = BE apps).
pub const DENSE_LIMIT: usize = 2_000;

/// The `(be_rows, servers)` sizes the standard report sweeps.
pub const STANDARD_SIZES: [(usize, usize); 3] = [(100, 1_000), (200, 2_000), (500, 10_000)];

/// Builds a synthetic BE×server matrix with clustered column geometry:
/// each server belongs to one of [`CLASSES`] SKUs, each SKU has a profile
/// over `ARCHETYPES` resource archetypes, and a BE row's throughput on a
/// server is its archetype affinity dotted with the SKU profile, scaled by
/// a small per-server jitter (wear, thermal headroom). Deterministic in
/// `seed`.
pub fn synthetic_matrix(be_rows: usize, servers: usize, seed: u64) -> PerfMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let profiles: Vec<Vec<f64>> = (0..CLASSES)
        .map(|_| (0..ARCHETYPES).map(|_| rng.gen_range(0.1..1.0)).collect())
        .collect();
    let col_class: Vec<usize> = (0..servers).map(|_| rng.gen_range(0..CLASSES)).collect();
    let col_jitter: Vec<f64> = (0..servers).map(|_| rng.gen_range(0.9..1.1)).collect();
    let affinity: Vec<Vec<f64>> = (0..be_rows)
        .map(|_| (0..ARCHETYPES).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let values: Vec<Vec<f64>> = affinity
        .iter()
        .map(|aff| {
            (0..servers)
                .map(|j| {
                    let dot: f64 = aff
                        .iter()
                        .zip(&profiles[col_class[j]])
                        .map(|(a, p)| a * p)
                        .sum();
                    dot * col_jitter[j]
                })
                .collect()
        })
        .collect();
    PerfMatrix::new(
        (0..be_rows).map(|i| format!("be{i}")).collect(),
        (0..servers).map(|j| format!("lc{j}")).collect(),
        values,
    )
    .expect("synthetic matrix is well-formed")
}

/// Builds a BE×server matrix over a *real* heterogeneous fleet: column
/// SKUs come from a [`FleetSpec`] (largest-remainder apportionment via
/// [`FleetSpec::assign`]) rather than the synthetic [`CLASSES`] draw, and
/// each SKU's archetype profile is derived from its hardware geometry —
/// compute from cores × peak frequency, cache from LLC ways, efficiency
/// from peak-power headroom, plus a balanced blend. Rows keep the random
/// archetype affinities of [`synthetic_matrix`], so the two generators
/// differ only in where the column clusters come from. Deterministic in
/// `seed`.
pub fn synthetic_fleet_matrix(
    be_rows: usize,
    servers: usize,
    spec: &FleetSpec,
    seed: u64,
) -> PerfMatrix {
    let col_class = spec.assign(servers, seed);
    // Raw per-SKU capability axes, normalized below so the largest SKU
    // scores 1.0 on each axis (profiles stay in the synthetic range).
    let raw: Vec<[f64; 3]> = (0..spec.n_classes())
        .map(|c| {
            let class = spec.class(c);
            [
                f64::from(class.cores()) * class.freq_max().0,
                f64::from(class.llc_ways()),
                (class.peak_watts().0 - class.idle_watts().0).max(1.0),
            ]
        })
        .collect();
    let axis_max: Vec<f64> = (0..3)
        .map(|axis| raw.iter().map(|r| r[axis]).fold(1e-12, f64::max))
        .collect();
    let profiles: Vec<Vec<f64>> = raw
        .iter()
        .map(|r| {
            let scaled: Vec<f64> = r
                .iter()
                .zip(&axis_max)
                .map(|(v, m)| 0.1 + 0.9 * v / m)
                .collect();
            let balanced = scaled.iter().sum::<f64>() / scaled.len() as f64;
            let mut p = scaled;
            p.push(balanced);
            debug_assert_eq!(p.len(), ARCHETYPES);
            p
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(seed);
    let col_jitter: Vec<f64> = (0..servers).map(|_| rng.gen_range(0.9..1.1)).collect();
    let values: Vec<Vec<f64>> = (0..be_rows)
        .map(|_| {
            let aff: Vec<f64> = (0..ARCHETYPES).map(|_| rng.gen_range(0.0..1.0)).collect();
            (0..servers)
                .map(|j| {
                    let dot: f64 = aff
                        .iter()
                        .zip(&profiles[col_class[j]])
                        .map(|(a, p)| a * p)
                        .sum();
                    dot * col_jitter[j]
                })
                .collect()
        })
        .collect();
    PerfMatrix::new(
        (0..be_rows).map(|i| format!("be{i}")).collect(),
        (0..servers).map(|j| format!("lc{j}")).collect(),
        values,
    )
    .expect("fleet matrix is well-formed")
}

/// Median wall-clock nanoseconds of `iters` runs of `f`.
pub fn median_ns<T>(iters: usize, mut f: impl FnMut() -> T) -> u64 {
    median_ns_with(iters, || (), |()| f())
}

/// Median wall-clock nanoseconds of `iters` runs of `f`, each on a fresh
/// value from `setup`, which is not timed.
pub fn median_ns_with<S, T>(
    iters: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(S) -> T,
) -> u64 {
    let mut samples: Vec<u64> = (0..iters.max(1))
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            black_box(f(input));
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The single-server-fault delta: the first assigned column goes dark.
pub fn fault_delta(prev: &AuctionSolution) -> MatrixDelta {
    let victim = prev
        .assignment
        .pairs
        .first()
        .expect("non-empty placement")
        .1;
    MatrixDelta::new().disable_column(victim)
}

/// One `BENCH_assignment.json` row.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Scenario label: `auction_cold` / `auction_warm` /
    /// `auction_incremental` / `hungarian`.
    pub solver: String,
    /// Servers (matrix columns).
    pub n: usize,
    /// BE applications (matrix rows).
    pub m: usize,
    /// Median wall-clock nanoseconds over [`ScaleReport::iters`] runs.
    pub median_ns: u64,
}

pocolo_json::impl_to_json!(BenchRow {
    solver,
    n,
    m,
    median_ns
});

/// The standing perf baseline written to `BENCH_assignment.json`.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Auction ε (absolute, same unit as matrix throughput).
    pub eps: f64,
    /// Samples per scenario; rows carry the median.
    pub iters: usize,
    /// One row per (scenario, size).
    pub rows: Vec<BenchRow>,
}

pocolo_json::impl_to_json!(ScaleReport { eps, iters, rows });

/// Measures one fleet size and appends cold/warm/incremental (and, when
/// `servers ≤` [`DENSE_LIMIT`], Hungarian) rows. Returns the certified
/// optimality gap vs. Hungarian when the dense baseline ran.
pub fn run_case(
    be_rows: usize,
    servers: usize,
    eps: f64,
    iters: usize,
    rows: &mut Vec<BenchRow>,
) -> Option<f64> {
    let matrix = synthetic_matrix(be_rows, servers, size_seed(be_rows, servers));
    let prev = measure_auction(&matrix, "", eps, iters, rows);

    if servers <= DENSE_LIMIT {
        let mut exact_total = 0.0;
        let dense_ns = median_ns(iters, || {
            exact_total = hungarian::solve_max(&matrix).total;
        });
        rows.push(BenchRow {
            solver: "hungarian".into(),
            n: servers,
            m: be_rows,
            median_ns: dense_ns,
        });
        return Some(exact_total - prev.assignment.total);
    }
    None
}

/// Measures the cold/warm/incremental auction scenarios on `matrix`,
/// appending rows whose solver labels carry `suffix` (`""` for the
/// synthetic fleet, `"_mixed3"` for the heterogeneous variant). Returns
/// the certified reference solution so callers can baseline against it.
fn measure_auction(
    matrix: &PerfMatrix,
    suffix: &str,
    eps: f64,
    iters: usize,
    rows: &mut Vec<BenchRow>,
) -> AuctionSolution {
    let cfg = AuctionConfig::with_eps(eps);
    let (be_rows, servers) = (matrix.rows(), matrix.cols());
    let mut push = |solver: String, ns: u64| {
        rows.push(BenchRow {
            solver,
            n: servers,
            m: be_rows,
            median_ns: ns,
        });
    };

    let cold_ns = median_ns(iters, || auction::solve(matrix, &cfg).expect("cold solve"));
    push(format!("auction_cold{suffix}"), cold_ns);

    // Reference solve whose candidates + prices seed the replan scenarios.
    let mut cands = SparseCandidates::build(matrix, SparseCandidates::default_k(servers));
    let prev = auction::solve_with_candidates(matrix, &mut cands, &cfg).expect("reference solve");
    assert!(prev.certified, "reference solve must certify");

    // Replans patch the plan's candidate lists in place, so the copy each
    // sample starts from is not timed.
    let warm_ns = median_ns_with(
        iters,
        || cands.clone(),
        |mut c| auction::solve_warm(matrix, &mut c, &prev.prices, &cfg).expect("warm solve"),
    );
    push(format!("auction_warm{suffix}"), warm_ns);

    let delta = fault_delta(&prev);
    let patched = matrix.patched(&delta).expect("patched matrix");
    let inc_ns = median_ns_with(
        iters,
        || cands.clone(),
        |mut c| {
            auction::solve_incremental(&patched, &mut c, &prev, &delta, &cfg).expect("incremental")
        },
    );
    push(format!("auction_incremental{suffix}"), inc_ns);
    prev
}

/// The heterogeneous-fleet variant of [`run_case`]: same scenarios, but
/// the columns are apportioned across a real [`FleetSpec`]'s SKUs via
/// [`synthetic_fleet_matrix`]. Rows are tagged `_<tag>` so the report
/// keeps both fleets side by side at the same size.
pub fn run_fleet_case(
    be_rows: usize,
    servers: usize,
    spec: &FleetSpec,
    tag: &str,
    eps: f64,
    iters: usize,
    rows: &mut Vec<BenchRow>,
) {
    let matrix = synthetic_fleet_matrix(be_rows, servers, spec, size_seed(be_rows, servers));
    measure_auction(&matrix, &format!("_{tag}"), eps, iters, rows);
}

/// Runs [`STANDARD_SIZES`] at [`DEFAULT_EPS`] and returns the baseline
/// report, printing per-size lines (and the gap where Hungarian ran).
pub fn run_standard(iters: usize) -> ScaleReport {
    let mut rows = Vec::new();
    for &(m, n) in &STANDARD_SIZES {
        println!("assignment_scale: {n} servers x {m} BE apps ({iters} samples)...");
        let before = rows.len();
        let gap = run_case(m, n, DEFAULT_EPS, iters, &mut rows);
        for row in &rows[before..] {
            println!("  {:<22} median {:>12} ns", row.solver, row.median_ns);
        }
        if let Some(gap) = gap {
            println!(
                "  optimality gap vs hungarian: {gap:.6} (bound eps*m = {:.6})",
                DEFAULT_EPS * m as f64
            );
        }
    }
    // Heterogeneous variant at fleet scale only: the sparse 10k-server
    // path is the one whose pruning must survive a mixed-SKU geometry.
    let spec = FleetSpec::preset("mixed3").expect("mixed3 preset exists");
    let (m, n) = *STANDARD_SIZES.last().expect("at least one size");
    println!("assignment_scale: {n} servers x {m} BE apps, mixed3 fleet ({iters} samples)...");
    let before = rows.len();
    run_fleet_case(m, n, &spec, "mixed3", DEFAULT_EPS, iters, &mut rows);
    for row in &rows[before..] {
        println!("  {:<28} median {:>12} ns", row.solver, row.median_ns);
    }
    ScaleReport {
        eps: DEFAULT_EPS,
        iters,
        rows,
    }
}

/// The CI gate: a 1k×100 cold auction solve plus a single-server-fault
/// incremental repair, with correctness asserted via the certified dual
/// gap and operation counters — no wall-clock thresholds.
///
/// # Panics
///
/// Panics (failing the CI step) if the solve does not certify, the gap
/// vs. dense Hungarian exceeds ε·rows, the incremental repair examines
/// more than O(k · dirtied rows) candidate edges, or its certification
/// reads more than O(rows · (rows + prefix width)) entries per sweep or
/// as many as one dense sweep.
pub fn smoke() {
    let (be_rows, servers) = (100usize, 1_000usize);
    let cfg = AuctionConfig::with_eps(DEFAULT_EPS);
    let matrix = synthetic_matrix(be_rows, servers, size_seed(be_rows, servers));
    let tol = 1e-9 * (1.0 + matrix.max_value()) * be_rows as f64;

    let start = Instant::now();
    let mut cands = SparseCandidates::build(&matrix, SparseCandidates::default_k(servers));
    let sol = auction::solve_with_candidates(&matrix, &mut cands, &cfg).expect("cold solve");
    let cold = start.elapsed();
    assert!(sol.certified, "cold solve must certify optimality");

    let exact = hungarian::solve_max(&matrix);
    let gap = exact.total - sol.assignment.total;
    let bound = cfg.eps * be_rows as f64 + tol;
    assert!(
        gap <= bound,
        "optimality gap {gap} exceeds eps*rows bound {bound}"
    );

    let delta = fault_delta(&sol);
    let patched = matrix.patched(&delta).expect("patched matrix");
    let start = Instant::now();
    let repaired = auction::solve_incremental(&patched, &mut cands, &sol, &delta, &cfg)
        .expect("incremental repair");
    let inc = start.elapsed();
    assert!(repaired.certified, "incremental repair must certify");

    // O(k · dirtied rows) candidate edges, with headroom for the
    // certification repair loop — mirrors the PR 1 solve-counter pattern.
    let budget = ((cands.k() + 8) * repaired.stats.dirty_rows.max(1) * 16) as u64;
    assert!(
        repaired.stats.bid_edges <= budget,
        "incremental repair scanned {} edges, budget {budget} (k={}, dirty_rows={})",
        repaired.stats.bid_edges,
        cands.k(),
        repaired.stats.dirty_rows
    );

    // Certification is sparse: per sweep and row, the owned columns plus
    // a walk of the row's ranked prefix (2 · rows wide), independent of
    // the fleet width. Sweeps are the first plus one per repair round.
    let rows = be_rows as u64;
    let sweeps = u64::from(repaired.stats.widen_rounds) + 1;
    let cert_budget = sweeps * rows * (rows + 2 * rows);
    let dense_sweep = rows * patched.enabled_cols() as u64;
    assert!(
        repaired.stats.cert_edges <= cert_budget,
        "incremental certification read {} entries, budget {cert_budget} ({sweeps} sweeps)",
        repaired.stats.cert_edges
    );
    assert!(
        repaired.stats.cert_edges < dense_sweep,
        "incremental certification read {} entries, not below one dense sweep ({dense_sweep})",
        repaired.stats.cert_edges
    );

    // Through the dispatcher so the disabled column is projected out.
    let exact_patched = assign::solve(&patched, assign::Solver::Hungarian).expect("exact solve");
    let inc_gap = exact_patched.total - repaired.assignment.total;
    assert!(
        inc_gap <= bound,
        "incremental gap {inc_gap} exceeds eps*rows bound {bound}"
    );

    println!("assignment-scale smoke: PASS");
    println!(
        "  cold  {servers}x{be_rows}: total {:.4}, gap {gap:.6} <= {bound:.6}, {} ms",
        sol.assignment.total,
        cold.as_millis()
    );
    println!(
        "  fault repair: dirty_rows {}, bid_edges {} <= {budget}, gap {inc_gap:.6}, {} ms",
        repaired.stats.dirty_rows,
        repaired.stats.bid_edges,
        inc.as_millis()
    );
    println!(
        "  certification: cert_edges {} <= {cert_budget} ({sweeps} sweeps), dense sweep {dense_sweep}",
        repaired.stats.cert_edges
    );
}

/// Per-size generator seed, so every scenario at a size shares a fleet.
fn size_seed(be_rows: usize, servers: usize) -> u64 {
    0x5CA1_E000 ^ ((servers as u64) << 20) ^ be_rows as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_matrix_is_deterministic_and_clustered() {
        let a = synthetic_matrix(8, 40, 7);
        let b = synthetic_matrix(8, 40, 7);
        assert_eq!(a.values(), b.values());
        // Class structure: the LSH finds far fewer buckets than columns.
        let cands = SparseCandidates::build(&a, 4);
        assert!(cands.buckets().bucket_count() < 40);
    }

    #[test]
    fn small_case_reports_all_scenarios_and_small_gap() {
        let mut rows = Vec::new();
        let gap = run_case(12, 60, DEFAULT_EPS, 3, &mut rows).expect("dense baseline in range");
        let solvers: Vec<&str> = rows.iter().map(|r| r.solver.as_str()).collect();
        assert_eq!(
            solvers,
            [
                "auction_cold",
                "auction_warm",
                "auction_incremental",
                "hungarian"
            ]
        );
        assert!(gap <= DEFAULT_EPS * 12.0 + 1e-6, "gap {gap} too large");
    }

    #[test]
    fn fleet_matrix_is_deterministic_and_keeps_sku_clusters() {
        let spec = FleetSpec::preset("mixed3").expect("mixed3 preset");
        let a = synthetic_fleet_matrix(8, 60, &spec, 7);
        let b = synthetic_fleet_matrix(8, 60, &spec, 7);
        assert_eq!(a.values(), b.values());
        // Three SKUs, not sixty geometries: the LSH buckets stay few.
        let cands = SparseCandidates::build(&a, 4);
        assert!(cands.buckets().bucket_count() < 60);
    }

    #[test]
    fn fleet_case_reports_tagged_scenarios_that_certify() {
        let spec = FleetSpec::preset("mixed3").expect("mixed3 preset");
        let mut rows = Vec::new();
        run_fleet_case(12, 60, &spec, "mixed3", DEFAULT_EPS, 3, &mut rows);
        let solvers: Vec<&str> = rows.iter().map(|r| r.solver.as_str()).collect();
        assert_eq!(
            solvers,
            [
                "auction_cold_mixed3",
                "auction_warm_mixed3",
                "auction_incremental_mixed3"
            ]
        );
        // The dense baseline still certifies the mixed geometry.
        let matrix = synthetic_fleet_matrix(12, 60, &spec, size_seed(12, 60));
        let sol = auction::solve(&matrix, &AuctionConfig::with_eps(DEFAULT_EPS)).expect("solve");
        let exact = hungarian::solve_max(&matrix);
        assert!(sol.certified);
        assert!(exact.total - sol.assignment.total <= DEFAULT_EPS * 12.0 + 1e-6);
    }
}
