//! `fleet-faults`: a keyed `mixed3` fleet is planned once, then a seeded
//! stream of single-server events (server loss, model refit) and a few
//! brownouts is replayed one event at a time. Closed loop: each replan
//! starts when the previous one returns.
//!
//! The stream is replayed in epochs; every epoch starts from a copy of the
//! cold plan (copying is not timed), so the fleet never runs out of
//! servers and every epoch must end on the same placement.

use std::time::Instant;

use pocolo_cluster::assign::auction::{self, AuctionConfig, AuctionStats, DEFAULT_EPS};
use pocolo_cluster::{
    ClusterManager, PerfMatrixBuilder, PlacementPlan, ServerProfile, SparseCandidates,
};
use pocolo_core::fleet::FleetSpec;
use pocolo_core::utility::{CobbDouglas, IndirectUtility};
use pocolo_sim::experiment::FittedCluster;
use pocolo_sim::faults::ResilienceConfig;
use pocolo_simserver::MachineSpec;
use pocolo_workloads::profiler::ProfilerConfig;
use rand::prelude::*;

use crate::report::Outcome;
use crate::stats::{quantile, Spread};
use crate::trace::Tracer;
use crate::{Config, Size, Window};

/// Fleet and stream dimensions.
struct Dims {
    servers: usize,
    be_rows: usize,
    /// Cold set-ups timed before each epoch; `setup_s` is the median of
    /// all of them.
    setups: usize,
    /// Single-server events per epoch.
    singles: usize,
    /// Brownout replans per epoch (alternating shrink and lift).
    brownouts: usize,
}

fn dims(size: Size) -> Dims {
    match size {
        Size::Full => Dims {
            servers: 1000,
            be_rows: 100,
            setups: 4,
            singles: 240,
            brownouts: 2,
        },
        Size::Tiny => Dims {
            servers: 60,
            be_rows: 12,
            setups: 1,
            singles: 12,
            brownouts: 2,
        },
    }
}

/// Fleet seed (the demo fleet's): SKU per column, primary per server and
/// the synthetic BE models are pinned, so every workload seed replays its
/// own event stream against the same fleet.
const FLEET_SEED: u64 = pocolo_sim::fleet::DEMO_FLEET_SEED;
/// Brownout depth: every shrink takes the budget to this share of the
/// provisioned caps.
const BROWNOUT_CAP: f64 = 0.7;
/// Relative spread of the synthetic BE utilities around the fitted ones.
const BE_JITTER: f64 = 0.25;
/// Relative spread of a refitted server model around its current one.
const REFIT_JITTER: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// The server in this column fails (chosen among occupied columns
    /// when the event replays).
    Loss { pick: u64 },
    /// The server in this column adopts a refitted model.
    Refit { col: usize, seed: u64 },
    /// The fleet budget moves to this share of every provisioned cap.
    Brownout { cap_factor: f64 },
}

impl Event {
    fn kind(&self) -> usize {
        match self {
            Event::Loss { .. } => 0,
            Event::Refit { .. } => 1,
            Event::Brownout { .. } => 2,
        }
    }
}

const KINDS: [&str; 3] = ["fault", "refit", "brownout"];

/// The seeded event stream: `singles` single-server events (two thirds
/// losses, one third refits) with `brownouts` budget changes spread
/// evenly through it, alternating shrink and lift.
fn event_stream(d: &Dims, seed: u64) -> Vec<Event> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17_5eed);
    let mut events: Vec<Event> = (0..d.singles)
        .map(|i| {
            if i % 3 == 2 {
                Event::Refit {
                    col: rng.gen_range(0..d.servers),
                    seed: rng.gen_range(0..u64::MAX),
                }
            } else {
                Event::Loss {
                    pick: rng.gen_range(0..u64::MAX),
                }
            }
        })
        .collect();
    events.shuffle(&mut rng);
    let every = d.singles / (d.brownouts + 1);
    for b in (0..d.brownouts).rev() {
        let cap_factor = if b % 2 == 0 { BROWNOUT_CAP } else { 1.0 };
        events.insert((b + 1) * every, Event::Brownout { cap_factor });
    }
    events
}

fn perturb(u: &IndirectUtility, rel: f64, rng: &mut StdRng) -> IndirectUtility {
    let perf = u.performance_model();
    let mut jitter = || 1.0 + rng.gen_range(-rel..rel);
    let alpha0 = perf.alpha0() * jitter();
    let alphas = perf.alphas().iter().map(|a| a * jitter()).collect();
    let perf = CobbDouglas::new(alpha0, alphas).expect("jittered exponents stay positive");
    IndirectUtility::new(u.space().clone(), perf, u.power_model().clone())
        .expect("jitter keeps the model's dimensions")
}

/// One cold set-up: per-class fits, fleet synthesis, keyed matrix and the
/// cold sparse plan.
fn setup(d: &Dims, tracer: &mut Tracer) -> (ClusterManager, PlacementPlan) {
    let spec = FleetSpec::preset("mixed3").expect("mixed3 is a catalog preset");
    let fits: Vec<FittedCluster> = tracer.span("fit.offline", |_| {
        spec.entries()
            .iter()
            .map(|(class, _)| {
                FittedCluster::fit_on(&ProfilerConfig::default(), MachineSpec::from_class(class))
            })
            .collect()
    });
    let manager = tracer.span("fleet.synthesize", |_| {
        let classes = spec.assign(d.servers, FLEET_SEED);
        let mut rng = StdRng::seed_from_u64(FLEET_SEED);
        let n_lc = fits[0].lc().len();
        let mut servers: Vec<ServerProfile> = Vec::with_capacity(d.servers);
        let mut keys = Vec::with_capacity(d.servers);
        for (col, &class) in classes.iter().enumerate() {
            let lc = rng.gen_range(0..n_lc);
            let mut profile = fits[class].server_profiles()[lc].clone();
            profile.label = format!("s{col}");
            servers.push(profile);
            keys.push(class * n_lc + lc);
        }
        let base = fits[0].be_profiles();
        let bes = (0..d.be_rows)
            .map(|row| {
                let (_, u) = &base[row % base.len()];
                (format!("be{row}"), perturb(u, BE_JITTER, &mut rng))
            })
            .collect();
        ClusterManager::new(bes, servers).with_profile_keys(keys)
    });
    let plan = if tracer.enabled() {
        // The two halves of `plan_sparse`, timed apart, then the call
        // itself (whose result the run keeps).
        let matrix = tracer.span("cluster.matrix_build", |_| manager.performance_matrix());
        let matrix = matrix.expect("synthetic fleet estimates");
        let mut cands = tracer.span("cluster.candidates_build", |_| {
            SparseCandidates::build(&matrix, SparseCandidates::default_k(matrix.cols()))
        });
        let cfg = AuctionConfig::with_eps(DEFAULT_EPS);
        let _ = tracer.span("cluster.cold_auction", |_| {
            auction::solve_with_candidates(&matrix, &mut cands, &cfg)
        });
        tracer.span("cluster.plan_sparse", |_| manager.plan_sparse(DEFAULT_EPS))
    } else {
        manager.plan_sparse(DEFAULT_EPS)
    };
    (manager, plan.expect("synthetic fleet is placeable"))
}

/// One timed cold set-up, checked; its time is pushed onto `setup_s`.
fn timed_setup(
    d: &Dims,
    out: &mut Outcome,
    tracer: &mut Tracer,
    setup_s: &mut Vec<f64>,
) -> (ClusterManager, PlacementPlan) {
    let started = Instant::now();
    let built = tracer.span("setup", |t| setup(d, t));
    setup_s.push(started.elapsed().as_secs_f64());
    out.check(plan_is_valid(&built.1, d.be_rows).is_ok(), || {
        "cold plan is not a certified matching".into()
    });
    built
}

/// The plan is a one-to-one matching of every BE row onto enabled
/// columns, and the auction certified it.
fn plan_is_valid(plan: &PlacementPlan, rows: usize) -> Result<(), String> {
    let pairs = &plan.assignment().pairs;
    if pairs.len() != rows {
        return Err(format!("{} of {rows} rows placed", pairs.len()));
    }
    let mut cols: Vec<usize> = pairs.iter().map(|&(_, c)| c).collect();
    cols.sort_unstable();
    if cols.windows(2).any(|w| w[0] == w[1]) {
        return Err("two rows share a server".into());
    }
    if let Some(c) = cols.iter().find(|&&c| plan.matrix().is_col_disabled(c)) {
        return Err(format!("row placed on disabled server {c}"));
    }
    if pairs.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err("a row is placed twice".into());
    }
    if !plan.solution().certified {
        return Err("auction solution not certified".into());
    }
    Ok(())
}

fn add_stats(acc: &mut AuctionStats, s: &AuctionStats) {
    acc.bids += s.bids;
    acc.bid_edges += s.bid_edges;
    acc.cert_edges += s.cert_edges;
    acc.phases += s.phases;
    acc.widen_rounds += s.widen_rounds;
    acc.dirty_rows += s.dirty_rows;
}

/// What one epoch replay measured.
#[derive(Default)]
struct Epoch {
    /// Host latency per event, seconds, by kind.
    latency_s: [Vec<f64>; 3],
    stats: [AuctionStats; 3],
    migrations: usize,
    rebuild_s: f64,
    rebuild_cells: usize,
    final_total: f64,
}

/// Replays the stream once from copies of the cold state.
fn replay(
    manager: &ClusterManager,
    cold: &PlacementPlan,
    events: &[Event],
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Epoch {
    let mut manager = manager.clone();
    let mut plan = cold.clone();
    let rows = manager.be_apps().len();
    let hysteresis = ResilienceConfig::default().replan_hysteresis;
    let mut cap_factor = 1.0;
    let mut epoch = Epoch::default();
    for (i, event) in events.iter().enumerate() {
        if tracer.enabled() {
            if let Event::Brownout { cap_factor: f } = *event {
                // Isolate the column re-estimation the brownout replan
                // performs (repeated work, not part of the replan's time).
                let shrunk: Vec<ServerProfile> = manager
                    .servers()
                    .iter()
                    .map(|s| ServerProfile {
                        power_cap: s.power_cap * f,
                        ..s.clone()
                    })
                    .collect();
                let cols: Vec<usize> = (0..plan.matrix().cols()).collect();
                let started = Instant::now();
                let _ = tracer.span("cluster.rebuild_columns", |_| {
                    PerfMatrixBuilder::new().rebuild_columns(
                        manager.be_apps(),
                        &shrunk,
                        &cols,
                        plan.matrix(),
                    )
                });
                epoch.rebuild_s += started.elapsed().as_secs_f64();
                epoch.rebuild_cells += plan.matrix().enabled_cols() * rows;
            }
        }
        let started = Instant::now();
        let result = match *event {
            Event::Loss { pick } => {
                let pairs = &plan.assignment().pairs;
                let victim = pairs[(pick % pairs.len() as u64) as usize].1;
                tracer.span("replan.fault", |_| {
                    manager.replan_after_faults(&mut plan, &[victim])
                })
            }
            Event::Refit { col, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let fresh = perturb(&manager.servers()[col].utility, REFIT_JITTER, &mut rng);
                tracer.span("replan.refit", |_| {
                    manager.replan_after_refit(&mut plan, col, fresh, cap_factor)
                })
            }
            Event::Brownout { cap_factor: f } => {
                cap_factor = f;
                tracer.span("replan.brownout", |_| {
                    manager.replan_under_budget_incremental(&mut plan, f, hysteresis)
                })
            }
        };
        let elapsed = started.elapsed().as_secs_f64();
        let kind = event.kind();
        epoch.latency_s[kind].push(elapsed);
        let verdict = result
            .map_err(|e| e.to_string())
            .and_then(|intents| plan_is_valid(&plan, rows).map(|()| intents));
        match verdict {
            Ok(intents) => {
                epoch.migrations += intents.len();
                add_stats(&mut epoch.stats[kind], &plan.solution().stats);
                out.check(true, String::new);
            }
            Err(e) => out.check(false, || format!("event {i} ({}): {e}", KINDS[kind])),
        }
    }
    epoch.final_total = plan.assignment().total;
    epoch
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Outcome {
    let d = dims(cfg.size);
    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let events = event_stream(&d, cfg.seed);

    // Set-up: one cold build whose state the run keeps, then `d.setups`
    // more timed before every epoch, so that the samples spread over the
    // whole run as the epochs do.
    let mut setup_s = Vec::new();
    let (manager, cold) = timed_setup(&d, &mut out, tracer, &mut Vec::new());
    let mut setups = 1;

    // The traced run first replays one epoch untraced, the baseline for
    // the tracing overhead.
    let mut baseline_s = f64::NAN;
    if tracer.enabled() {
        let started = Instant::now();
        tracer.span("bench.untraced", |_| {
            replay(&manager, &cold, &events, &mut out, &mut Tracer::new(false))
        });
        baseline_s = started.elapsed().as_secs_f64();
    }

    // Measurement: whole epochs until the time budget is spent.
    let mut single_ms = Vec::new();
    let mut brownout_ms = Vec::new();
    let mut epoch_rate = Vec::new();
    let mut totals = Vec::new();
    let mut last = None;
    // One traced epoch is enough for the layer split.
    let mut window = Window::new(if tracer.enabled() { 0.0 } else { cfg.seconds });
    while window.another() {
        for _ in 0..d.setups {
            timed_setup(&d, &mut out, tracer, &mut setup_s);
        }
        setups += d.setups;
        let epoch = tracer.span("epoch", |t| replay(&manager, &cold, &events, &mut out, t));
        let busy: f64 = epoch.latency_s.iter().flatten().sum();
        epoch_rate.push(events.len() as f64 / busy);
        single_ms.extend(
            epoch.latency_s[0]
                .iter()
                .chain(&epoch.latency_s[1])
                .map(|s| s * 1e3),
        );
        brownout_ms.extend(epoch.latency_s[2].iter().map(|s| s * 1e3));
        totals.push(epoch.final_total);
        out.runs += 1;
        last = Some(epoch);
    }
    let last = last.expect("at least one epoch");
    out.check(totals.iter().all(|&t| t == totals[0]), || {
        format!("epochs ended on different placements: {totals:?}")
    });

    out.set_median("setup_s", setup_s);
    out.set_median("work_per_s", epoch_rate);
    out.set("fault_replan_p90_ms", quantile(&single_ms, 0.9));
    out.set_median("op_p50_ms", single_ms);
    out.set("brownout_replan_p50_ms", Spread::of(&brownout_ms).median);
    out.set("placement_utility", last.final_total);

    if tracer.enabled() {
        let sum = tracer.summary();
        let per_setup = |name: &str| sum.get(name).map_or(0.0, |e| e.1) / setups as f64;
        out.set("fit.offline_s", per_setup("fit.offline"));
        out.set("cluster.matrix_build_s", per_setup("cluster.matrix_build"));
        out.set(
            "cluster.candidates_build_s",
            per_setup("cluster.candidates_build"),
        );
        out.set("cluster.cold_auction_s", per_setup("cluster.cold_auction"));
        out.set("cluster.rebuild_columns_s", last.rebuild_s);
        out.set("cluster.rebuild_cells", last.rebuild_cells as f64);
        out.set(
            "cluster.replan_s",
            KINDS
                .iter()
                .map(|k| sum.get(format!("replan.{k}").as_str()).map_or(0.0, |e| e.1))
                .sum(),
        );
        for (k, kind) in KINDS.iter().enumerate() {
            let s = &last.stats[k];
            for (field, v) in [
                ("bids", s.bids as f64),
                ("bid_edges", s.bid_edges as f64),
                ("cert_edges", s.cert_edges as f64),
                ("phases", f64::from(s.phases)),
                ("widen_rounds", f64::from(s.widen_rounds)),
                ("dirty_rows", s.dirty_rows as f64),
            ] {
                out.set(crate::layer_name(&format!("auction.{kind}.{field}")), v);
            }
        }
        out.set("placement.migrations", last.migrations as f64);
        let traced_s = tracer.total_s("epoch") - last.rebuild_s;
        out.set("bench.trace_overhead_frac", traced_s / baseline_s - 1.0);
    }
    out
}
