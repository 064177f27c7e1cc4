//! `colo-sim`: the paper pipeline on the `mixed3` fleet — per-class fits,
//! SKU-aware placement, and the per-server POM control loop with its
//! capper and degraded modes, simulated through the nine-level load sweep
//! under the `chaos` fault scenario with a long dwell.
//!
//! The traced run replays every server slot alone through
//! `run_server_projection`, with the same slot specs and fault timeline
//! the policy run built, and checks that each replay reproduces the
//! slot's metrics exactly.

use std::time::Instant;

use pocolo_cluster::{Assignment, Solver};
use pocolo_core::fleet::FleetSpec;
use pocolo_faults::{eviction_order, FaultKind, FaultSpec, Scenario};
use pocolo_sim::experiment::{ExperimentConfig, Policy, SlotSpec};
use pocolo_sim::fleet::{
    run_fleet_policy, FittedFleet, FleetRunResult, DEMO_FAULT_SEED, DEMO_FLEET_SEED,
};
use pocolo_sim::{
    run_server_projection, FaultTimeline, Parallelism, ResilienceConfig, ServerFaultAction,
};
use pocolo_workloads::{BeApp, LoadTrace};

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{Config, Size, Window};

/// Fleet fits timed before each policy run; `setup_s` is the median of
/// all of them.
const SETUPS: usize = 8;

/// The experiment for one seed. Fleet composition and fault plan are the
/// calibrated demo pair (`DEMO_FLEET_SEED`, `chaos:DEMO_FAULT_SEED`); the
/// workload seed drives the simulation itself (profiling and meter noise,
/// per-server RNG streams).
fn experiment(cfg: &Config) -> ExperimentConfig {
    let faults = FaultSpec {
        scenario: Scenario::Chaos,
        seed: Some(DEMO_FAULT_SEED),
    };
    ExperimentConfig {
        dwell_s: match cfg.size {
            Size::Full => 3000.0,
            Size::Tiny => 20.0,
        },
        seed: cfg.seed,
        faults: Some(faults),
        // One worker: on the 2-vCPU reference host the 4-server fan-out
        // over two workers varied about twice as much between runs.
        parallelism: Parallelism::Serial,
        ..ExperimentConfig::default()
    }
}

fn fit(cfg: &Config) -> FittedFleet {
    let spec = FleetSpec::preset("mixed3").expect("mixed3 is a catalog preset");
    FittedFleet::fit(&experiment(cfg).profiler, spec, DEMO_FLEET_SEED)
}

/// One SKU-aware policy run, checked against the first run's result.
fn call(
    fleet: &FittedFleet,
    exp: &ExperimentConfig,
    first: &mut Option<FleetRunResult>,
    out: &mut Outcome,
) -> f64 {
    let started = Instant::now();
    let run = run_fleet_policy(fleet, exp, Solver::Hungarian, true);
    let wall = started.elapsed().as_secs_f64();
    out.check(run.result.pairs.len() == fleet.n_servers(), || {
        format!(
            "{} of {} slots reported",
            run.result.pairs.len(),
            fleet.n_servers()
        )
    });
    match first {
        None => *first = Some(run),
        Some(f) => out.check(*f == run, || {
            "policy run result differs between calls".into()
        }),
    }
    wall
}

fn be_row(app: BeApp) -> usize {
    BeApp::ALL
        .iter()
        .position(|&a| a == app)
        .expect("BE app is a row")
}

/// Rebuilds the slot specs and fault timeline `run_fleet_policy` uses
/// (SKU-aware mode) and runs every slot alone. Returns per-slot wall
/// seconds; checks each slot's metrics against the policy run.
fn replay_slots(
    fleet: &FittedFleet,
    exp: &ExperimentConfig,
    run: &FleetRunResult,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Vec<f64> {
    let n = fleet.n_servers();
    let manager = fleet.manager();
    let matrix = manager.performance_matrix().expect("fleet models estimate");
    let placement = &run.placement;
    let duration_s = exp.sweep_duration_s();
    let spec = exp.faults.as_ref().expect("colo-sim is faulted");
    let plan = spec
        .scenario
        .plan(spec.seed.unwrap_or(exp.seed), duration_s, n);
    let mut timeline =
        FaultTimeline::compile_with_curves(&plan, n, |s, f| fleet.cap_factor_for(s, f));
    let pairs: Vec<(usize, usize)> = placement
        .iter()
        .enumerate()
        .map(|(server, &be)| (be_row(be), server))
        .collect();
    let values: Vec<f64> = pairs.iter().map(|&(r, c)| matrix.value(r, c)).collect();
    let mut ranks = vec![0; n];
    for (rank, &server) in eviction_order(&values).iter().enumerate() {
        ranks[server] = rank;
    }
    let res = ResilienceConfig::default();
    let incumbent = Assignment::new(pairs.clone(), matrix.assignment_value(&pairs));
    for event in plan.events() {
        let FaultKind::BrownoutStart { cap_factor } = &event.kind else {
            continue;
        };
        let factors: Vec<f64> = (0..n)
            .map(|s| fleet.cap_factor_for(s, *cap_factor))
            .collect();
        let Ok(intents) = manager.migration_intents_classed(
            &factors,
            &incumbent,
            res.replan_hysteresis,
            Solver::Hungarian,
        ) else {
            continue;
        };
        for (row, server) in intents {
            let (_, truth, fitted) = &fleet.fit_for(server).be()[row];
            timeline.push(
                server,
                event.at_s,
                ServerFaultAction::ReplaceBe {
                    be_truth: Some(Box::new(truth.clone())),
                    be_fitted: Some(Box::new(fitted.clone())),
                    pause_s: res.readmit_pause_s,
                },
            );
        }
    }

    let trace = LoadTrace::paper_sweep(exp.dwell_s);
    let mut walls = Vec::with_capacity(n);
    let (mut decisions, mut capping, mut evictions) = (0usize, 0.0f64, 0usize);
    for s in 0..n {
        let mut server = SlotSpec {
            server: s,
            policy: Policy::Pocolo {
                solver: Solver::Hungarian,
            },
            be: placement[s],
            rank: ranks[s],
            trace: trace.clone(),
            meter_noise: exp.meter_noise,
            seed: exp.seed,
            faulted: true,
            resilience: exp.resilience,
            record_decisions: true,
        }
        .build(fleet.fit_for(s));
        let started = Instant::now();
        tracer.span("sim.server_projection", |_| {
            run_server_projection(
                &mut server,
                timeline.server_events(s),
                exp.manager_period_s,
                exp.capper_period_s,
                duration_s,
                |_, _| true,
            );
        });
        walls.push(started.elapsed().as_secs_f64());
        let m = server.metrics();
        out.check(*m == run.result.pairs[s].metrics, || {
            format!("slot {s} replayed alone diverged from the policy run")
        });
        decisions += server.decision_records().len();
        capping += m.capping_frac * m.samples as f64;
        evictions += m.evictions;
    }
    out.set("manager.decisions", decisions as f64);
    out.set("manager.capping_events", capping.round());
    out.set("manager.evictions", evictions as f64);
    walls
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        threads: 1,
        ..Outcome::default()
    };
    let exp = experiment(cfg);

    // Set-up: one fit whose fleet the run keeps, then `SETUPS` more timed
    // before every policy run, so that the samples spread over the whole
    // run as the policy runs do.
    let fleet = tracer.span("fit.offline", |_| fit(cfg));
    let mut fits = 1;
    let mut setup_s = Vec::new();

    let mut first = None;
    let mut walls = Vec::new();
    let mut window = Window::new(if tracer.enabled() { 0.0 } else { cfg.seconds });
    while window.another() {
        for _ in 0..SETUPS {
            let started = Instant::now();
            let fitted = std::hint::black_box(tracer.span("fit.offline", |_| fit(cfg)));
            setup_s.push(started.elapsed().as_secs_f64());
            drop(fitted);
        }
        fits += SETUPS;
        let wall = tracer.span("bench.untraced", |_| {
            call(&fleet, &exp, &mut first, &mut out)
        });
        walls.push(wall);
        out.runs += 1;
    }
    out.set_median("setup_s", setup_s);
    let run = first.clone().expect("at least one policy run");
    let server_s = fleet.n_servers() as f64 * exp.sweep_duration_s();
    out.set_median("work_per_s", walls.iter().map(|w| server_s / w).collect());
    out.set_median("op_p50_ms", walls.iter().map(|w| w * 1e3).collect());
    out.set("be_throughput", run.result.summary.avg_be_throughput);
    out.set(
        "slo_violation_frac",
        run.result.summary.worst_violation_frac,
    );
    out.set("cap_violations", run.cap_violations as f64);

    if tracer.enabled() {
        let traced = tracer.span("sim.run_fleet_policy", |_| {
            call(&fleet, &exp, &mut first, &mut out)
        });
        out.runs += 1;
        let slot_s = replay_slots(&fleet, &exp, &run, &mut out, tracer);
        let total_s: f64 = slot_s.iter().sum();
        let ticks = slot_s.len() as f64
            * (exp.sweep_duration_s() / exp.manager_period_s
                + exp.sweep_duration_s() / exp.capper_period_s);
        out.set("fit.offline_s", tracer.total_s("fit.offline") / fits as f64);
        out.set("sim.server_mean_s", total_s / slot_s.len() as f64);
        out.set(
            "sim.server_max_s",
            slot_s.iter().copied().fold(0.0, f64::max),
        );
        out.set("sim.ns_per_tick", total_s * 1e9 / ticks);
        out.set("sim.engine_self_s", traced - total_s);
        out.set("bench.trace_overhead_frac", traced / walls[0] - 1.0);
    }
    out
}
