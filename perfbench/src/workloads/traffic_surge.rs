//! `traffic-surge`: the sharded traffic engine under a flash crowd with
//! the `surge` fault scenario and online refits, at one million users.
//! Open loop in simulated time; the host throughput is measured.
//!
//! The traced run splits one engine call into its stages by repeating
//! each stage's public call over the same ticks: generation
//! (`TrafficGen::tick`), the batch digest and the per-slot counts. The
//! engine's own time (queues, online fitter, replans) is the remainder.

use std::time::Instant;

use pocolo_faults::FaultSpec;
use pocolo_sim::experiment::FittedCluster;
use pocolo_sim::parallel::Parallelism;
use pocolo_traffic::{
    run_traffic, TrafficConfig, TrafficGen, TrafficMix, TrafficReport, TrafficSpec,
};
use pocolo_workloads::profiler::ProfilerConfig;

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::{Config, Size, Window};

/// Set-ups timed before each engine call; `setup_s` is the median of all
/// of them.
const SETUPS: usize = 20;

/// Folds one word into an FNV-1a state, as the engine folds batch digests.
fn fnv_fold(mut h: u64, v: u64) -> u64 {
    for byte in v.to_le_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The engine config for one seed. The scenario is the pinned one
/// (`flashcrowd:7` with `surge:7`), so every seed offers the same flash
/// crowd and brownout; the workload seed drives the engine — every
/// request's arrival, slot, region and work, and the queues.
fn config(cfg: &Config) -> TrafficConfig {
    let spec: TrafficSpec = "flashcrowd:7".parse().expect("flashcrowd is a mix");
    let faults: FaultSpec = "surge:7".parse().expect("surge is a scenario");
    let mut c = TrafficConfig::new(spec);
    c.users = match cfg.size {
        Size::Full => 1_000_000,
        Size::Tiny => 20_000,
    };
    c.shards = 8.max(2 * cfg.nproc);
    c.parallelism = Parallelism::Fixed(cfg.nproc);
    c.online_fit = true;
    c.faults = Some(faults);
    c.seed = cfg.seed;
    c
}

/// What the engine builds before its first tick, placement aside: the
/// offline fit it starts from, the mix plan and the generator.
fn generator(c: &TrafficConfig, tracer: &mut Tracer) -> TrafficGen {
    let fitted = tracer.span("fit.offline", |_| {
        FittedCluster::fit(&ProfilerConfig::default())
    });
    let peaks: Vec<f64> = fitted
        .lc()
        .iter()
        .map(|(_, t, _)| t.peak_load_rps())
        .collect();
    let duration_s = c.ticks as f64 * c.tick_s;
    let mix = TrafficMix::plan(c.spec.kind, c.spec.seed.unwrap_or(c.seed), duration_s);
    TrafficGen::new(mix, c.seed, c.users, c.rps_per_user, c.tick_s, &peaks)
}

/// The deterministic part of a report (wall-clock fields cleared).
fn deterministic(r: &TrafficReport) -> TrafficReport {
    TrafficReport {
        gen_seconds: 0.0,
        gen_requests_per_s: 0.0,
        ..r.clone()
    }
}

/// One engine call, checked: requests are conserved across slots and the
/// report matches the first call's.
fn call(
    c: &TrafficConfig,
    first: &mut Option<TrafficReport>,
    out: &mut Outcome,
) -> (TrafficReport, f64) {
    let started = Instant::now();
    let report = run_traffic(c);
    let wall = started.elapsed().as_secs_f64();
    let routed: u64 = report.slots.iter().map(|s| s.requests).sum();
    out.check(routed == report.requests && report.requests > 0, || {
        format!("slots hold {routed} of {} requests", report.requests)
    });
    let det = deterministic(&report);
    match first {
        None => *first = Some(det),
        Some(f) => out.check(*f == det, || {
            format!("report digest {} differs from {}", det.digest, f.digest)
        }),
    }
    (report, wall)
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome {
        threads: cfg.nproc,
        ..Outcome::default()
    };

    // Set-up: the config and what the engine builds from it, timed
    // `SETUPS` times before every engine call, so that the samples spread
    // over the whole run as the calls do.
    let c = config(cfg);
    let mut setup_s = Vec::new();

    let mut first = None;
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut window = Window::new(if tracer.enabled() { 0.0 } else { cfg.seconds });
    while window.another() {
        tracer.span("setup", |_| {
            for _ in 0..SETUPS {
                let started = Instant::now();
                let gen = std::hint::black_box(generator(&config(cfg), &mut Tracer::new(false)));
                setup_s.push(started.elapsed().as_secs_f64());
                drop(gen);
            }
        });
        let (report, wall) = tracer.span("bench.untraced", |_| call(&c, &mut first, &mut out));
        walls.push(wall * 1e3);
        rates.push(report.requests as f64 / wall);
        out.runs += 1;
    }
    out.set_median("setup_s", setup_s);
    let report = first.clone().expect("at least one call");
    out.set_median("work_per_s", rates);
    out.set_median("op_p50_ms", walls.clone());
    out.set("slo_violation_frac", report.slo_violation_frac);

    if tracer.enabled() {
        // The first call also grows the heap; a second untraced call is
        // the baseline the traced call is compared with.
        let (_, untraced_s) = tracer.span("bench.untraced", |_| call(&c, &mut first, &mut out));
        out.runs += 1;
        let traced = tracer.span("traffic.run_traffic", |_| call(&c, &mut first, &mut out));
        out.runs += 1;
        let traced_s = traced.1;

        // Stage isolation: the same fit, ticks, digests and counts.
        let gen = generator(&c, tracer);
        let n_slots = gen.n_slots();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut requests = 0u64;
        for tick in 0..c.ticks {
            let batch = tracer.span("traffic.gen", |_| gen.tick(tick, c.shards, c.parallelism));
            let d = tracer.span("traffic.digest", |_| batch.digest());
            let counts = tracer.span("traffic.slot_counts", |_| batch.slot_counts(n_slots));
            digest = fnv_fold(digest, d);
            requests += counts.iter().sum::<u64>();
        }
        out.check(format!("{digest:016x}") == report.digest, || {
            format!(
                "stage replay digest {digest:016x} != report {}",
                report.digest
            )
        });
        out.check(requests == report.requests, || {
            format!(
                "stage replay counted {requests} of {} requests",
                report.requests
            )
        });

        let fit_s = tracer.total_s("fit.offline");
        let gen_s = tracer.total_s("traffic.gen");
        let digest_s = tracer.total_s("traffic.digest");
        let counts_s = tracer.total_s("traffic.slot_counts");
        out.set("fit.offline_s", fit_s);
        out.set("traffic.gen_s", gen_s);
        out.set("traffic.gen_req_per_s", requests as f64 / gen_s);
        out.set("traffic.digest_s", digest_s);
        out.set("traffic.slot_counts_s", counts_s);
        out.set(
            "traffic.engine_self_s",
            traced_s - fit_s - gen_s - digest_s - counts_s,
        );
        out.set("traffic.refits", report.refits as f64);
        out.set("traffic.replans", report.replans as f64);
        out.set("traffic.migrations", report.migrations as f64);
        out.set("bench.trace_overhead_frac", traced_s / untraced_s - 1.0);
    }
    out
}
