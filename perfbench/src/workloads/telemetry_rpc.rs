//! `telemetry-rpc`: the cluster daemon on the reactor backend with swarm
//! agents sending closed-loop telemetry (one frame outstanding per
//! agent). Each pass is the scale demo's sequence of public calls —
//! daemon spawn, swarm (registration, then heartbeats), result assembly
//! and the parity check against the timing-independent reference —
//! timed apart.

use std::time::{Duration, Instant};

use pocolo_net::frame::encode_frame;
use pocolo_net::{
    run_swarm, scale_reference, ClusterConfig, Clusterd, FrameBuffer, Message, NetBackend, RunSpec,
    SwarmConfig,
};

use crate::report::Outcome;
use crate::stats::{whole_unit_quantile, Spread};
use crate::trace::Tracer;
use crate::{Config, Size, Window};

const LEASE_TTL: Duration = Duration::from_secs(3);
const DEADLINE: Duration = Duration::from_secs(120);
/// Encode/decode round trips timed per message kind in the traced run.
const WIRE_ROUNDS: usize = 20_000;

/// Short passes run before each measured pass: each adds one `setup_s`
/// sample (daemon spawn and registration) to the run's, so that the
/// samples spread over the whole run as the passes do.
const SETUP_PASSES: usize = 8;
/// Heartbeats per agent in a short pass.
const SETUP_BEATS: u64 = 20;

fn heartbeats(size: Size) -> u64 {
    match size {
        Size::Full => 50_000,
        Size::Tiny => 500,
    }
}

/// What one pass measured.
struct Pass {
    setup_s: f64,
    connect_s: f64,
    heartbeat_s: f64,
    /// RTT median and p99, microseconds (`None` when no telemetry flowed).
    rtt_us: Option<(f64, f64)>,
    cpu: (f64, f64),
}

impl Pass {
    /// A pass that failed before any telemetry flowed.
    fn failed(setup_s: f64) -> Pass {
        Pass {
            setup_s,
            connect_s: 0.0,
            heartbeat_s: f64::NAN,
            rtt_us: None,
            cpu: (0.0, 0.0),
        }
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Process-wide (all threads) user and system CPU seconds.
fn cpu_times() -> (f64, f64) {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `Rusage` matches the 64-bit Linux `struct rusage` layout and
    // RUSAGE_SELF (0) only writes into it.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc != 0 {
        return (f64::NAN, f64::NAN);
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    (secs(&u.utime), secs(&u.stime))
}

/// One daemon lifetime: spawn, swarm, assemble, verify, shut down.
fn pass(agents: usize, beats: u64, seed: u64, out: &mut Outcome, tracer: &mut Tracer) -> Pass {
    let run = RunSpec::scale(agents, seed);
    let started = Instant::now();
    let mut config = ClusterConfig::new(
        "127.0.0.1:0".parse().expect("loopback"),
        LEASE_TTL,
        run.clone(),
    );
    config.backend = NetBackend::Reactor;
    let spawned = tracer.span("net.spawn", |_| Clusterd::spawn(config));
    let spawn_s = started.elapsed().as_secs_f64();
    let mut clusterd = match spawned {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || format!("daemon spawn failed: {e}"));
            return Pass::failed(spawn_s);
        }
    };
    let mut swarm_config = SwarmConfig::new(clusterd.local_addr(), agents, beats, seed);
    swarm_config.heartbeat_every = Duration::ZERO;
    swarm_config.deadline = DEADLINE;
    let cpu0 = cpu_times();
    let swarm = tracer.span("net.swarm", |_| run_swarm(&swarm_config));
    let cpu1 = cpu_times();
    let swarm = match swarm {
        Ok(s) => s,
        Err(e) => {
            // The daemon will never finish; stop it without waiting.
            clusterd.shutdown();
            out.check(false, || format!("swarm failed: {e}"));
            return Pass::failed(spawn_s);
        }
    };
    let result = tracer.span("net.assemble", |_| {
        clusterd
            .wait_done(DEADLINE)
            .then(|| clusterd.result())
            .flatten()
    });
    let parity = tracer.span("net.reference", |_| {
        result
            .as_ref()
            .map(|wire| *wire == scale_reference(&run, beats))
    });
    tracer.span("net.shutdown", |_| clusterd.shutdown());

    out.check(parity == Some(true), || {
        format!("wire result parity {parity:?} against the in-process reference")
    });
    let acked = swarm.rtts_us.len() as u64;
    let all_done = swarm
        .agents
        .iter()
        .all(|a| a.completed && a.epochs == beats);
    out.check(all_done && acked == agents as u64 * beats, || {
        format!("{acked} of {} heartbeats acked", agents as u64 * beats)
    });
    let connect_s = swarm.connect_wall.as_secs_f64();
    Pass {
        setup_s: spawn_s + connect_s,
        connect_s,
        heartbeat_s: (swarm.total_wall - swarm.connect_wall).as_secs_f64(),
        // Only the quantiles are kept, so memory does not grow with the
        // number of passes a run fits in.
        rtt_us: (acked > 0).then(|| {
            (
                whole_unit_quantile(&swarm.rtts_us, 0.5),
                whole_unit_quantile(&swarm.rtts_us, 0.99),
            )
        }),
        cpu: (cpu1.0 - cpu0.0, cpu1.1 - cpu0.1),
    }
}

/// Median nanoseconds per call of `f` over `rounds` calls, in 20 blocks.
fn ns_per_call(rounds: usize, mut f: impl FnMut()) -> f64 {
    let block = (rounds / 20).max(1);
    let samples: Vec<f64> = (0..20)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..block {
                f();
            }
            started.elapsed().as_nanos() as f64 / block as f64
        })
        .collect();
    Spread::of(&samples).median
}

/// Times the wire path on a representative telemetry frame and its ack.
fn wire_costs(out: &mut Outcome, tracer: &mut Tracer) {
    let messages = [
        Message::Telemetry {
            server: 1,
            epoch: 4242,
            t_s: 4242.0,
            power_w: 187.431_927_5,
            slack: 0.213_774_1,
            be_throughput: 0.618_033_9,
        },
        Message::TelemetryAck { cap_factor: 0.75 },
    ];
    let (mut encode_ns, mut decode_ns) = (0.0, 0.0);
    for (msg, bytes_metric) in messages
        .iter()
        .zip(["wire.telemetry_bytes", "wire.ack_bytes"])
    {
        let frame = encode_frame(&msg.to_value()).expect("message encodes");
        out.set(crate::layer_name(bytes_metric), frame.len() as f64);
        encode_ns += tracer.span("wire.encode", |_| {
            ns_per_call(WIRE_ROUNDS, || {
                std::hint::black_box(encode_frame(&std::hint::black_box(msg).to_value()).ok());
            })
        });
        let mut buf = FrameBuffer::new();
        let mut decoded = None;
        decode_ns += tracer.span("wire.decode", |_| {
            ns_per_call(WIRE_ROUNDS, || {
                buf.extend(&frame);
                if let Ok(Some(pocolo_net::frame::Decoded::Frame(v))) = buf.next() {
                    decoded = Message::from_value(&v).ok();
                }
            })
        });
        out.check(decoded.as_ref() == Some(msg), || {
            format!(
                "{} did not survive an encode/decode round trip",
                msg.type_name()
            )
        });
    }
    out.set("wire.encode_ns", encode_ns);
    out.set("wire.decode_ns", decode_ns);
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Outcome {
    let agents = cfg.nproc.min(2);
    let mut out = Outcome {
        // The swarm drives every agent from one thread; the daemon's
        // event loop is the system under test.
        threads: 1,
        connections: agents,
        ..Outcome::default()
    };
    let beats = heartbeats(cfg.size);

    let mut passes = Vec::new();
    let mut window = Window::new(if tracer.enabled() { 0.0 } else { cfg.seconds });
    let mut setup_s = Vec::new();
    while window.another() {
        tracer.span("setup", |_| {
            for _ in 0..SETUP_PASSES {
                let p = pass(
                    agents,
                    SETUP_BEATS,
                    cfg.seed,
                    &mut out,
                    &mut Tracer::new(false),
                );
                setup_s.push(p.setup_s);
            }
        });
        let p = tracer.span("bench.untraced", |_| {
            pass(agents, beats, cfg.seed, &mut out, &mut Tracer::new(false))
        });
        passes.push(p);
        out.runs += 1;
    }
    let frames = agents as f64 * beats as f64;
    let rtts: Vec<(f64, f64)> = passes.iter().filter_map(|p| p.rtt_us).collect();
    setup_s.extend(passes.iter().map(|p| p.setup_s));
    out.set_median("setup_s", setup_s);
    out.set_median(
        "work_per_s",
        passes.iter().map(|p| frames / p.heartbeat_s).collect(),
    );
    if !rtts.is_empty() {
        out.set_median("op_p50_ms", rtts.iter().map(|r| r.0 * 1e-3).collect());
        out.set_median("rtt_p50_us", rtts.iter().map(|r| r.0).collect());
        out.set_median("rtt_p99_us", rtts.iter().map(|r| r.1).collect());
    }

    if tracer.enabled() {
        let untraced_s = tracer.total_s("bench.untraced");
        let started = Instant::now();
        let p = tracer.span("net.pass", |t| pass(agents, beats, cfg.seed, &mut out, t));
        let traced_s = started.elapsed().as_secs_f64();
        out.runs += 1;
        out.set("net.connect_s", p.connect_s);
        out.set("net.cpu_user_s", p.cpu.0);
        out.set("net.cpu_sys_s", p.cpu.1);
        out.set("bench.trace_overhead_frac", traced_s / untraced_s - 1.0);
        wire_costs(&mut out, tracer);
    }
    out
}
