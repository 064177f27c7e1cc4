//! The pocolo benchmark. One run measures one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the run stamp with the spread of every metric. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones and writes the
//! spans to `.bench_build/perfbench/spans-<workload>-<seed>.jsonl`.
//!
//! `perfbench --all` runs every workload untraced and traced, prints every
//! metric by name with its unit, and exits nonzero when a check fails.
//! `perfbench --self-test` does the same at a tiny size and also asserts
//! that every catalog metric was emitted.

mod report;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::{Outcome, END_TO_END, PER_LAYER};
use stats::Spread;
use trace::Tracer;

/// Seed a run uses when `--seed` is absent. Seed 1013 is held out for
/// confirming a claim made on other seeds.
pub const DEFAULT_SEED: u64 = 7;

pub const WORKLOADS: &[&str] = &["fleet-faults", "traffic-surge", "colo-sim", "telemetry-rpc"];

/// Problem size: `Full` for measurements, `Tiny` for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    pub nproc: usize,
}

/// The measurement window of one run: a workload measures another unit
/// (epoch, engine call, policy run, pass) while that unit, expected to
/// take as long as the one before it, still ends inside the window. The
/// first unit is always measured.
pub struct Window {
    started: Instant,
    last: Instant,
    seconds: f64,
    units: usize,
}

impl Window {
    pub fn new(seconds: f64) -> Self {
        let now = Instant::now();
        Window {
            started: now,
            last: now,
            seconds,
            units: 0,
        }
    }

    /// Call before each unit: whether to measure it.
    pub fn another(&mut self) -> bool {
        let now = Instant::now();
        let previous_s = (now - self.last).as_secs_f64();
        self.last = now;
        let fits =
            self.units == 0 || (now - self.started).as_secs_f64() + previous_s <= self.seconds;
        self.units += usize::from(fits);
        fits
    }
}

/// The catalog's `&'static` name for a per-layer metric built at run time.
///
/// # Panics
///
/// Panics if `name` is not in [`PER_LAYER`].
pub fn layer_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(n, _)| *n)
        .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
}

fn run_workload(name: &str, cfg: &Config, tracer: &mut Tracer) -> Outcome {
    match name {
        "fleet-faults" => workloads::fleet_faults::run(cfg, tracer),
        "traffic-surge" => workloads::traffic_surge::run(cfg, tracer),
        "colo-sim" => workloads::colo_sim::run(cfg, tracer),
        "telemetry-rpc" => workloads::telemetry_rpc::run(cfg, tracer),
        _ => unreachable!("workload names are validated by the parser"),
    }
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// First line of a command's stdout, or `"unknown"`.
fn probe(cmd: &str, args: &[&str]) -> String {
    let mut c = Command::new(cmd);
    c.args(args);
    // Never let git walk up out of the checkout into an enclosing repo.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        c.env("GIT_CEILING_DIRECTORIES", parent);
    }
    c.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values become `null`, which the
/// result check rejects).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    all: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        all: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--size" => {
                args.size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--size takes full or tiny, got {v}")),
                }
            }
            "--all" => args.all = true,
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_none() && !args.all && !args.self_test {
        return Err("need --workload <name>, --all or --self-test".into());
    }
    Ok(args)
}

/// Runs one workload and prints the stamp line and the result line.
fn single(args: &Args, workload: &str, size: Size) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        size,
        nproc,
    };
    let mut tracer = Tracer::new(args.trace);
    let started = Instant::now();
    let mut out = run_workload(workload, &cfg, &mut tracer);
    if args.trace {
        // Whatever no span covers is the benchmark's own time.
        out.set(
            "bench.self_s",
            started.elapsed().as_secs_f64() - tracer.top_level_s(),
        );
    }
    out.set("peak_rss_mb", peak_rss_mb());
    let (threads, connections) = (out.threads, out.connections);
    out.check(threads <= nproc && connections <= nproc, || {
        format!("load used {threads} threads and {connections} connections on {nproc} cpus")
    });

    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    let mut spread = Vec::new();
    for &(name, unit) in catalog {
        // A layer the workload never calls reports 0; an end-to-end
        // metric must always be measured.
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => f64::NAN,
        };
        out.check(value.is_finite(), || {
            format!("metric {name} was not measured")
        });
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
        let s = out
            .samples
            .get(name)
            .map_or_else(|| Spread::of(&[value]), |v| Spread::of(v));
        spread.push(format!(
            "{}:{{\"n\":{},\"p25\":{},\"median\":{},\"p75\":{}}}",
            json_str(name),
            s.n,
            json_num(s.p25),
            json_num(s.median),
            json_num(s.p75)
        ));
    }

    if args.trace {
        let path = PathBuf::from(format!(
            ".bench_build/perfbench/spans-{workload}-{}.jsonl",
            args.seed
        ));
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(&path, tracer.to_jsonl()) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }

    for f in &out.failures {
        eprintln!("perfbench: {workload}: check failed: {f}");
    }
    println!(
        "{{\"stamp\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"threads\":{},\"connections\":{},\"runs\":{},\"rustc\":{},\"commit\":{}}},\
         \"spread\":{{{}}}}}",
        json_str(workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        nproc,
        out.threads,
        out.connections,
        out.runs,
        json_str(&probe("rustc", &["--version"])),
        json_str(&probe("git", &["rev-parse", "HEAD"])),
        spread.join(",")
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

/// Runs every workload untraced and traced in child processes (so each
/// has its own peak RSS), prints every metric with its unit, and fails
/// when any check fails or — under `self_test` — a metric is missing.
fn all(args: &Args, self_test: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for &workload in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace]);
            if args.size == Size::Tiny {
                cmd.args(["--size", "tiny"]);
            }
            let output = match cmd.output() {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: cannot run {workload}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let Some(result) = stdout
                .lines()
                .last()
                .and_then(|l| pocolo_json::from_str(l).ok())
            else {
                println!(
                    "{workload} trace={trace}: no result (exit {})",
                    output.status
                );
                ok = false;
                continue;
            };
            let correct = result["correct"].as_bool() == Some(true);
            println!(
                "{workload} trace={trace}: correct={correct} attempted={} failed={}",
                result["attempted"], result["failed"]
            );
            ok &= correct && output.status.success();
            let catalog = if trace == "1" { PER_LAYER } else { END_TO_END };
            for &(name, unit) in catalog {
                let m = &result["metrics"][name];
                let (Some(value), Some(got_unit)) = (m["value"].as_f64(), m["unit"].as_str())
                else {
                    println!("  {name:<32} MISSING");
                    ok = false;
                    continue;
                };
                if self_test && got_unit != unit {
                    println!("  {name:<32} unit {got_unit} != {unit}");
                    ok = false;
                }
                println!("  {name:<32} {value:>16.6} {got_unit}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: some checks failed");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return all(
            &Args {
                seconds: args.seconds.min(1.0),
                size: Size::Tiny,
                ..args
            },
            true,
        );
    }
    if args.all {
        return all(&args, false);
    }
    let workload = args.workload.clone().expect("parser requires a workload");
    single(&args, &workload, args.size)
}
