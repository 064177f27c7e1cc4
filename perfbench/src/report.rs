//! The metric catalog and one run's outcome.

use std::collections::BTreeMap;

use crate::stats::Spread;

/// End-to-end metrics, reported by every workload in untraced runs. Each
/// is defined per workload in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics, reported by every workload in traced runs. A layer
/// the workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload outcomes that are exact per seed (quality guards) and the
    // tails of the end-to-end latencies.
    ("fault_replan_p90_ms", "ms"),
    ("brownout_replan_p50_ms", "ms"),
    ("placement_utility", "matrix"),
    ("slo_violation_frac", "fraction"),
    ("be_throughput", "normalized"),
    ("cap_violations", "count"),
    ("rtt_p50_us", "us"),
    ("rtt_p99_us", "us"),
    // pocolo-core::fit / pocolo-sim fitting.
    ("fit.offline_s", "s"),
    // pocolo-cluster: matrix, candidates, auction, placement.
    ("cluster.matrix_build_s", "s"),
    ("cluster.candidates_build_s", "s"),
    ("cluster.cold_auction_s", "s"),
    ("cluster.rebuild_columns_s", "s"),
    ("cluster.rebuild_cells", "count"),
    ("cluster.replan_s", "s"),
    ("auction.fault.bids", "count"),
    ("auction.fault.bid_edges", "count"),
    ("auction.fault.cert_edges", "count"),
    ("auction.fault.phases", "count"),
    ("auction.fault.widen_rounds", "count"),
    ("auction.fault.dirty_rows", "count"),
    ("auction.refit.bids", "count"),
    ("auction.refit.bid_edges", "count"),
    ("auction.refit.cert_edges", "count"),
    ("auction.refit.phases", "count"),
    ("auction.refit.widen_rounds", "count"),
    ("auction.refit.dirty_rows", "count"),
    ("auction.brownout.bids", "count"),
    ("auction.brownout.bid_edges", "count"),
    ("auction.brownout.cert_edges", "count"),
    ("auction.brownout.phases", "count"),
    ("auction.brownout.widen_rounds", "count"),
    ("auction.brownout.dirty_rows", "count"),
    ("placement.migrations", "count"),
    // pocolo-traffic: generation, batch digest, engine.
    ("traffic.gen_s", "s"),
    ("traffic.gen_req_per_s", "1/s"),
    ("traffic.digest_s", "s"),
    ("traffic.slot_counts_s", "s"),
    ("traffic.engine_self_s", "s"),
    ("traffic.refits", "count"),
    ("traffic.replans", "count"),
    ("traffic.migrations", "count"),
    // pocolo-sim + pocolo-manager + pocolo-simserver.
    ("sim.server_mean_s", "s"),
    ("sim.server_max_s", "s"),
    ("sim.ns_per_tick", "ns"),
    ("sim.engine_self_s", "s"),
    ("manager.decisions", "count"),
    ("manager.capping_events", "count"),
    ("manager.evictions", "count"),
    // pocolo-net + pocolo-json.
    ("net.connect_s", "s"),
    ("net.cpu_user_s", "s"),
    ("net.cpu_sys_s", "s"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.telemetry_bytes", "bytes"),
    ("wire.ack_bytes", "bytes"),
    // The benchmark itself.
    ("bench.trace_overhead_frac", "fraction"),
    ("bench.self_s", "s"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check (printed to stderr).
    pub failures: Vec<String>,
    /// Metric values by catalog name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Samples behind a metric, for the spread record.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Measured units (epochs, engine calls, policy runs, swarm passes).
    pub runs: usize,
    /// Threads and connections the load used.
    pub threads: usize,
    pub connections: usize,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records `samples` and sets the metric to their median.
    pub fn set_median(&mut self, name: &'static str, samples: Vec<f64>) {
        self.metrics.insert(name, Spread::of(&samples).median);
        self.samples.insert(name, samples);
    }

    /// Counts one checked operation; `ok == false` records a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}
