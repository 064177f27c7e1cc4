//! The four workloads; each stresses a different layer of the stack.

pub mod colo_sim;
pub mod fleet_faults;
pub mod telemetry_rpc;
pub mod traffic_surge;
