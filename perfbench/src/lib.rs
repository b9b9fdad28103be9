//! Live serving benchmark of the esti runtime.
//!
//! Four seeded workloads run the live `ContinuousBatcher` over a real
//! `PartitionedEngine` (or `PartitionedEngine::generate` for the offline
//! batch); a traced run adds per-layer numbers measured from outside the
//! program. See `README.md` in this directory.

pub mod host;
pub mod layers;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;
