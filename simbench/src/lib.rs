//! Host-performance benchmark of the NDP simulator: four closed-loop
//! workloads run through the simulator's public API, with end-to-end
//! metrics from untraced passes and per-layer metrics from traced ones.
//! See `README.md` in this package for the workloads and metrics.

pub mod report;
pub mod spans;
pub mod stats;
pub mod suite;
