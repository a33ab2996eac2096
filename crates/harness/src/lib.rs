//! # harness
//!
//! The experiment harness of the Clock-RSM reproduction: everything needed
//! to re-run the paper's evaluation (Section VI) on the `simnet`
//! simulator.
//!
//! * [`workload`] — the paper's client model: closed-loop clients local to
//!   each replica, uniform random think time, fixed-size update commands
//!   against the replicated key-value store; balanced (all sites) and
//!   imbalanced (one site) variants, plus a saturating mode for the
//!   throughput experiments.
//! * [`stats`] — latency statistics: mean, percentiles, CDFs.
//! * [`lin`] — correctness checkers: total order across replicas,
//!   monotonic execution, linearizability (real-time order), and replica
//!   convergence.
//! * [`cluster`] — one-stop constructors running any of the four protocols
//!   (Clock-RSM, Paxos, Paxos-bcast, Mencius-bcast) over a given topology.
//! * [`experiment`] — the per-figure experiment runners used by both the
//!   `bench` binaries and the integration tests.
//! * [`shard`] — the scale-out driver: `N` independent replication
//!   groups in lockstep, keys hashed to groups, with cross-shard snapshot
//!   reads that observe one timestamp cut of every shard under
//!   Clock-RSM.
//!
//! ## Example
//!
//! ```
//! use harness::cluster::ProtocolChoice;
//! use harness::experiment::{ExperimentConfig, run_latency};
//! use rsm_core::LatencyMatrix;
//!
//! // A quick balanced-workload run on a small uniform topology.
//! let cfg = ExperimentConfig::new(LatencyMatrix::uniform(3, 10_000))
//!     .clients_per_site(2)
//!     .warmup_us(100_000)
//!     .duration_us(400_000);
//! let result = run_latency(ProtocolChoice::clock_rsm(), &cfg);
//! assert!(result.checks.total_order_ok);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod experiment;
pub mod lin;
pub mod shard;
pub mod stats;
pub mod workload;

pub use cluster::ProtocolChoice;
pub use experiment::{run_latency, run_throughput, ExperimentConfig, ExperimentResult};
pub use lin::{CheckReport, OpRecord, SnapshotRecord};
pub use shard::{run_sharded, ShardCounters, ShardedConfig, ShardedResult};
pub use stats::LatencyStats;
pub use workload::{Fault, WorkloadApp, WorkloadConfig};
