//! # simnet
//!
//! A **deterministic discrete-event simulator** for wide-area replicated
//! systems: the substrate on which every experiment of the Clock-RSM
//! reproduction runs.
//!
//! The paper (Du et al., DSN 2014) evaluates Clock-RSM and its baselines on
//! replicas deployed across Amazon EC2 data centers. We substitute that
//! testbed with a simulator that models exactly the quantities the paper's
//! analysis says matter:
//!
//! * **non-uniform one-way latencies** between data centers, taken from the
//!   paper's own measured RTT matrix (Table III), with optional jitter and
//!   strict per-link FIFO delivery (the paper's channel assumption). The
//!   links are FIFO and loss-free by construction: a partition parks
//!   messages and delivers them in order on heal, it never drops one;
//!   only a crashed destination loses what arrives while it is down;
//! * **loosely synchronized physical clocks** with configurable offset,
//!   drift, and an NTP-like synchronization bound — monotonic, as obtained
//!   from `clock_gettime` in the paper's implementation;
//! * **stable storage** that survives simulated crashes: each replica is
//!   an `rsm_core::node::Node` whose log outlives its protocol instance,
//!   and recovery replays it into a fresh one;
//! * **crash / recovery / partition** fault injection;
//! * an optional **CPU cost model** with opportunistic batching, used by
//!   the local-cluster throughput experiments (Figure 8);
//! * **request coalescing** ([`SimConfig::batch_policy`]): the client
//!   writes queued at a replica when it gets scheduled are handed to the
//!   protocol as one `Batch` of up to `max_batch` commands, enabling the
//!   protocol-level batching of the replication crates. The inbox is cut
//!   by the threaded runtime's rule, `rsm_core::node::intake`: a peer
//!   message inside a run of writes waits for its batch, and a read ends
//!   the run, so no read overtakes an earlier write.
//!
//! The simulator is a scheduler: the replica itself — state machine,
//! log, execution count, observability hooks and the one `Context`
//! implementation — is `rsm_core::node`, the same core the threaded
//! runtime drives. Runs are fully deterministic given a seed, so every
//! experiment and every failure scenario in the test suite is
//! replayable.
//!
//! ## Example
//!
//! ```
//! use rsm_core::LatencyMatrix;
//! use simnet::{ClockModel, SimConfig};
//!
//! let cfg = SimConfig::new(LatencyMatrix::uniform(3, 25_000))
//!     .seed(7)
//!     .jitter_us(500)
//!     .clock_model(ClockModel::ntp(1_000));
//! assert_eq!(cfg.num_replicas(), 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod cpu;
pub mod sched;
pub mod sim;

pub use clock::{ClockModel, PhysicalClock};
pub use cpu::CpuModel;
pub use sched::EventQueue;
pub use sim::{Application, CommitRecord, NullApplication, SimApi, SimConfig, Simulation};
