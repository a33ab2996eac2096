//! # rsm-runtime
//!
//! A **threaded real-time runtime** for the sans-io protocol cores: one OS
//! thread per replica and crossbeam channels as the in-process message
//! plane (framed TCP or Unix sockets on request —
//! [`ClusterTransport`]). Every message is delayed by the configured
//! wide-area latency (optionally scaled down for fast tests) without a
//! network thread: a send stamps the message with its due time and pushes
//! it straight into the destination's inbox, and the receiving replica
//! thread holds it in a due-time heap until then.
//!
//! A cluster *is* its replica threads. As in the paper's Algorithm 1, the
//! replica that took a command from its client is the one that answers
//! it: a blocking call's waiter rides into the replica's inbox with the
//! request, and the thread that executes the command hands the reply
//! straight to the caller — one wake-up, no intermediary, and no reply
//! built at all for a fire-and-forget [`Cluster::submit`].
//!
//! The same protocol implementations — Clock-RSM, Paxos, Paxos-bcast,
//! Mencius-bcast — run unmodified here and in the discrete-event
//! simulator (`simnet`), which is the point of the sans-io design, and
//! through the same node core: a replica thread schedules an
//! `rsm_core::node::Node` (state machine, log, execution count,
//! observability hooks, the `Context` implementation) and supplies only
//! the wall clock, the message plane, its timer heap and its waiters. The
//! simulator is where the paper's figures are reproduced in virtual time;
//! this runtime is what the repo benchmark (`BENCHMARK.json`,
//! `benchmark/`) drives on the wall clock, and what the geo-replicated
//! key-value store example (`geo_kvstore`) uses as a live deployment on
//! one machine.
//!
//! Like the simulator, the runtime coalesces queued client requests into
//! protocol-level batches ([`ClusterConfig::batch_policy`]): a node
//! thread drains whatever requests sit in its inbox (up to `max_batch`,
//! never waiting for more) and hands them to the protocol as one batch.
//!
//! ## Example
//!
//! ```
//! use rsm_runtime::{Cluster, ClusterConfig};
//! use clock_rsm::{ClockRsm, ClockRsmConfig};
//! use kvstore::{KvOp, KvStore};
//! use rsm_core::{LatencyMatrix, Membership, ReplicaId};
//! use std::time::Duration;
//!
//! let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000)).scale(0.05);
//! let cluster = Cluster::spawn(cfg, |id| {
//!     ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default())
//! }, || Box::new(KvStore::new()));
//!
//! let reply = cluster
//!     .execute(ReplicaId::new(0), KvOp::put("k", "v").encode(), Duration::from_secs(5))
//!     .expect("command should commit");
//! assert_eq!(reply.result[0], 1);
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod node;

pub use cluster::{Cluster, ClusterConfig, ClusterSession, ClusterTransport, ExecuteError};
