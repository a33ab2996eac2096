//! # clock-rsm
//!
//! The **Clock-RSM** replication protocol from *"Clock-RSM: Low-Latency
//! Inter-Datacenter State Machine Replication Using Loosely Synchronized
//! Physical Clocks"* (Du, Sciascia, Elnikety, Zwaenepoel, Pedone —
//! DSN 2014), implemented in full: the replication protocol (Algorithm 1),
//! the periodic clock-time broadcast extension (Algorithm 2), the
//! reconfiguration protocol (Algorithm 3), and log-based recovery
//! (Section V-B).
//!
//! ## The protocol in one paragraph
//!
//! Clock-RSM is a *multi-leader* protocol: every replica orders its own
//! clients' commands by stamping them with its loosely synchronized
//! physical clock (ties broken by replica id) and broadcasting a `PREPARE`.
//! Each replica logs the command and broadcasts a `PREPAREOK` carrying its
//! own clock reading, promising never to send a smaller timestamp. A
//! command with timestamp `ts` commits at a replica once three conditions
//! hold (Section III-B):
//!
//! 1. **Majority replication** — a majority of replicas logged it;
//! 2. **Stable order** — every replica's latest known timestamp exceeds
//!    `ts`, so no smaller-timestamped command can still arrive;
//! 3. **Prefix replication** — every smaller-timestamped command has
//!    committed.
//!
//! Because the three conditions are awaited *in parallel* (overlapped),
//! commit latency is the **max** of their individual latencies rather than
//! the sum — the paper's central latency result (Table II).
//!
//! Safety never depends on clock synchronization quality: skewed clocks
//! only delay the stable-order condition. The property tests in this crate
//! and the workspace integration tests run the protocol with second-scale
//! skews to demonstrate exactly that.
//!
//! ## Linearizable local reads
//!
//! The same stable-order machinery yields **local reads at any replica**
//! (`rsm_core::read`): a read rides a clock probe, stamped from the
//! replica's monotonic send-timestamp discipline, and is served from the
//! local state machine once the probe has its quorum of echoes and the
//! stable timestamp — `min(LatestTV)` with every smaller pending command
//! committed — passes the probe's stamp. Any write whose reply preceded
//! the read's arrival committed only after *this* replica's own clock
//! evidence exceeded the write's timestamp, so the stamp (strictly above
//! everything this replica ever sent) always orders after it. With
//! failure detection on, the quorum is a majority of current-epoch
//! echoes, so a replica reconfigured out answers no read, however slow
//! its clock. Like commits, the read path keeps the paper's design rule
//! intact:
//! clock skew moves only the stable-timestamp *wait*, never the answer —
//! in contrast to leader-lease reads (see the `paxos` crate), where a
//! clock bound is load-bearing for safety.
//!
//! ## Batching
//!
//! The data plane generalizes Algorithm 1 to whole batches: a driver can
//! hand the replica an ordered [`Batch`](rsm_core::Batch) of client
//! commands (knob: [`BatchPolicy`](rsm_core::BatchPolicy) on the driver),
//! which is stamped with **one** head timestamp — command `i` implicitly
//! holds `head + i` — and broadcast as a single `PREPAREBATCH`. Receivers
//! log and hold it as one run, and answer with one **cumulative**
//! `PREPAREOK`: a per-originator watermark covering its last timestamp (sound
//! because an originator emits prepares in increasing timestamp order
//! over FIFO channels). Commit checks then read a small watermark matrix
//! instead of per-timestamp ack counters, so the hot path does integer
//! compares and the message count per command drops by the batch factor.
//! Batch size 1 is byte-for-byte the paper's protocol.
//!
//! ## Failure handling
//!
//! Clock-RSM stalls if a replica in the current configuration stops
//! sending messages (condition 2 needs everyone). The reconfiguration
//! protocol (Algorithm 3) removes suspected replicas and reintegrates
//! recovered ones: a reconfigurer `SUSPEND`s the system, collects logged
//! commands with timestamps beyond its last commit from a majority, runs a
//! consensus instance (single-decree Paxos from the `paxos` crate) on the
//! `(config, timestamp, commands)` triple, and every replica applies the
//! decision — fetching missed commands via state transfer if it lags —
//! before resuming in the next epoch. Every answer is read from the
//! stable log, the replica's only record of what it prepared. Its
//! retries fire at [`ClockRsmConfig::retry_us`], a quarter of the one
//! failure-detection timeout (the detector's own tick).
//!
//! In-flight commands that did not reach the decision are dropped by the
//! epoch change (their clients retry); commands that reached any majority
//! member are preserved by the overlapping-majority argument of the
//! paper's Claim 3.
//!
//! ## Example
//!
//! ```
//! use clock_rsm::{ClockRsm, ClockRsmConfig};
//! use rsm_core::{Membership, ReplicaId};
//!
//! let replica = ClockRsm::new(
//!     ReplicaId::new(0),
//!     Membership::uniform(5),
//!     ClockRsmConfig::default(),
//! );
//! assert_eq!(replica.epoch().0, 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod log;
pub mod msg;
pub mod reconfig;
pub mod replica;
mod run;

pub use config::ClockRsmConfig;
pub use log::LogRec;
pub use msg::{Decision, LoggedCmd, RsmMsg};
pub use replica::ClockRsm;

#[cfg(test)]
mod tests {
    mod checkpoint;
}
