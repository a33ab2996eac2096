//! # paxos
//!
//! The **Multi-Paxos** and **Paxos-bcast** baselines of the Clock-RSM paper
//! (Sections IV-B and VI), plus a reusable **single-decree synod**
//! (classic Paxos consensus) that the Clock-RSM reconfiguration protocol
//! uses for its `PROPOSE`/`DECIDE` primitives (Algorithm 3).
//!
//! ## Multi-Paxos / Paxos-bcast
//!
//! One replica leads. Followers forward client commands to it; the leader
//! assigns consecutive instance numbers and runs phase 2 (accept) for
//! each. Two variants, exactly as analyzed in Table II of the paper:
//!
//! * **Paxos** — phase 2b goes only to the leader, which then broadcasts a
//!   commit notification. Non-leader commit latency:
//!   `2·d(r_i, r_l) + 2·median_k(d(r_l, r_k))`. Message complexity `O(N)`.
//! * **Paxos-bcast** — every replica broadcasts phase 2b; each replica
//!   self-commits on a majority. Non-leader latency:
//!   `d(r_i, r_l) + median_k(d(r_l, r_k) + d(r_k, r_i))`. Complexity
//!   `O(N²)`.
//!
//! The paper evaluates both failure-free with a fixed leader, and that is
//! still the default here ([`rsm_core::LeaseConfig::DISABLED`]). Leader
//! fail-over is fully modelled on top: with a lease installed
//! ([`MultiPaxos::with_failover`]), followers detect leader silence,
//! elect a replacement with [`Ballot`]-fenced phase 1 over the log
//! suffix, and the deposed leader rejoins as a follower — see the
//! [`replica`] module docs for the fencing invariant.
//!
//! ## Linearizable reads: leader leases and quorum marks
//!
//! The read subsystem (`rsm_core::read`) gives the **lease-holding
//! leader** local reads fenced by ballot + lease: the leader serves
//! while a majority confirmed its regime within half the suspicion
//! timeout (via messages whose send implies the sender just heard the
//! leader), and acceptors refuse to promise a higher ballot while
//! their own lease is fresh (leader stickiness), so any new regime
//! needs a majority silent from the leader for a full timeout. Unlike
//! everything else in this workspace, the fast path rests on a
//! **bounded timing assumption**: the one-way transit of lease
//! evidence plus relative clock drift over a lease window must stay
//! under half the timeout. The blast radius is deliberately small:
//! ballots still nack a deposed leader's *writes*, so a violated bound
//! can at worst leak one stale read inside one lease window, never
//! divergence. Followers — and a leader whose lease is uncertain —
//! nack the fast path and fall back to a clock-free **quorum-mark
//! read**: probe a majority for commit watermarks (raised to their
//! accepted-log tops), park the read at the maximum, serve once local
//! execution passes it. See the read-path section in `replica.rs` for
//! the full argument.
//!
//! ## Example
//!
//! ```
//! use paxos::{MultiPaxos, PaxosVariant};
//! use rsm_core::{LeaseConfig, Membership, ReplicaId};
//!
//! let p = MultiPaxos::new(
//!     ReplicaId::new(1),
//!     Membership::uniform(5),
//!     ReplicaId::new(0),          // initial leader
//!     PaxosVariant::Bcast,
//! )
//! .with_failover(LeaseConfig::after(400_000));
//! assert!(!p.is_leader());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod msg;
pub mod replica;
pub mod synod;

pub use msg::{PaxosMsg, SuffixEntry};
pub use replica::{MultiPaxos, PaxosLogRec, PaxosVariant};
pub use synod::{Ballot, SynodInstance, SynodMsg};
