//! # mencius
//!
//! The **Mencius-bcast** baseline of the Clock-RSM paper (Sections IV-C
//! and VI): a multi-leader state machine replication protocol that rotates
//! the coordinator role round-robin over a pre-agreed slot space, with the
//! broadcast latency optimization applied (replicas broadcast their
//! acknowledgements, saving the final commit-notification step).
//!
//! ## Protocol sketch
//!
//! Slot `s` is owned by replica `s mod N`. A replica proposes its clients'
//! commands in its own slots. When a replica observes a proposal in slot
//! `s` it *skips* its own unused slots below `s` — a promise carried on its
//! broadcast acknowledgement — so that the gap slots resolve to no-ops. A
//! slot commits when a majority has acknowledged it **and** every smaller
//! slot is resolved (committed or skipped). Execution is in slot order.
//!
//! This structure reproduces the two behaviours the paper analyzes:
//!
//! * **Delayed commit** (balanced workloads): a command in slot `s` waits
//!   for concurrent commands in smaller slots owned by other replicas,
//!   adding up to one one-way delay beyond Clock-RSM's latency.
//! * **Imbalanced workloads**: with a single active proposer, a slot can
//!   only resolve once *every* other replica's skip promise arrives, so
//!   commit latency is a full round trip to the *farthest* replica
//!   (`2·max_k d(r_i, r_k)`).
//!
//! As in the paper's evaluation, the baseline runs failure-free: slot
//! revocation (running Paxos to steal a dead coordinator's slot) is not
//! modelled; Clock-RSM's reconfiguration is the paper's answer to failures.
//!
//! ## Recovery
//!
//! A crashed replica replays its stable log (from the checkpoint at its
//! head, `rsm_core::checkpoint`), but proposals sent while it was down
//! are lost, so for every other owner it may be missing some. Until it
//! is back in sync with an owner it neither skips that owner's slots nor
//! acknowledges them cumulatively. It resyncs with one catch-up per
//! owner, asked when a proposal of the owner's arrives or the owner's
//! slot blocks execution: the owner answers with its own proposals from
//! the requester's execution cursor up to its next own slot, and FIFO
//! delivers every later one after the answer, so the answer resyncs the
//! requester at once. An owner whose log no longer reaches back to the
//! cursor answers with a snapshot instead; the requester installs it and
//! asks again from its new cursor.
//!
//! ## Example
//!
//! ```
//! use mencius::MenciusBcast;
//! use rsm_core::{Membership, ReplicaId};
//!
//! let m = MenciusBcast::new(ReplicaId::new(1), Membership::uniform(3));
//! assert_eq!(m.owner_of_slot(4), ReplicaId::new(1));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod msg;
pub mod replica;

pub use msg::MenciusMsg;
pub use replica::{MenciusBcast, MenciusLogRec};
