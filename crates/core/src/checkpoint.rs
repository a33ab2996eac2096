//! Protocol-agnostic checkpointing and peer-to-peer state transfer.
//!
//! Section V-B of the paper: "Checkpointing can be used to avoid replaying
//! the whole log and speed up the recovery process." This module lifts that
//! mechanism out of any single protocol into a shared subsystem with three
//! pieces:
//!
//! * [`CheckpointPolicy`] / [`Checkpointer`] — *when* to checkpoint: every
//!   N applied commands, optionally followed by **log compaction**
//!   (truncating log records at or below the checkpoint watermark).
//! * [`Checkpoint`] — *what* a checkpoint is: a canonical state machine
//!   snapshot plus the **applied watermark** (the protocol's own ordering
//!   coordinate — a Clock-RSM timestamp, a Paxos instance, a Mencius
//!   slot), and the epoch/configuration it was taken in.
//! * [`StateTransferRequest`] / [`StateTransferReply`] — the wire shapes
//!   of peer-to-peer checkpoint transfer: a replica that cannot make
//!   execution progress from its log and live traffic alone (committed
//!   holes whose proposals were lost while it was down, and whose log
//!   records its peers have since compacted into a checkpoint) asks any
//!   peer whose commit watermark covers the gap; the peer answers with a
//!   checkpoint, the requester installs it and resumes —
//!   acknowledgements included — from the installed watermark.
//!
//! The mechanism itself — counting applied commands, taking the
//! snapshot, building, serving and installing a [`Checkpoint`] — is
//! [`exec::Executor`](crate::exec::Executor)'s; protocols decide only
//! what their log keeps around a checkpoint record.
//!
//! # Watermark and epoch invariants
//!
//! The whole subsystem rests on two invariants, shared by every protocol
//! in this workspace:
//!
//! 1. **Watermark coverage.** A checkpoint with applied watermark `w`
//!    reflects *exactly* the commands the protocol executed before `w` in
//!    its execution order — no more, no less. Because execution order is
//!    total and identical at every replica (the state machine safety
//!    property, Section II-B), installing a peer's checkpoint at `w` is
//!    indistinguishable from having executed that prefix locally.
//! 2. **Watermark finality.** Everything below a checkpoint's watermark
//!    is *globally decided*: the serving replica executed it, and a
//!    protocol only executes commands that are committed. Hence a
//!    requester that installs a checkpoint may also resume cumulative
//!    acknowledgements from `w` — vouching for a decided prefix adds no
//!    false quorum weight (the same argument that lets a recovered
//!    replica's cumulative ack jump a committed gap) — and may truncate
//!    its log below `w`: nothing there can ever be needed again, because
//!    any peer that still needs the prefix can be served a checkpoint
//!    instead of log records.
//!
//! The `epoch`/`config` fields pin the configuration the snapshot was
//! taken in. Protocols with reconfiguration (Clock-RSM) order epochs
//! before timestamps, so a checkpoint is only installable by a replica in
//! the same epoch; the static-membership baselines always carry
//! [`Epoch::ZERO`] and their fixed configuration.

use std::fmt;

use bytes::Bytes;

use crate::config::Epoch;
use crate::id::ReplicaId;
use crate::wire::{WireSize, MSG_HEADER_BYTES};

/// When a replica writes a checkpoint: every so many applied commands.
///
/// `compact` additionally truncates the stable log at checkpoint time,
/// keeping only the checkpoint record and the records still above its
/// watermark — this is what bounds replica memory (and recovery time)
/// under long runs. Compaction assumes the recovering driver can restore
/// snapshots ([`Context::sm_install`](crate::protocol::Context::sm_install)
/// returns `true`); both in-tree drivers can.
///
/// # Examples
///
/// ```
/// use rsm_core::CheckpointPolicy;
/// let p = CheckpointPolicy::every(64).with_compaction(true);
/// assert!(p.enabled() && p.compact);
/// assert!(!CheckpointPolicy::DISABLED.enabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint every this many applied commands (`None` = never).
    pub every_commits: Option<u64>,
    /// Truncate the stable log at or below the watermark when a
    /// checkpoint is written or installed.
    pub compact: bool,
}

impl CheckpointPolicy {
    /// Checkpointing off: recovery replays the whole log.
    pub const DISABLED: CheckpointPolicy = CheckpointPolicy {
        every_commits: None,
        compact: false,
    };

    /// Checkpoint every `n` applied commands.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn every(n: u64) -> Self {
        assert!(n > 0, "checkpoint interval must be positive");
        CheckpointPolicy {
            every_commits: Some(n),
            ..CheckpointPolicy::DISABLED
        }
    }

    /// Enables or disables log compaction at checkpoint time.
    pub fn with_compaction(mut self, on: bool) -> Self {
        self.compact = on;
        self
    }

    /// Whether checkpoints are taken at all.
    pub fn enabled(&self) -> bool {
        self.every_commits.is_some()
    }
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy::DISABLED
    }
}

/// Counts applied commands since the last checkpoint and decides when the
/// next one is due, per a [`CheckpointPolicy`].
///
/// Driven by [`Executor`](crate::exec::Executor), never by a protocol
/// directly: [`execute`](crate::exec::Executor::execute) counts every
/// applied command — live or replayed on recovery — and
/// [`checkpoint_if_due`](crate::exec::Executor::checkpoint_if_due)
/// resets the count only once a snapshot was actually taken. Until
/// then [`due`](Checkpointer::due) keeps answering `true`, so a driver
/// without snapshot support simply never resets it.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    policy: CheckpointPolicy,
    commits_since: u64,
}

impl Checkpointer {
    /// A tracker for the given policy.
    pub fn new(policy: CheckpointPolicy) -> Self {
        Checkpointer {
            policy,
            commits_since: 0,
        }
    }

    /// The policy this tracker enforces.
    pub fn policy(&self) -> CheckpointPolicy {
        self.policy
    }

    /// Records one applied command.
    pub fn note_commit(&mut self) {
        if self.policy.enabled() {
            self.commits_since += 1;
        }
    }

    /// Whether a checkpoint is due under the policy.
    pub fn due(&self) -> bool {
        self.policy
            .every_commits
            .is_some_and(|n| self.commits_since >= n)
    }

    /// Resets the count after a checkpoint was durably written.
    pub fn taken(&mut self) {
        self.commits_since = 0;
    }
}

crate::wire_table! {
    /// A protocol-agnostic checkpoint: a state machine snapshot pinned to an
    /// applied watermark and the epoch/configuration it was taken in.
    ///
    /// `W` is the protocol's execution-order coordinate (Clock-RSM
    /// `Timestamp`, Paxos instance `u64`, Mencius slot `u64`); each protocol
    /// documents whether its watermark is inclusive or exclusive. See the
    /// module docs for the invariants a checkpoint must satisfy.
    #[derive(Clone, PartialEq, Eq)]
    pub struct Checkpoint<W> {
        /// The applied watermark: the snapshot reflects exactly the commands
        /// the protocol executed before (or through — protocol-defined) this
        /// coordinate.
        pub applied: W,
        /// The epoch the snapshot was taken in.
        pub epoch: Epoch,
        /// The configuration at snapshot time.
        pub config: Vec<ReplicaId>,
        /// Canonical state machine snapshot
        /// ([`StateMachine::snapshot`](crate::sm::StateMachine::snapshot)).
        pub snapshot: Bytes,
        /// The replica's client-session dedup window at the watermark
        /// ([`SessionTable::export`](crate::session::SessionTable::export)):
        /// riding the checkpoint is what keeps the exactly-once guarantee
        /// alive across recovery, log compaction, and state transfer. Empty
        /// when the protocol tracks no sessions.
        pub sessions: Bytes,
    }
}

impl<W: fmt::Debug> fmt::Debug for Checkpoint<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Checkpoint(applied: {:?}, epoch: {:?}, {}B)",
            self.applied,
            self.epoch,
            self.snapshot.len()
        )
    }
}

impl<W> WireSize for Checkpoint<W> {
    fn wire_size(&self) -> usize {
        // watermark + epoch + config ids + length-prefixed snapshot and
        // session table.
        8 + 8 + 2 * self.config.len() + 4 + self.snapshot.len() + 4 + self.sessions.len()
    }
}

crate::wire_table! {
    /// A replica asks a peer for its latest checkpoint covering everything the
    /// requester has already executed.
    ///
    /// Sent when execution cannot progress from the log and live traffic
    /// alone: a Paxos replica stalled at a committed hole whose `ACCEPT` was
    /// lost while it was down, or a Mencius replica stalled at a hole below
    /// the checkpoint its owner's compacted log now starts at.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct StateTransferRequest<W> {
        /// The requester's applied watermark: it has executed everything
        /// strictly below this coordinate. Any checkpoint with
        /// `applied > have` helps.
        pub have: W,
    }
}

impl<W> WireSize for StateTransferRequest<W> {
    fn wire_size(&self) -> usize {
        MSG_HEADER_BYTES + 8
    }
}

crate::wire_table! {
    /// A peer's answer to a [`StateTransferRequest`]: its checkpoint (taken on
    /// demand from the live state machine, so it always covers the peer's own
    /// applied prefix).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StateTransferReply<W> {
        /// The checkpoint; `applied` exceeds the request's `have` or the peer
        /// would not have answered.
        pub checkpoint: Checkpoint<W>,
    }
}

impl<W> WireSize for StateTransferReply<W> {
    fn wire_size(&self) -> usize {
        MSG_HEADER_BYTES + self.checkpoint.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_policy_never_fires() {
        let mut c = Checkpointer::new(CheckpointPolicy::DISABLED);
        for _ in 0..1_000 {
            c.note_commit();
        }
        assert!(!c.due());
    }

    #[test]
    fn count_trigger_fires_at_interval() {
        let mut c = Checkpointer::new(CheckpointPolicy::every(3));
        c.note_commit();
        c.note_commit();
        assert!(!c.due());
        c.note_commit();
        assert!(c.due());
        // Stays due until taken (driver may lack snapshot support).
        c.note_commit();
        assert!(c.due());
        c.taken();
        assert!(!c.due());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = CheckpointPolicy::every(0);
    }

    #[test]
    fn wire_sizes_scale_with_snapshot() {
        let small = Checkpoint {
            applied: 5u64,
            epoch: Epoch::ZERO,
            config: vec![ReplicaId::new(0), ReplicaId::new(1)],
            snapshot: Bytes::from(vec![0u8; 10]),
            sessions: Bytes::new(),
        };
        let large = Checkpoint {
            snapshot: Bytes::from(vec![0u8; 1_000]),
            ..small.clone()
        };
        assert_eq!(large.wire_size() - small.wire_size(), 990);
        let req: StateTransferRequest<u64> = StateTransferRequest { have: 1 };
        assert_eq!(req.wire_size(), MSG_HEADER_BYTES + 8);
        let reply = StateTransferReply { checkpoint: large };
        assert!(reply.wire_size() > 1_000);
    }
}
