//! Protocol-agnostic checkpointing and the catch-up exchange.
//!
//! Section V-B of the paper: "Checkpointing can be used to avoid replaying
//! the whole log and speed up the recovery process." This module lifts that
//! mechanism out of any single protocol into a shared subsystem with three
//! pieces:
//!
//! * [`CheckpointPolicy`] / [`Checkpointer`] — *when* to checkpoint: every
//!   N applied commands. Every checkpoint **compacts**: the stable log is
//!   rewritten to the checkpoint followed by the records still live above
//!   its watermark, so a log is always its checkpoint (at its head, read
//!   by [`log_head`]) plus what lies above it.
//! * [`Checkpoint`] — *what* a checkpoint is: a canonical state machine
//!   snapshot plus the **applied watermark** (the protocol's own ordering
//!   coordinate — a Clock-RSM timestamp, a Paxos instance, a Mencius
//!   slot), and the epoch/configuration it was taken in. A protocol's log
//!   record type carries one through [`CheckpointRecord`].
//! * [`CatchUp`] / [`CatchUpReply`] — the one catch-up exchange (paper
//!   Section V-B: fetch what was missed, or install a checkpoint if the
//!   log was compacted). A replica that cannot make execution progress
//!   from its log and live traffic alone asks one peer for the range
//!   `[from, below)` it lacks; the peer sends back the runs its
//!   protocol still holds from `from`, or — when its log was compacted
//!   past `from` but it executed past it — a checkpoint, which the
//!   requester installs before resuming, acknowledgements included, from
//!   the installed watermark.
//!
//! The mechanism itself — counting applied commands, taking the
//! snapshot, writing the checkpoint-headed log, restoring it on recovery,
//! serving and installing a [`Checkpoint`], and the catch-up answer rule
//! and request pacing — is [`exec::Executor`](crate::exec::Executor)'s;
//! protocols say only which of their records are still live above a
//! watermark and what runs they serve.
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
//! taken in. Clock-RSM orders epochs before timestamps: a checkpoint of
//! a later epoch serves a replica behind it whatever its watermark, and
//! installs the epoch. The static-membership baselines always carry
//! [`Epoch::ZERO`] and their fixed configuration.

use std::fmt;

use bytes::Bytes;

use crate::config::Epoch;
use crate::id::ReplicaId;

/// When a replica writes a checkpoint: every so many applied commands.
///
/// Every checkpoint compacts the stable log to the checkpoint record
/// followed by the records still live above its watermark — this is
/// what bounds replica memory (and recovery time) under long runs.
///
/// # Examples
///
/// ```
/// use rsm_core::CheckpointPolicy;
/// let p = CheckpointPolicy::every(64);
/// assert!(p.enabled() && p.every_commits == Some(64));
/// assert!(!CheckpointPolicy::DISABLED.enabled());
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint every this many applied commands (`None` = never).
    pub every_commits: Option<u64>,
}

impl CheckpointPolicy {
    /// Checkpointing off: recovery replays the whole log.
    pub const DISABLED: CheckpointPolicy = CheckpointPolicy {
        every_commits: None,
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
        }
    }

    /// The policy itself: every checkpoint compacts the log, so `true`
    /// changes nothing (callers that still pass it compile), and `false`
    /// panics.
    pub fn with_compaction(self, on: bool) -> Self {
        assert!(on, "every checkpoint compacts the log");
        self
    }

    /// Whether checkpoints are taken at all.
    pub fn enabled(&self) -> bool {
        self.every_commits.is_some()
    }
}

/// Counts applied commands since the last checkpoint and decides when the
/// next one is due, per a [`CheckpointPolicy`].
///
/// Driven by [`Executor`](crate::exec::Executor), never by a protocol
/// directly: [`execute`](crate::exec::Executor::execute) counts every
/// applied command — live or replayed on recovery — and
/// [`checkpoint_if_due`](crate::exec::Executor::checkpoint_if_due)
/// resets the count when it writes the checkpoint.
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

    /// Records one applied command.
    pub fn note_commit(&mut self) {
        self.commits_since += 1;
    }

    /// Whether a checkpoint is due under the policy.
    pub fn due(&self) -> bool {
        self.policy
            .every_commits
            .is_some_and(|n| self.commits_since >= n)
    }

    /// Resets the count: a checkpoint was written.
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

/// A protocol's log record type, whose `Checkpoint` variant only ever
/// heads a log: [`Executor`](crate::exec::Executor) writes it there and
/// [`log_head`] reads it back.
/// [`checkpoint_record!`](crate::checkpoint_record) implements it.
pub trait CheckpointRecord<W>: Sized {
    /// `cp` as a log record.
    fn from_checkpoint(cp: Checkpoint<W>) -> Self;

    /// The checkpoint this record holds, if it is one.
    fn as_checkpoint(&self) -> Option<&Checkpoint<W>>;
}

/// Implements [`CheckpointRecord<$w>`](CheckpointRecord) for the log
/// record enum `$rec`, whose `Checkpoint` variant holds the checkpoint.
#[macro_export]
macro_rules! checkpoint_record {
    ($rec:ident, $w:ty) => {
        impl $crate::checkpoint::CheckpointRecord<$w> for $rec {
            fn from_checkpoint(cp: $crate::checkpoint::Checkpoint<$w>) -> Self {
                $rec::Checkpoint(cp)
            }
            fn as_checkpoint(&self) -> Option<&$crate::checkpoint::Checkpoint<$w>> {
                match self {
                    $rec::Checkpoint(cp) => Some(cp),
                    _ => None,
                }
            }
        }
    };
}

/// The checkpoint at the head of `log`, if it has one: what a recovering
/// replica restores, and the watermark below which the log holds no
/// runs to serve.
pub fn log_head<W, R: CheckpointRecord<W>>(log: &[R]) -> Option<&Checkpoint<W>> {
    log.first()?.as_checkpoint()
}

crate::wire_table! {
    /// The one catch-up request: a replica that came back with a hole asks
    /// one peer for what it holds of `[from, below)` (see
    /// [`Executor::answer_catch_up`](crate::exec::Executor::answer_catch_up)
    /// for the answer rule).
    ///
    /// Sent when execution cannot progress from the log and live traffic
    /// alone: a recovered Mencius replica resyncing with an owner whose
    /// proposals it may have missed while down, a Paxos follower whose
    /// accept run landed past its vouch watermark, a Paxos replica stalled
    /// at a committed hole, a Clock-RSM replica applying a decision past
    /// its commit point (to a majority), or one that sees a later epoch
    /// than it holds decisions for.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct CatchUp<W> {
        /// The requester's first missing coordinate (inclusive).
        pub from: W,
        /// The end of the range it asks for (exclusive).
        pub below: W,
    }
}

crate::wire_table! {
    /// A peer's answer to a [`CatchUp`]: the protocol's own runs in the
    /// asked range, when its log still reaches back to `from`, or else a
    /// snapshot of its executed prefix (taken on demand from the live state
    /// machine, so it always covers that prefix).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum CatchUpReply<W, R> {
        /// What the responder logged in `[from, below)`, in the protocol's
        /// own run shape. Coordinates of the range absent from `runs` hold
        /// nothing the responder may serve.
        0 => Runs {
            /// Echo of the request's `from`.
            from: W,
            /// The range end the runs vouch for: the request's `below`, or
            /// lower where the protocol cannot vouch that far.
            below: W,
            /// The runs.
            runs: R,
        },
        /// The responder compacted its log past `from` but executed past
        /// it: its checkpoint, with `applied` above the request's `from`.
        1 => Snapshot(Checkpoint<W>),
    }
}

impl<W, R> From<Checkpoint<W>> for CatchUpReply<W, R> {
    fn from(cp: Checkpoint<W>) -> Self {
        CatchUpReply::Snapshot(cp)
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
        // Stays due until taken.
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
    #[should_panic(expected = "every checkpoint compacts")]
    fn an_uncompacting_policy_is_refused() {
        let p = CheckpointPolicy::every(4);
        assert_eq!(p.with_compaction(true), p);
        let _ = p.with_compaction(false);
    }
}
