//! The execution pipeline every protocol shares.
//!
//! The protocols in this workspace differ only in how they *order*
//! commands (a Clock-RSM timestamp, a Paxos instance, a Mencius slot).
//! Everything after "this command is ordered" is the same, and lives
//! here once: session dedup → apply → checkpoint trigger → read release,
//! plus the serve/install halves of checkpoint state transfer. A
//! protocol owns one [`Executor`] keyed by its ordering coordinate `W`
//! and keeps only its ordering logic, its log record shapes and its
//! compaction (what a rewritten log must retain is ordering state).
//!
//! The executor is the one place that calls
//! [`SessionTable::commit_dedup`], the [`Checkpointer`] count,
//! [`Context::sm_snapshot`], [`Context::sm_install`], and the
//! [`Context::sm_read`] → [`Context::send_reply`] release step, so a fix
//! to any of them lands for every protocol at once — including recovery
//! replay, which feeds the checkpoint trigger exactly like live
//! execution (a replica that crashes more often than the checkpoint
//! interval still checkpoints and compacts).

use crate::checkpoint::{
    Checkpoint, CheckpointPolicy, Checkpointer, StateTransferReply, StateTransferRequest,
};
use crate::command::{Command, Committed, Reply};
use crate::config::Epoch;
use crate::id::ReplicaId;
use crate::protocol::{Context, Protocol};
use crate::read::ReadQueue;
use crate::session::SessionTable;
use crate::time::Micros;

/// How long an unanswered [`StateTransferRequest`] (or a protocol's own
/// retransmission request) stays deduplicated before it may be re-sent.
/// Comfortably above a WAN round trip, so an exchange in flight is never
/// duplicated by ongoing traffic, while one lost to a peer's downtime is
/// retried promptly.
pub const TRANSFER_RETRY_US: Micros = 500_000;

/// One replica's execution state: the client-session dedup window, the
/// checkpoint trigger, the parked local reads and the state-transfer
/// peer rotation. See the [module docs](self).
#[derive(Debug)]
pub struct Executor<W: Ord + Copy> {
    me: ReplicaId,
    sessions: SessionTable,
    checkpointer: Checkpointer,
    /// Reads parked on a watermark of the protocol's choosing. Protocols
    /// park and inspect directly; serving goes through
    /// [`release_reads`](Executor::release_reads) or
    /// [`serve_reads`](Executor::serve_reads).
    pub reads: ReadQueue<W>,
    /// Rotation cursor over the peers for state transfer requests: one
    /// peer is asked per round (a snapshot is large; asking everyone
    /// would make every peer serialize and ship one while the requester
    /// installs exactly one), and an unhelpful or dead peer just means
    /// the next retry asks the next one.
    transfer_target: usize,
}

impl<W: Ord + Copy> Executor<W> {
    /// An executor for replica `me`.
    ///
    /// # Panics
    ///
    /// Panics if `session_window` is zero.
    pub fn new(me: ReplicaId, policy: CheckpointPolicy, session_window: usize) -> Self {
        Executor {
            me,
            sessions: SessionTable::new(session_window),
            checkpointer: Checkpointer::new(policy),
            reads: ReadQueue::new(),
            transfer_target: 0,
        }
    }

    /// Replaces the checkpoint policy (restarting its counters).
    pub fn set_checkpoint_policy(&mut self, policy: CheckpointPolicy) {
        self.checkpointer = Checkpointer::new(policy);
    }

    /// Replaces the dedup window with an empty one bounded to `n` clients.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn set_session_window(&mut self, n: usize) {
        self.sessions = SessionTable::new(n);
    }

    /// Sets the session-table chaos-canary knob (**test-only**): when on,
    /// duplicate writes re-apply instead of deduplicating — the bug the
    /// chaos fuzzer proves it can find and shrink.
    pub fn set_session_canary(&mut self, on: bool) {
        self.sessions.set_canary_skip_dedup(on);
    }

    /// Whether the policy asks for log compaction at checkpoint time.
    pub fn compacts(&self) -> bool {
        self.checkpointer.policy().compact
    }

    /// Executes one ordered command — live or replayed from the log —
    /// through the dedup window: a fresh write (or any read-only command)
    /// reaches the state machine and counts toward the checkpoint
    /// trigger; a client retry that already executed is answered from the
    /// cached reply at its origin instead. Returns whether it applied.
    pub fn execute<P: Protocol + ?Sized>(
        &mut self,
        cmd: Command,
        origin: ReplicaId,
        order_hint: u64,
        ctx: &mut dyn Context<P>,
    ) -> bool {
        let committed = Committed {
            cmd,
            origin,
            order_hint,
        };
        let applied = self.sessions.commit_dedup(self.me, committed, ctx);
        if applied {
            self.checkpointer.note_commit();
        }
        applied
    }

    /// A checkpoint of the live state machine at watermark `applied`, or
    /// `None` when the driver has no snapshot support.
    fn snapshot<P: Protocol + ?Sized>(
        &self,
        applied: W,
        epoch: Epoch,
        config: &[ReplicaId],
        ctx: &mut dyn Context<P>,
    ) -> Option<Checkpoint<W>> {
        Some(Checkpoint {
            applied,
            epoch,
            config: config.to_vec(),
            snapshot: ctx.sm_snapshot()?,
            sessions: self.sessions.export(),
        })
    }

    /// The checkpoint to write when the policy says one is due. Stays due
    /// (and returns `None`) on a driver without snapshot support, whose
    /// recovery is replay-only. The caller appends it to — or compacts
    /// its log around — the returned record.
    pub fn checkpoint_if_due<P: Protocol + ?Sized>(
        &mut self,
        applied: W,
        epoch: Epoch,
        config: &[ReplicaId],
        ctx: &mut dyn Context<P>,
    ) -> Option<Checkpoint<W>> {
        if !self.checkpointer.due() {
            return None;
        }
        let cp = self.snapshot(applied, epoch, config, ctx)?;
        self.checkpointer.taken();
        Some(cp)
    }

    /// Answers a peer that has executed everything below `have` with a
    /// fresh snapshot of our prefix below `applied` — always coherent,
    /// never stale, no retained checkpoint needed. `None` when we have
    /// nothing the requester lacks or cannot snapshot (a peer that can
    /// will answer a later retry).
    pub fn serve_transfer<P: Protocol + ?Sized>(
        &self,
        have: W,
        applied: W,
        epoch: Epoch,
        config: &[ReplicaId],
        ctx: &mut dyn Context<P>,
    ) -> Option<StateTransferReply<W>> {
        if applied <= have {
            return None;
        }
        let checkpoint = self.snapshot(applied, epoch, config, ctx)?;
        Some(StateTransferReply { checkpoint })
    }

    /// Restores the state machine and the dedup window from `cp` (a
    /// recovered log's newest checkpoint, or a peer's transfer). Returns
    /// false, with nothing changed, when the driver cannot install
    /// snapshots. The window travels with the snapshot so retries of
    /// commands below the watermark stay recognised; a malformed frame
    /// leaves it empty and replay above the watermark rebuilds what it
    /// can.
    pub fn install<P: Protocol + ?Sized>(
        &mut self,
        cp: &Checkpoint<W>,
        ctx: &mut dyn Context<P>,
    ) -> bool {
        if !ctx.sm_install(cp.snapshot.clone()) {
            return false;
        }
        let _ = self.sessions.install(&cp.sessions);
        true
    }

    /// The next peer to ask for a checkpoint covering our prefix below
    /// `have` (round-robin over `config`, skipping ourselves), with the
    /// request to send it. `None` in a single-replica configuration.
    pub fn transfer_request(
        &mut self,
        have: W,
        config: &[ReplicaId],
    ) -> Option<(ReplicaId, StateTransferRequest<W>)> {
        for _ in 0..config.len() {
            let candidate = config[self.transfer_target % config.len()];
            self.transfer_target = (self.transfer_target + 1) % config.len();
            if candidate != self.me {
                return Some((candidate, StateTransferRequest { have }));
            }
        }
        None
    }

    /// Serves every parked read whose mark is `<= up_to` (see
    /// [`serve_reads`](Executor::serve_reads) for the return value).
    pub fn release_reads<P: Protocol + ?Sized>(
        &mut self,
        up_to: W,
        ctx: &mut dyn Context<P>,
    ) -> Vec<Command> {
        let ready = self.reads.release(up_to);
        Self::serve_reads(ready, ctx)
    }

    /// Answers released reads from the local state machine. Returns the
    /// ones the driver could not serve (no state machine access, or the
    /// command is not actually read-only): the protocol replicates those
    /// like writes.
    pub fn serve_reads<P: Protocol + ?Sized>(
        ready: Vec<Command>,
        ctx: &mut dyn Context<P>,
    ) -> Vec<Command> {
        let mut unserved = Vec::new();
        for cmd in ready {
            match ctx.sm_read(&cmd) {
                Some(result) => ctx.send_reply(Reply::new(cmd.id, result)),
                None => unserved.push(cmd),
            }
        }
        unserved
    }
}
