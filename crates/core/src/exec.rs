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

use crate::batch::Batch;
use crate::checkpoint::{
    Checkpoint, CheckpointPolicy, Checkpointer, StateTransferReply, StateTransferRequest,
};
use crate::command::{Command, Committed, Reply};
use crate::config::Epoch;
use crate::id::ReplicaId;
use crate::protocol::{Context, Protocol};
use crate::read::{ReadProbes, ReadQueue};
use crate::session::SessionTable;
use crate::time::Micros;

/// How long an unanswered [`StateTransferRequest`] (or a protocol's own
/// retransmission request) stays deduplicated before it may be re-sent.
/// Comfortably above a WAN round trip, so an exchange in flight is never
/// duplicated by ongoing traffic, while one lost to a peer's downtime is
/// retried promptly.
pub const TRANSFER_RETRY_US: Micros = 500_000;

/// One replica's execution state: the client-session dedup window, the
/// checkpoint trigger, the read front and the state-transfer peer
/// rotation. `W` is the protocol's ordering coordinate, `A` what its
/// read probes fold their answers into. See the [module docs](self).
#[derive(Debug)]
pub struct Executor<W: Ord + Copy, A = W> {
    me: ReplicaId,
    sessions: SessionTable,
    checkpointer: Checkpointer,
    /// Reads parked on a mark of the protocol's choosing, until its
    /// release cursor passes it.
    reads: ReadQueue<W>,
    /// The probes reads ride before they park.
    probes: ReadProbes<A>,
    /// Rotation cursor over the peers for state transfer requests: one
    /// peer is asked per round (a snapshot is large; asking everyone
    /// would make every peer serialize and ship one while the requester
    /// installs exactly one), and an unhelpful or dead peer just means
    /// the next retry asks the next one.
    transfer_target: usize,
}

impl<W: Ord + Copy, A> Executor<W, A> {
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
            probes: ReadProbes::new(),
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

    /// Parks a read that needs no probe (the Paxos lease fast path)
    /// until the release cursor reaches `mark`.
    pub fn park_read(&mut self, mark: W, cmd: Command) {
        self.reads.park(mark, cmd);
    }

    /// Number of reads parked, riding probes, or queued for a probe.
    pub fn pending_reads(&self) -> usize {
        self.reads.len() + self.probes.pending()
    }

    /// Hands back every read the front holds — parked, riding a probe,
    /// or queued for one — for the protocol to admit again when its
    /// probes' answers can no longer arrive and its release cursor
    /// restarts (Clock-RSM after an epoch install).
    pub fn take_reads(&mut self) -> Vec<Command> {
        let mut cmds = self.reads.take_all();
        cmds.append(&mut self.probes.abandon());
        cmds
    }
}

/// The one read front (see [`crate::read`]): a protocol supplies its
/// probe message, its local mark, how a completed probe folds into a
/// park mark, its release cursor and its probe quorum, and the executor
/// runs the loop admit → probe → fold → park → release → relaunch.
pub trait ReadFront: Protocol + Sized {
    /// The coordinate reads park on.
    type Mark: Ord + Copy;
    /// What a probe folds its answers into, starting from its seed.
    type Probe;
    /// The protocol's executor.
    fn executor(&mut self) -> &mut Executor<Self::Mark, Self::Probe>;

    /// Sends probe `seq` (the protocol's probe message) and returns its
    /// seed: the local mark the answers are folded into.
    fn send_probe(&mut self, seq: u64, ctx: &mut dyn Context<Self>) -> Self::Probe;

    /// How many distinct replicas must answer a probe before it
    /// completes (the seed is not an answer).
    fn probe_quorum(&self) -> usize;

    /// Where a completed probe parks `cmd`, one of its reads.
    fn park_mark(&self, probe: &Self::Probe, cmd: &Command) -> Self::Mark;

    /// The release cursor: parked reads at or below it are served.
    /// `None` while the replica may serve none.
    fn read_cursor(&self) -> Option<Self::Mark>;

    /// Whether a released read may still be answered; one that may not
    /// is dropped unanswered, for the client to retry.
    fn servable(&self, _cmd: &Command) -> bool {
        true
    }

    /// Admits a client read: it rides a fresh probe, or — past
    /// [`MAX_INFLIGHT_PROBES`](crate::read::MAX_INFLIGHT_PROBES) — the
    /// next one.
    fn start_read(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        if let Some(cmds) = self.executor().probes.admit(cmd, ctx) {
            launch_probe(self, cmds, ctx);
        }
    }

    /// Folds `from`'s answer to probe `seq` in with `fold` and completes
    /// every probe that reached its quorum.
    fn probe_answered(
        &mut self,
        from: ReplicaId,
        seq: u64,
        fold: impl FnOnce(&mut Self::Probe),
        ctx: &mut dyn Context<Self>,
    ) {
        self.executor().probes.on_answer(from, seq, fold);
        complete_probes(self, ctx);
    }

    /// The probe escape timer ([`PROBE_FLUSH_TOKEN`]) fired: the queued
    /// reads get a probe of their own.
    ///
    /// [`PROBE_FLUSH_TOKEN`]: crate::read::PROBE_FLUSH_TOKEN
    fn flush_read_probes(&mut self, ctx: &mut dyn Context<Self>) {
        let queued = self.executor().probes.on_flush_timer();
        launch_probe(self, queued, ctx);
    }

    /// Serves every parked read at or below the release cursor. Returns
    /// at once when nothing is parked.
    fn release_reads(&mut self, ctx: &mut dyn Context<Self>) {
        if self.executor().reads.is_empty() {
            return;
        }
        if let Some(cursor) = self.read_cursor() {
            let ready = self.executor().reads.release(cursor);
            serve(self, ready, ctx);
        }
    }

    /// Serves every parked read **strictly below** `bound`: a protocol
    /// about to apply a write at `bound` calls this first, so each read
    /// is answered from exactly the writes below its mark.
    fn release_reads_before(&mut self, bound: Self::Mark, ctx: &mut dyn Context<Self>) {
        if !self.executor().reads.is_empty() {
            let ready = self.executor().reads.release_before(bound);
            serve(self, ready, ctx);
        }
    }
}

/// Sends a probe carrying `cmds` (none: nothing to do) and completes it
/// at once if its quorum is already met.
fn launch_probe<P: ReadFront>(p: &mut P, cmds: Vec<Command>, ctx: &mut dyn Context<P>) {
    if cmds.is_empty() {
        return;
    }
    let seq = p.executor().probes.next_seq();
    let seed = p.send_probe(seq, ctx);
    p.executor().probes.begin(seed, cmds);
    complete_probes(p, ctx);
}

/// Parks the reads of every probe that reached its quorum, serves what
/// is already releasable, and launches one probe for the reads that
/// queued up behind the cap — probe traffic scales with probe round
/// trips, not with read arrivals.
fn complete_probes<P: ReadFront>(p: &mut P, ctx: &mut dyn Context<P>) {
    let quorum = p.probe_quorum();
    let ready = p.executor().probes.take_ready(quorum);
    if ready.is_empty() {
        return;
    }
    for (probe, cmds) in ready {
        for cmd in cmds {
            let mark = p.park_mark(&probe, &cmd);
            p.executor().reads.park(mark, cmd);
        }
    }
    p.release_reads(ctx);
    let queued = p.executor().probes.take_queued();
    launch_probe(p, queued, ctx);
}

/// Answers released reads from the local state machine. One the driver
/// cannot serve (no state machine access, or the command is not actually
/// read-only) is replicated like a write.
fn serve<P: ReadFront>(p: &mut P, ready: Vec<Command>, ctx: &mut dyn Context<P>) {
    for cmd in ready {
        if !p.servable(&cmd) {
            continue;
        }
        match ctx.sm_read(&cmd) {
            Some(result) => ctx.send_reply(Reply::new(cmd.id, result)),
            None => p.on_client_batch(Batch::single(cmd), ctx),
        }
    }
}
