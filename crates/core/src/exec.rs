//! The execution pipeline every protocol shares.
//!
//! The protocols in this workspace differ only in how they *order*
//! commands (a Clock-RSM timestamp, a Paxos instance, a Mencius slot).
//! Everything after "this command is ordered" is the same, and lives
//! here once: session dedup → apply → checkpoint trigger → read release,
//! plus both ends of the one catch-up exchange
//! ([`CatchUp`]/[`CatchUpReply`](crate::checkpoint::CatchUpReply)). A
//! protocol owns one [`Executor`] keyed by its ordering coordinate `W`
//! and keeps only its ordering logic, its log record shapes, which of
//! its records are live above a checkpoint (the executor writes the log
//! as that checkpoint followed by them, and recovers from its head) and
//! the runs it serves.
//!
//! The catch-up answer rule is written once, in
//! [`Executor::answer_catch_up`]: given the lowest coordinate whose runs
//! the responder's protocol still holds, a request from at or above it
//! gets those runs; one from below it gets a snapshot when the
//! responder's executed prefix covers `from`, and nothing otherwise. The
//! requester's side, [`Executor::request_catch_up`], paces requests (one
//! per target lane is not repeated within [`TRANSFER_RETRY_US`]) and
//! rotates over the peers when the protocol names no target.
//!
//! The executor is the one place that calls
//! [`SessionTable::commit_dedup`], the [`Checkpointer`] count,
//! [`Context::sm_snapshot`], [`Context::sm_install`],
//! [`Context::log_rewrite`], and the
//! [`Context::sm_read`] → [`Context::send_reply`] release step, so a fix
//! to any of them lands for every protocol at once — including recovery
//! replay, which feeds the checkpoint trigger exactly like live
//! execution (a replica that crashes more often than the checkpoint
//! interval still checkpoints and compacts).

use std::iter::once;

use crate::batch::Batch;
use crate::checkpoint::{
    log_head, CatchUp, Checkpoint, CheckpointPolicy, CheckpointRecord, Checkpointer,
};
use crate::command::{Command, Committed, Reply};
use crate::config::Epoch;
use crate::id::ReplicaId;
use crate::obs::names;
use crate::protocol::{Context, Protocol};
use crate::read::{ReadProbes, ReadQueue};
use crate::session::SessionTable;
use crate::time::Micros;

/// How long an unanswered [`CatchUp`] stays deduplicated before it may
/// be re-sent. Comfortably above a WAN round trip, so an exchange in
/// flight is never duplicated by ongoing traffic, while one lost to a
/// peer's downtime is retried promptly.
pub const TRANSFER_RETRY_US: Micros = 500_000;

/// One replica's execution state: the client-session dedup window, the
/// checkpoint trigger, the read front and the catch-up pacer and peer
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
    /// Rotation cursor over the peers for catch-up requests that name no
    /// target: one peer is asked per round (a snapshot is large; asking
    /// everyone would make every peer serialize and ship one while the
    /// requester installs exactly one), and an unhelpful or dead peer
    /// just means the next retry asks the next one.
    transfer_target: usize,
    /// The last catch-up request per lane — a named target, or `None`
    /// for the rotation — as `(lane, from, sent at)`.
    asked: Vec<(Option<ReplicaId>, W, Micros)>,
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
            asked: Vec::new(),
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

    /// A checkpoint of the live state machine at `applied`, in `epoch`:
    /// also the answer to a requester in an earlier epoch, whatever it asks.
    pub fn snapshot<P: Protocol + ?Sized>(
        &self,
        applied: W,
        epoch: Epoch,
        config: &[ReplicaId],
        ctx: &mut dyn Context<P>,
    ) -> Checkpoint<W> {
        Checkpoint {
            applied,
            epoch,
            config: config.to_vec(),
            snapshot: ctx.sm_snapshot(),
            sessions: self.sessions.export(),
        }
    }

    /// When the policy says a checkpoint is due, takes one at watermark
    /// `applied` and compacts the stable log to it followed by `live`,
    /// the protocol's records still live above the watermark (consumed
    /// only then). Returns whether it did.
    pub fn checkpoint_if_due<P: Protocol<LogRec: CheckpointRecord<W>> + ?Sized>(
        &mut self,
        applied: W,
        epoch: Epoch,
        config: &[ReplicaId],
        ctx: &mut dyn Context<P>,
        live: impl IntoIterator<Item = P::LogRec>,
    ) -> bool {
        if !self.checkpointer.due() {
            return false;
        }
        let cp = self.snapshot(applied, epoch, config, ctx);
        self.checkpointer.taken();
        ctx.log_rewrite(once(P::LogRec::from_checkpoint(cp)).chain(live).collect());
        true
    }

    /// The one catch-up answer rule. `held` is the lowest coordinate whose
    /// runs the responder's protocol still holds (`None`: it serves no
    /// runs), `applied` its executed prefix. A request from at or above
    /// `held` gets the runs (`runs` builds them); one from below it gets
    /// a fresh snapshot of the prefix below `applied` — always coherent,
    /// never stale, no retained checkpoint needed — when that prefix
    /// covers `from`; otherwise nothing goes back (a peer that can will
    /// answer a later retry).
    #[allow(clippy::too_many_arguments)]
    pub fn answer_catch_up<P: Protocol + ?Sized, M: From<Checkpoint<W>>>(
        &self,
        from: W,
        held: Option<W>,
        applied: W,
        epoch: Epoch,
        config: &[ReplicaId],
        ctx: &mut dyn Context<P>,
        runs: impl FnOnce(&mut dyn Context<P>) -> M,
    ) -> Option<M> {
        if held.is_some_and(|h| h <= from) {
            return Some(runs(ctx));
        }
        if applied <= from {
            return None;
        }
        Some(self.snapshot(applied, epoch, config, ctx).into())
    }

    /// Sends `req` (wrapped by `msg`) to `to`, or to the next peer in the
    /// rotation over `config` when `None` — unless this lane asked from
    /// the same coordinate less than [`TRANSFER_RETRY_US`] ago. Different
    /// lanes pace independently, so two holes in flight at once (a
    /// protocol's own run fetch and an execution hole) never hold each
    /// other back.
    pub fn request_catch_up<P: Protocol + ?Sized>(
        &mut self,
        to: Option<ReplicaId>,
        req: CatchUp<W>,
        config: &[ReplicaId],
        ctx: &mut dyn Context<P>,
        msg: impl FnOnce(CatchUp<W>) -> P::Msg,
    ) {
        let now = ctx.clock();
        let lane = self.asked.iter().position(|a| a.0 == to);
        if let Some(i) = lane {
            let (_, from, at) = self.asked[i];
            if from == req.from && now.saturating_sub(at) < TRANSFER_RETRY_US {
                return; // an exchange is (presumed) in flight
            }
        }
        let Some(peer) = to.or_else(|| self.next_peer(config)) else {
            return;
        };
        match lane {
            Some(i) => self.asked[i] = (to, req.from, now),
            None => self.asked.push((to, req.from, now)),
        }
        ctx.obs_count(names::CATCHUP_REQUESTS, 1);
        ctx.send(peer, msg(req));
    }

    /// Installs a snapshot a catch-up brought back and compacts the
    /// stable log to it followed by `live`, as
    /// [`checkpoint_if_due`](Executor::checkpoint_if_due) does. Returns
    /// false, with nothing changed, when the state machine refuses it: a
    /// peer's bytes are input from outside.
    pub fn install_caught_up<P: Protocol<LogRec: CheckpointRecord<W>> + ?Sized>(
        &mut self,
        cp: Checkpoint<W>,
        ctx: &mut dyn Context<P>,
        live: impl IntoIterator<Item = P::LogRec>,
    ) -> bool {
        if !self.install(&cp, ctx) {
            return false;
        }
        ctx.obs_count(names::CATCHUP_SNAPSHOTS_INSTALLED, 1);
        ctx.log_rewrite(once(P::LogRec::from_checkpoint(cp)).chain(live).collect());
        true
    }

    /// Restores the checkpoint at the head of a recovered `log`, if any,
    /// and returns it: the protocol replays only what lies above it.
    ///
    /// # Panics
    ///
    /// Panics if the state machine refuses the snapshot: the log holds
    /// nothing below it to replay instead.
    pub fn recover<'a, P: Protocol<LogRec: CheckpointRecord<W>> + ?Sized>(
        &mut self,
        log: &'a [P::LogRec],
        ctx: &mut dyn Context<P>,
    ) -> Option<&'a Checkpoint<W>> {
        let cp = log_head(log)?;
        assert!(
            self.install(cp, ctx),
            "cannot restore the checkpoint at the head of its own log"
        );
        Some(cp)
    }

    /// Restores the state machine and the dedup window from `cp`, unless
    /// the state machine refuses it. The window travels with the snapshot
    /// so retries below the watermark stay recognised; a malformed frame
    /// leaves it empty and replay above the watermark rebuilds it.
    fn install<P: Protocol + ?Sized>(
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

    /// The next peer of the rotation over `config` (skipping ourselves);
    /// `None` in a single-replica configuration.
    fn next_peer(&mut self, config: &[ReplicaId]) -> Option<ReplicaId> {
        for _ in 0..config.len() {
            let candidate = config[self.transfer_target % config.len()];
            self.transfer_target = (self.transfer_target + 1) % config.len();
            if candidate != self.me {
                return Some(candidate);
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
