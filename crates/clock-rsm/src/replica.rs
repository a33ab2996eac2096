//! The Clock-RSM replica: Algorithms 1 and 2 of the paper.

use std::collections::{BTreeSet, VecDeque};

use rsm_core::batch::Batch;
use rsm_core::checkpoint::CatchUpReply;
use rsm_core::command::Command;
use rsm_core::config::{Epoch, Membership};
use rsm_core::exec::{Executor, ReadFront};
use rsm_core::id::ReplicaId;
use rsm_core::obs::{names, TraceStage};
use rsm_core::protocol::{Context, Protocol, TimerToken};
use rsm_core::read::{ReadPath, PROBE_FLUSH_TOKEN};
use rsm_core::session::DEFAULT_SESSION_WINDOW;
use rsm_core::time::{Micros, Timestamp};

use crate::config::ClockRsmConfig;
use crate::log::{logged_in, LogRec};
use crate::msg::RsmMsg;
use crate::reconfig::ReconfigEngine;
use crate::run::{at, stamped, Run};

/// Timer token: periodic CLOCKTIME broadcast check (Algorithm 2).
pub(crate) const TOKEN_CLOCKTIME: TimerToken = TimerToken(1);
/// Timer token: drain the PREPAREOK wait queue (Algorithm 1, line 8).
pub(crate) const TOKEN_ACK_WAIT: TimerToken = TimerToken(2);
/// Timer token: failure detector sweep.
pub(crate) const TOKEN_FD: TimerToken = TimerToken(3);
/// Timer token: reconfiguration consensus retry.
pub(crate) const TOKEN_SYNOD_RETRY: TimerToken = TimerToken(4);
/// Timer token: suspend-collection / state-transfer retry.
pub(crate) const TOKEN_RECONFIG_RETRY: TimerToken = TimerToken(5);

/// Where a read pinned at the external cut `at` parks: the lane sits
/// above every real replica id, so a write stamped at the same
/// microsecond orders *below* the cut and is included — "snapshot at
/// t" means exactly the writes with ts ≤ t.
fn pinned(at: Micros) -> Timestamp {
    Timestamp::new(at, ReplicaId::new(u16::MAX - 1))
}

/// Packs `(epoch, ts)` into a single strictly increasing execution-order
/// coordinate: epoch-major, then timestamp micros, then originating
/// replica. Commands of epoch `e+1` always order after all of epoch `e`.
///
/// Layout: 12 bits of epoch, 44 bits of microseconds, 8 bits of replica
/// id. The replica lane holds ids up to 255; [`ClockRsm::new`] rejects
/// memberships beyond that so the truncation below can never fold two
/// distinct replicas onto one key (ids ≥ 256 would otherwise silently
/// collide). 44 bits of microseconds is ~204 days of continuous run time
/// (clocks are process-relative — the runtime counts from spawn and the
/// simulator from virtual time zero, never the wall-clock epoch), and
/// epochs wrap after 4096 reconfigurations — both asserted.
pub(crate) fn order_key(epoch: Epoch, ts: Timestamp) -> u64 {
    // Hard asserts even in release: an out-of-range timestamp or epoch
    // would silently corrupt the execution order. order_key runs only at
    // commit time, so the two comparisons are off the per-message path.
    assert!(ts.micros() < 1 << 44, "timestamp exceeds order-key range");
    assert!(epoch.0 < 1 << 12, "epoch exceeds order-key range");
    debug_assert!(
        ts.replica().as_u16() < MAX_ORDER_KEY_REPLICAS,
        "replica id exceeds order-key range"
    );
    (epoch.0 << 52) | (ts.micros() << 8) | (ts.replica().as_u16() as u64 & 0xFF)
}

/// Largest membership the order-key layout can distinguish (8-bit replica
/// lane). Enforced at construction.
pub const MAX_ORDER_KEY_REPLICAS: u16 = 1 << 8;

/// A Clock-RSM replica (Algorithm 1), with the clock-time broadcast
/// extension (Algorithm 2) and reconfiguration (Algorithm 3).
///
/// Drive it with the `simnet` simulator or the `rsm-runtime` threaded
/// runtime via the [`Protocol`] implementation; see the crate docs for the
/// protocol description.
#[derive(Debug)]
pub struct ClockRsm {
    pub(crate) id: ReplicaId,
    pub(crate) membership: Membership,
    pub(crate) cfg: ClockRsmConfig,

    // ------ Algorithm 1 soft state (Table I) ------
    /// `PendingCmds`, as one FIFO of runs per origin (indexed like
    /// `acked`): each run is a received PREPAREBATCH and a cursor past its
    /// committed commands. An origin stamps its batches above a strictly
    /// increasing send floor and its links are FIFO, so its runs arrive —
    /// and each lane stays — in timestamp order; the timestamp order
    /// across origins is the merge of the lane fronts.
    pub(crate) pending: Vec<VecDeque<Run>>,
    /// Cumulative replication watermarks replacing the paper's
    /// `RepCounter`: `acked[k][o]` is the largest timestamp value `t`
    /// such that replica `k` has acknowledged logging **every** prepare
    /// from origin `o` with timestamp micros ≤ `t`. A pending command
    /// `(ts, o)` is replicated at `k` iff `acked[k][o] ≥ ts.micros()`, so
    /// the hot path is a handful of integer comparisons instead of a
    /// per-timestamp hash-map counter.
    pub(crate) acked: Vec<Vec<Micros>>,
    /// `LatestTV`: latest clock timestamp known from each replica
    /// (indexed by replica index over Spec; only Config entries are read).
    pub(crate) latest_tv: Vec<Timestamp>,
    /// Timestamp of the last commit mark appended to the log.
    pub(crate) last_committed: Timestamp,

    // ------ sending discipline ------
    /// Strictly increasing floor over every timestamp this replica has
    /// sent; enforces the paper's requirement that PREPARE, PREPAREOK and
    /// CLOCKTIME leave in timestamp order.
    pub(crate) send_floor: Micros,

    // ------ PREPAREOK wait queue (line 8: wait until ts < Clock) ------
    pub(crate) wait_queue: BTreeSet<Timestamp>,
    pub(crate) wait_armed_for: Option<Micros>,

    // ------ reconfiguration ------
    /// Frozen by SUSPEND (Algorithm 3 line 8): REQUEST and PREPARE
    /// processing and commits pause until the decision applies.
    pub(crate) frozen: bool,
    /// Local clock value when the freeze began (liveness backstop).
    pub(crate) frozen_since: Micros,
    /// Client batches received while frozen or awaiting rejoin, re-issued
    /// with their original batch boundaries on unfreeze (so batching
    /// stays a driver decision — a freeze never merges or splits
    /// batches).
    pub(crate) queued_requests: VecDeque<Batch>,
    pub(crate) queued_msgs: VecDeque<(ReplicaId, RsmMsg)>,
    pub(crate) reconfig: ReconfigEngine,
    /// Set by recovery: rejoin via reconfiguration before serving.
    pub(crate) needs_rejoin: bool,

    // ------ failure detector ------
    /// Local-clock time we last heard from each replica.
    pub(crate) last_heard: Vec<Micros>,

    // ------ execution (`rsm_core::exec`) ------
    /// The shared execution pipeline: session dedup window, checkpoint
    /// trigger, and the read front — reads ride clock probes and park at
    /// the probe's timestamp until the stable timestamp passes it (see
    /// the [`ReadFront`] impl).
    pub(crate) exec: Executor<Timestamp>,
    /// Reads received while frozen or awaiting rejoin, admitted on
    /// unfreeze: a probe sent mid-freeze would count its own copy, an
    /// answer from a frozen replica, toward its echo quorum.
    pub(crate) queued_reads: VecDeque<Command>,

    // ------ counters (observability) ------
    pub(crate) committed_count: u64,
    /// Trace-stage floors (only advanced while the driver is observing;
    /// see [`ClockRsm::obs_scan`]): the `min(LatestTV)` value up to
    /// which pending commands have been stamped
    /// [`Stable`](rsm_core::obs::TraceStage::Stable) …
    pub(crate) obs_stable_floor: Timestamp,
    /// … and, per origin, the majority-ack watermark up to which its
    /// pending commands have been stamped
    /// [`Replicated`](rsm_core::obs::TraceStage::Replicated).
    pub(crate) obs_repl_floor: Vec<Micros>,
}

impl ClockRsm {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the membership spec, or if any spec id is
    /// ≥ [`MAX_ORDER_KEY_REPLICAS`] (the execution-order key reserves an
    /// 8-bit lane for the replica id; larger ids would silently collide).
    pub fn new(id: ReplicaId, membership: Membership, cfg: ClockRsmConfig) -> Self {
        assert!(membership.in_spec(id), "replica {id} not in spec");
        if let Some(big) = membership
            .spec()
            .iter()
            .find(|r| r.as_u16() >= MAX_ORDER_KEY_REPLICAS)
        {
            panic!(
                "replica id {big} does not fit the order-key layout \
                 (max {MAX_ORDER_KEY_REPLICAS} replicas)"
            );
        }
        let n = membership.spec().len();
        ClockRsm {
            id,
            cfg,
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            acked: vec![vec![0; n]; n],
            latest_tv: vec![Timestamp::ZERO; n],
            last_committed: Timestamp::ZERO,
            send_floor: 0,
            wait_queue: BTreeSet::new(),
            wait_armed_for: None,
            frozen: false,
            frozen_since: 0,
            queued_requests: VecDeque::new(),
            queued_msgs: VecDeque::new(),
            reconfig: ReconfigEngine::new(id, membership.spec().to_vec()),
            needs_rejoin: false,
            last_heard: vec![0; n],
            exec: Executor::new(id, cfg.checkpoint, DEFAULT_SESSION_WINDOW),
            queued_reads: VecDeque::new(),
            committed_count: 0,
            obs_stable_floor: Timestamp::ZERO,
            obs_repl_floor: vec![0; n],
            membership,
        }
    }

    /// The current epoch.
    pub fn epoch(&self) -> Epoch {
        self.membership.epoch()
    }

    // ------------------------------------------------------------------
    // Sending discipline
    // ------------------------------------------------------------------

    /// Produces the next timestamp to put on an outgoing message: the
    /// current clock reading, bumped to stay strictly above everything
    /// this replica has already sent (and above everything it has applied
    /// across epoch changes).
    pub(crate) fn next_send_ts(&mut self, ctx: &mut dyn Context<Self>) -> Timestamp {
        self.next_send_ts_span(1, ctx)
    }

    /// Reserves `k` consecutive timestamps and returns the head: a batch
    /// of `k` commands occupies `[head, head + k)` in this replica's
    /// timestamp space, and everything sent afterwards is strictly above
    /// the whole run.
    pub(crate) fn next_send_ts_span(&mut self, k: u64, ctx: &mut dyn Context<Self>) -> Timestamp {
        debug_assert!(k >= 1);
        let clock = ctx.clock();
        let micros = clock.max(self.send_floor + 1);
        self.send_floor = micros + (k - 1);
        Timestamp::new(micros, self.id)
    }

    pub(crate) fn broadcast_config(&self, msg: RsmMsg, ctx: &mut dyn Context<Self>) {
        for r in self.membership.config().to_vec() {
            ctx.send(r, msg.clone());
        }
    }

    // ------------------------------------------------------------------
    // Algorithm 1
    // ------------------------------------------------------------------

    /// Lines 1–3, generalized: stamp the whole batch with one head
    /// timestamp and broadcast a single PREPAREBATCH.
    fn handle_batch(&mut self, batch: Batch, ctx: &mut dyn Context<Self>) {
        if self.frozen || self.needs_rejoin {
            self.queued_requests.push_back(batch);
            return;
        }
        let ts = self.next_send_ts_span(batch.len() as u64, ctx);
        if ctx.obs_active() {
            for cmd in batch.iter() {
                ctx.trace(cmd.id, TraceStage::Proposed);
            }
        }
        let msg = RsmMsg::PrepareBatch {
            epoch: self.epoch(),
            ts,
            origin: self.id,
            cmds: batch,
        };
        self.broadcast_config(msg, ctx);
    }

    /// Lines 4–10, generalized: log the batch as one run, then
    /// acknowledge it with one cumulative PREPAREOK carrying a clock
    /// reading greater than its last timestamp (waiting out clock skew
    /// if necessary). The log record and the pending lane share the
    /// received batch's storage: no command is cloned.
    fn handle_prepare_batch(
        &mut self,
        head: Timestamp,
        origin: ReplicaId,
        cmds: Batch,
        ctx: &mut dyn Context<Self>,
    ) {
        let head = Timestamp::new(head.micros(), origin);
        let last = at(head, cmds.len() - 1);
        ctx.log_append(LogRec::PrepareBatch {
            head,
            origin,
            cmds: cmds.clone(),
        });
        let o = origin.index();
        let fifo = self.pending[o]
            .back()
            .is_none_or(|r| at(r.head, r.cmds.len()) <= head);
        debug_assert!(fifo, "an origin's runs arrive in timestamp order");
        // A run replayed after a snapshot install may reach down to the
        // commit point the snapshot brought: that prefix already executed.
        let fresh = (0..cmds.len()).position(|i| at(head, i) > self.last_committed);
        if let Some(next) = fresh {
            self.pending[o].push_back(Run { head, cmds, next });
        }
        self.latest_tv[o] = self.latest_tv[o].max(last);
        if self.needs_rejoin {
            // A recovered replica may have lost prepares that were in
            // flight while it was down, so a cumulative ack would
            // falsely cover them. Log the batch (it shrinks the
            // post-rejoin state transfer) but promise nothing: acks
            // resume after the rejoin reconfiguration installs a fresh
            // epoch, which resets every ack watermark in the system.
            self.try_commit(ctx);
            return;
        }
        let clock = ctx.clock();
        if clock > last.micros() {
            self.send_prepare_ok(last, ctx);
        } else {
            // Local clock is behind the originator's: promise nothing
            // until our clock passes the batch's last timestamp (paper:
            // "highly unlikely with reasonably synchronized clocks").
            self.wait_queue.insert(last);
            self.arm_wait_timer(last.micros(), clock, ctx);
        }
        self.try_commit(ctx);
    }

    fn send_prepare_ok(&mut self, up_to: Timestamp, ctx: &mut dyn Context<Self>) {
        let clock_ts = self.next_send_ts(ctx);
        debug_assert!(clock_ts > up_to);
        let msg = RsmMsg::PrepareOk {
            epoch: self.epoch(),
            up_to,
            clock_ts,
        };
        self.broadcast_config(msg, ctx);
    }

    fn arm_wait_timer(&mut self, target: Micros, clock: Micros, ctx: &mut dyn Context<Self>) {
        let fire_in = target.saturating_sub(clock) + 1;
        match self.wait_armed_for {
            Some(armed) if armed <= target => {}
            _ => {
                self.wait_armed_for = Some(target);
                ctx.set_timer(fire_in, TOKEN_ACK_WAIT);
            }
        }
    }

    /// Timer: acknowledge every queued PREPARE watermark the local clock
    /// has now passed, in timestamp order. A later ready watermark from
    /// the same originator subsumes earlier ones (acks are cumulative),
    /// so at most one PREPAREOK per originator leaves per drain.
    fn drain_wait_queue(&mut self, ctx: &mut dyn Context<Self>) {
        self.wait_armed_for = None;
        let mut ready: Vec<Timestamp> = Vec::new();
        while let Some(&ts) = self.wait_queue.first() {
            let clock = ctx.clock();
            if clock <= ts.micros() {
                self.arm_wait_timer(ts.micros(), clock, ctx);
                break;
            }
            self.wait_queue.pop_first();
            // Keep only the largest ready watermark per originator.
            ready.retain(|r| r.replica() != ts.replica());
            ready.push(ts);
        }
        for ts in ready {
            self.send_prepare_ok(ts, ctx);
        }
    }

    /// Lines 11–13, generalized: advance the acker's cumulative watermark
    /// for the acknowledged originator.
    fn handle_prepare_ok(
        &mut self,
        from: ReplicaId,
        up_to: Timestamp,
        clock_ts: Timestamp,
        ctx: &mut dyn Context<Self>,
    ) {
        let k = from.index();
        self.latest_tv[k] = self.latest_tv[k].max(clock_ts);
        let o = up_to.replica().index();
        if self.acked[k][o] < up_to.micros() {
            self.acked[k][o] = up_to.micros();
        }
        self.try_commit(ctx);
    }

    /// Algorithm 2, receive side.
    fn handle_clock_time(&mut self, from: ReplicaId, ts: Timestamp, ctx: &mut dyn Context<Self>) {
        let k = from.index();
        self.latest_tv[k] = self.latest_tv[k].max(ts);
        self.try_commit(ctx);
    }

    /// Receive side of a peer's clock probe: clock evidence for its
    /// lane like any CLOCKTIME, answered at once with a unicast
    /// [`ClockEcho`](RsmMsg::ClockEcho) naming it — except by a frozen or
    /// rejoining replica, which stays silent, so a reconfiguration's
    /// frozen majority is in no echo quorum.
    fn handle_clock_probe(
        &mut self,
        from: ReplicaId,
        ts: Timestamp,
        seq: u64,
        ctx: &mut dyn Context<Self>,
    ) {
        if !self.frozen && !self.needs_rejoin {
            let echo = RsmMsg::ClockEcho {
                epoch: self.epoch(),
                ts: self.next_send_ts(ctx),
                seq,
            };
            ctx.send(from, echo);
            ctx.obs_count(names::CLOCK_ECHOES_SENT, 1);
        }
        self.handle_clock_time(from, ts, ctx);
    }

    /// The smallest `LatestTV` entry over the current configuration
    /// (line 22).
    pub(crate) fn min_latest_tv(&self) -> Timestamp {
        self.membership
            .config()
            .iter()
            .map(|r| self.latest_tv[r.index()])
            .min()
            .expect("config is never empty")
    }

    /// Lines 14–23: commit every pending command that satisfies majority
    /// replication, stable order, and prefix replication, in timestamp
    /// order — an n-way merge of the lane fronts.
    ///
    /// Each round takes the lane whose front command has the smallest
    /// timestamp and commits from its front run while the command is
    /// majority-replicated (its origin's majority-ack watermark, computed
    /// once per round, reaches it), stable (`min(LatestTV)` reaches it)
    /// and below every other lane's front. Stability or acks can cut a
    /// run mid-way; another lane's front cuts it because runs from
    /// different origins interleave. The first round that commits
    /// nothing ends the walk: everything later waits on that command.
    pub(crate) fn try_commit(&mut self, ctx: &mut dyn Context<Self>) {
        if self.frozen {
            return;
        }
        if ctx.obs_active() {
            self.obs_scan(ctx);
        }
        let stable = self.min_latest_tv();
        while let Some((_, o)) = self.fronts().min() {
            let rival = self.fronts().filter(|&(_, k)| k != o).min();
            let replicated = self.replicated_upto(o);
            let before = self.committed_count;
            while let Some(run) = self.pending[o].front_mut() {
                let ts = run.front();
                if ts.micros() > replicated || ts > stable || rival.is_some_and(|r| r.0 < ts) {
                    break;
                }
                let cmd = run.cmds.get(run.next).clone();
                run.next += 1;
                if run.next == run.cmds.len() {
                    self.pending[o].pop_front();
                }
                // Exact-cut discipline: before applying the write at `ts`,
                // serve every parked read stamped strictly below it. At
                // this point no pending command is below `ts` and
                // `min(LatestTV) ≥ ts`, so nothing below `ts` can still
                // arrive: the local state contains *exactly* the writes
                // below each released stamp — the invariant cross-shard
                // snapshot reads rely on (serving only after the whole
                // drain could leak writes newer than the stamp into the
                // answer).
                if !self.needs_rejoin {
                    self.release_reads_before(ts, ctx);
                }
                ctx.log_append(LogRec::Commit { ts });
                debug_assert!(ts > self.last_committed, "commits must be ts-ordered");
                self.last_committed = ts;
                self.committed_count += 1;
                self.exec
                    .execute(cmd, ts.replica(), order_key(self.epoch(), ts), ctx);
                self.maybe_checkpoint(ctx);
            }
            if self.committed_count == before {
                break;
            }
        }
        // The stable timestamp may have advanced: serve any read whose
        // mark it passed. Riding on try_commit puts the check on every
        // path that moves `LatestTV` or drains `pending` (PREPAREOK,
        // CLOCKTIME, prepares, epoch installs).
        self.release_reads(ctx);
    }

    /// Each origin lane's first pending timestamp, with the lane.
    fn fronts(&self) -> impl Iterator<Item = (Timestamp, usize)> + '_ {
        let lanes = self.pending.iter().enumerate();
        lanes.filter_map(|(o, lane)| Some((lane.front()?.front(), o)))
    }

    /// The majority-ack watermark of origin lane `o`: the largest `t`
    /// such that a majority of the configuration acknowledged logging
    /// every prepare from `o` up to `t`. No per-command counter state
    /// exists or needs cleanup.
    fn replicated_upto(&self, o: usize) -> Micros {
        self.membership.majority_mark(|k| self.acked[k.index()][o])
    }

    /// Stamps trace-stage transitions on pending commands **this
    /// replica originated**: a command is
    /// [`Replicated`](TraceStage::Replicated) once a majority's
    /// cumulative ack watermark covers its timestamp, and
    /// [`Stable`](TraceStage::Stable) once `min(LatestTV)` passes it.
    /// Only the origin's vantage is stamped — the origin is where both
    /// conditions gate the commit, so its waits are the paper's latency
    /// decomposition (a remote replica can see a command
    /// majority-logged a full one-way hop before the origin's quorum
    /// ack returns, which would under-report the replication term).
    /// Both conditions are monotone in a watermark, so each scan only
    /// walks the own-lane commands a watermark newly passed (tracked by
    /// the `obs_*_floor` cursors) and stamps each stage exactly once —
    /// at the event that made it true. Only called while the driver is
    /// observing; stamps are write-only (commit decisions never read
    /// them).
    fn obs_scan(&mut self, ctx: &mut dyn Context<Self>) {
        let own = self.id.index();
        let top = |m| Timestamp::new(m, ReplicaId::new(u16::MAX));
        let (stable, repl) = (self.min_latest_tv(), self.replicated_upto(own));
        let (stable_from, repl_from) = (self.obs_stable_floor, top(self.obs_repl_floor[own]));
        for (from, upto, stage) in [
            (stable_from, stable, TraceStage::Stable),
            (repl_from, top(repl), TraceStage::Replicated),
        ] {
            let live = self.pending[own]
                .iter()
                .flat_map(|r| stamped(r.head, &r.cmds, r.next));
            let newly = live.skip_while(|&(ts, _)| ts <= from);
            for (_, cmd) in newly.take_while(|&(ts, _)| ts <= upto) {
                ctx.trace(cmd.id, stage);
            }
        }
        self.obs_stable_floor = self.obs_stable_floor.max(stable);
        self.obs_repl_floor[own] = self.obs_repl_floor[own].max(repl);
    }

    // ------------------------------------------------------------------
    // Local reads (stable-timestamp rule; see `rsm_core::read`)
    // ------------------------------------------------------------------

    /// Handles a client read: it rides a clock probe, parks at the
    /// probe's timestamp and is served once the stable timestamp passes
    /// it (see the [`ReadFront`] impl, and `rsm_core::read` for why that
    /// is linearizable).
    fn handle_read(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        if self.frozen || self.needs_rejoin {
            self.queued_reads.push_back(cmd);
            return;
        }
        ctx.obs_count(names::READS_PARKED, 1);
        self.start_read(cmd, ctx);
    }

    /// The replica's current **stable timestamp**: every command at or
    /// below it has executed locally, and no replica will ever send a
    /// smaller timestamp — `min(LatestTV)` over the configuration,
    /// lowered below the first still-pending command. Reads parked at or
    /// below it are servable; a sharded router compares it against a
    /// chosen snapshot cut.
    pub fn stable_timestamp(&self) -> Timestamp {
        let mut stable = self.min_latest_tv();
        if let Some((first_pending, _)) = self.fronts().min() {
            // Commands at or below the first pending timestamp are not
            // all executed yet; reads stamped past it must keep waiting.
            // (Timestamps are unique, so releasing strictly below it is
            // exact, not conservative.)
            stable = stable.min(pinned(first_pending.micros().saturating_sub(1)));
        }
        stable
    }

    /// Checkpoints when the policy says one is due: the executor
    /// compacts the stable log to the checkpoint and [`live_runs`].
    pub(crate) fn maybe_checkpoint(&mut self, ctx: &mut dyn Context<Self>) {
        let (epoch, config) = (self.membership.epoch(), self.membership.config());
        let live = live_runs(&self.pending);
        self.exec
            .checkpoint_if_due(self.last_committed, epoch, config, ctx, live);
    }

    // ------------------------------------------------------------------
    // Algorithm 2: periodic clock broadcast (also the FD heartbeat)
    // ------------------------------------------------------------------

    fn clocktime_tick(&mut self, ctx: &mut dyn Context<Self>) {
        let Some(delta) = self.cfg.delta_us else {
            return;
        };
        // Re-arm first so a panic-free return always keeps the timer alive.
        // The tick fires every Δ/2 and sends once Δ has passed since this
        // replica's last timestamp, so the silence between two of its
        // messages is up to 1.5Δ, not Δ.
        ctx.set_timer(delta / 2, TOKEN_CLOCKTIME);
        if self.needs_rejoin {
            return;
        }
        let clock = ctx.clock();
        let my_latest = self.latest_tv[self.id.index()];
        if clock >= my_latest.micros().saturating_add(delta) {
            let ts = self.next_send_ts(ctx);
            self.broadcast_config(
                RsmMsg::ClockTime {
                    epoch: self.epoch(),
                    ts,
                },
                ctx,
            );
        }
    }

    // ------------------------------------------------------------------
    // Failure detector
    // ------------------------------------------------------------------

    fn fd_tick(&mut self, ctx: &mut dyn Context<Self>) {
        let Some(timeout) = self.cfg.fd_timeout_us else {
            return;
        };
        ctx.set_timer(timeout / 4, TOKEN_FD);
        if self.needs_rejoin || !self.reconfig.is_idle() {
            return;
        }
        let clock = ctx.clock();
        let new_config: Vec<ReplicaId> = self
            .membership
            .config()
            .iter()
            .copied()
            .filter(|&k| {
                k == self.id || clock.saturating_sub(self.last_heard[k.index()]) <= timeout
            })
            .collect();
        let due = if self.frozen {
            // Liveness backstop: if the reconfigurer that froze us died
            // before reaching a decision, take over the reconfiguration
            // ourselves (the consensus instance keeps competing proposals
            // safe).
            let stuck = clock.saturating_sub(self.frozen_since) > 2 * timeout;
            if stuck {
                self.frozen_since = clock; // back off before retrying again
            }
            stuck
        } else {
            // Someone is suspected.
            new_config.len() < self.membership.config().len()
        };
        if due && new_config.len() >= self.membership.majority() {
            self.trigger_reconfigure(new_config, ctx);
        }
    }

    // ------------------------------------------------------------------
    // Epoch hygiene
    // ------------------------------------------------------------------

    /// Re-dispatches buffered requests and messages after an epoch install
    /// or unfreeze. Queued client batches are re-issued exactly as the
    /// driver delivered them — a freeze never merges or splits batches,
    /// so the batch policy holds across reconfigurations.
    pub(crate) fn drain_buffers(&mut self, ctx: &mut dyn Context<Self>) {
        for (from, msg) in std::mem::take(&mut self.queued_msgs) {
            self.on_message(from, msg, ctx);
        }
        for batch in std::mem::take(&mut self.queued_requests) {
            self.handle_batch(batch, ctx);
        }
        for cmd in std::mem::take(&mut self.queued_reads) {
            self.handle_read(cmd, ctx);
        }
        self.release_reads(ctx);
    }
}

/// The stable-timestamp read front (`rsm_core::read`): a clock probe to
/// the whole configuration, this replica included, so a read waits one
/// round trip to the slowest peer or the next periodic CLOCKTIME,
/// whichever lands first.
impl ReadFront for ClockRsm {
    type Mark = Timestamp;
    type Probe = Timestamp;

    fn executor(&mut self) -> &mut Executor<Timestamp> {
        &mut self.exec
    }

    /// Stamps the probe above everything this replica has sent, so above
    /// every write that completed before its reads arrived.
    fn send_probe(&mut self, seq: u64, ctx: &mut dyn Context<Self>) -> Timestamp {
        let ts = self.next_send_ts(ctx);
        let probe = RsmMsg::ClockProbe {
            epoch: self.epoch(),
            ts,
            seq,
        };
        ctx.obs_count(
            names::CLOCK_PROBES_SENT,
            self.membership.config().len() as u64,
        );
        self.broadcast_config(probe, ctx);
        ts
    }

    /// With failure detection on, a majority of Spec answering under our
    /// current epoch — it intersects the majority a reconfiguration
    /// freezes, so no newer epoch existed when the reads arrived. With
    /// it off, configurations only grow
    /// ([`trigger_reconfigure`](Self::trigger_reconfigure) refuses to drop
    /// a member), and our own copy is enough.
    fn probe_quorum(&self) -> usize {
        if self.cfg.fd_timeout_us.is_some() {
            self.membership.majority()
        } else {
            1
        }
    }

    /// A stamped read parks at the probe's timestamp; a router-pinned
    /// snapshot read at its cut, which the exact-cut release in
    /// `try_commit` serves from precisely that prefix.
    fn park_mark(&self, probe: &Timestamp, cmd: &Command) -> Timestamp {
        cmd.read_at.map_or(*probe, pinned)
    }

    /// The stable timestamp, while the replica is neither frozen nor
    /// rejoining.
    fn read_cursor(&self) -> Option<Timestamp> {
        (!self.frozen && !self.needs_rejoin).then(|| self.stable_timestamp())
    }

    /// A pinned snapshot read only while the applied prefix sits at or
    /// below its cut: one the state passed (a late part, or a rejoin that
    /// installed a newer checkpoint) cannot be answered exactly, so it is
    /// dropped and the router retries the snapshot under a fresh cut.
    fn servable(&self, cmd: &Command) -> bool {
        cmd.read_at
            .is_none_or(|at| self.last_committed <= pinned(at))
    }
}

impl Protocol for ClockRsm {
    type Msg = RsmMsg;
    type LogRec = LogRec;

    fn id(&self) -> ReplicaId {
        self.id
    }

    fn on_start(&mut self, ctx: &mut dyn Context<Self>) {
        let clock = ctx.clock();
        for h in &mut self.last_heard {
            *h = clock;
        }
        if let Some(delta) = self.cfg.delta_us {
            ctx.set_timer(delta / 2, TOKEN_CLOCKTIME);
        }
        if let Some(timeout) = self.cfg.fd_timeout_us {
            ctx.set_timer(timeout / 4, TOKEN_FD);
        }
        if self.needs_rejoin {
            self.start_rejoin(ctx);
        }
    }

    fn on_client_batch(&mut self, batch: Batch, ctx: &mut dyn Context<Self>) {
        self.handle_batch(batch, ctx);
    }

    fn on_client_read(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        self.handle_read(cmd, ctx);
    }

    fn read_path(&self) -> ReadPath {
        ReadPath::LocalStable
    }

    fn on_message(&mut self, from: ReplicaId, msg: RsmMsg, ctx: &mut dyn Context<Self>) {
        self.last_heard[from.index()] = ctx.clock();
        let data_epoch = match &msg {
            RsmMsg::PrepareBatch { epoch, .. }
            | RsmMsg::PrepareOk { epoch, .. }
            | RsmMsg::ClockTime { epoch, .. }
            | RsmMsg::ClockProbe { epoch, .. }
            | RsmMsg::ClockEcho { epoch, .. } => Some(*epoch),
            _ => None,
        };
        if let Some(epoch) = data_epoch {
            // Older epochs are dropped. Newer ones wait while we catch up
            // with the sender, and a PREPARE waits while we are suspended
            // (Algorithm 3 line 8); both replay from the buffer.
            if epoch < self.epoch() {
                return;
            }
            if epoch > self.epoch() {
                self.ask_if_behind(from, epoch, ctx);
            }
            if epoch > self.epoch() || self.frozen && matches!(msg, RsmMsg::PrepareBatch { .. }) {
                self.queued_msgs.push_back((from, msg));
                return;
            }
        }
        match msg {
            RsmMsg::PrepareBatch {
                ts, origin, cmds, ..
            } => self.handle_prepare_batch(ts, origin, cmds, ctx),
            RsmMsg::PrepareOk {
                up_to, clock_ts, ..
            } => self.handle_prepare_ok(from, up_to, clock_ts, ctx),
            RsmMsg::ClockTime { ts, .. } => self.handle_clock_time(from, ts, ctx),
            RsmMsg::ClockProbe { ts, seq, .. } if from != self.id => {
                self.handle_clock_probe(from, ts, seq, ctx)
            }
            // Our own probe's copy and a peer's echo answer our probe
            // `seq`; an echo gets here only under our current epoch.
            RsmMsg::ClockProbe { ts, seq, .. } | RsmMsg::ClockEcho { ts, seq, .. } => {
                self.handle_clock_time(from, ts, ctx);
                self.probe_answered(from, seq, |_| {}, ctx);
            }
            RsmMsg::Suspend { epoch, cts } => self.handle_suspend(from, epoch, cts, ctx),
            RsmMsg::SuspendOk { epoch, cmds } => self.handle_suspend_ok(from, epoch, cmds, ctx),
            RsmMsg::Synod { epoch, msg } => self.handle_synod(from, epoch, msg, ctx),
            RsmMsg::CatchUp { decided, req } => self.handle_catch_up(from, decided, req, ctx),
            RsmMsg::CatchUpReply(CatchUpReply::Runs {
                from: after,
                below,
                runs,
            }) => self.handle_fetched(from, after, below, runs, ctx),
            RsmMsg::CatchUpReply(CatchUpReply::Snapshot(cp)) => self.handle_state_reply(cp, ctx),
        }
    }

    fn obs_poll(&mut self, ctx: &mut dyn Context<Self>) {
        // The stable-wait a command stamped right now would pay locally:
        // how far the stable timestamp trails this replica's clock.
        let clock = ctx.clock();
        let stable = self.stable_timestamp();
        ctx.obs_gauge(
            names::STABLE_LAG_US,
            clock.saturating_sub(stable.micros()) as i64,
        );
        // Per-peer LatestTV staleness — the peer holding the minimum is
        // the one gating the stable timestamp (paper §IV: commit latency
        // is dominated by the slowest clock-time stream).
        for peer in self.membership.config().to_vec() {
            let tv = self.latest_tv[peer.index()];
            ctx.obs_gauge_idx(
                names::LATEST_TV_STALENESS_US,
                peer,
                clock.saturating_sub(tv.micros()) as i64,
            );
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Self>) {
        match token {
            TOKEN_CLOCKTIME => self.clocktime_tick(ctx),
            TOKEN_ACK_WAIT => self.drain_wait_queue(ctx),
            TOKEN_FD => self.fd_tick(ctx),
            TOKEN_SYNOD_RETRY => self.synod_retry(ctx),
            TOKEN_RECONFIG_RETRY => self.reconfig_retry(ctx),
            PROBE_FLUSH_TOKEN => self.flush_read_probes(ctx),
            _ => {}
        }
    }

    fn on_recover(&mut self, log: &[LogRec], ctx: &mut dyn Context<Self>) {
        // Checkpoint fast path (Section V-B): restore the snapshot at the
        // log's head and skip re-executing everything at or below its
        // timestamp.
        if let Some(cp) = self.exec.recover(log, ctx) {
            self.last_committed = cp.applied;
            // A compacted log may hold no Epoch records below the
            // checkpoint; the checkpoint itself pins the membership it
            // was taken in.
            if cp.epoch > self.epoch() {
                self.membership.install(cp.epoch, cp.config.clone());
                self.reconfig.forget_up_to(cp.epoch);
            }
        }
        // Section V-B: scan the log, executing each command as its COMMIT
        // mark is encountered — commit marks are in timestamp order, so
        // execution replays exactly. A mark finds its command in the
        // log's index, not by lane order: reconfiguration logs fetched
        // commands below runs already logged.
        let prepared = logged_in(log, self.last_committed..);
        let mut max_ts = Timestamp::ZERO;
        for rec in log {
            match rec {
                LogRec::PrepareBatch { head, cmds, .. } => {
                    max_ts = max_ts.max(at(*head, cmds.len() - 1));
                }
                LogRec::Commit { ts } => {
                    // At or below the checkpoint, or executed already.
                    if *ts <= self.last_committed {
                        continue;
                    }
                    if let Some(lc) = prepared.get(ts) {
                        self.last_committed = *ts;
                        self.committed_count += 1;
                        // Replay through the same path as live execution
                        // so the rebuilt dedup window and checkpoint
                        // trigger match what the replica held before the
                        // crash.
                        let hint = order_key(self.membership.epoch(), *ts);
                        self.exec.execute(lc.cmd.clone(), ts.replica(), hint, ctx);
                    }
                }
                LogRec::Epoch { epoch, config, .. } => {
                    if *epoch > self.epoch() {
                        self.membership.install(*epoch, config.clone());
                        self.reconfig.forget_up_to(*epoch);
                    }
                }
                LogRec::Checkpoint(_) => {}
            }
        }
        // Never reuse timestamps at or below anything we logged before the
        // crash: peers hold our old promises. A compacted log may have
        // dropped our own prepares, but the checkpoint watermark bounds
        // them: nothing we sent before the crash can exceed both.
        self.send_floor = self
            .send_floor
            .max(max_ts.micros())
            .max(self.last_committed.micros());
        // Tail PREPAREs without commit marks are left to the rejoin
        // reconfiguration: any of them that reached a majority will be in
        // the decision (paper, Claim 3); the rest are discarded.
        self.needs_rejoin = true;
    }
}

/// The records a compaction keeps above a checkpoint: the pending runs,
/// whole — commit marks at or below the checkpoint are skipped on
/// replay, so a run's committed prefix is inert there. Any other command
/// logged above the watermark was dropped by line 15, and the epoch and
/// configuration travel inside the checkpoint.
pub(crate) fn live_runs(pending: &[VecDeque<Run>]) -> impl Iterator<Item = LogRec> + '_ {
    pending.iter().flatten().map(|run| LogRec::PrepareBatch {
        head: run.head,
        origin: run.head.replica(),
        cmds: run.cmds.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use paxos::synod::SynodMsg;
    use rsm_core::command::CommandId;
    use rsm_core::id::ClientId;
    use rsm_core::node::{ApplyOnly, Script};
    use rsm_core::read::{MAX_INFLIGHT_PROBES, PROBE_FLUSH_US};
    use rsm_core::Batch;

    use crate::msg::Decision;

    fn cmd(seq: u64) -> Command {
        Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
            Bytes::from_static(b"op"),
        )
    }

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    fn replica(i: u16, n: u16) -> ClockRsm {
        ClockRsm::new(
            r(i),
            Membership::uniform(n),
            ClockRsmConfig::default().with_delta_us(None),
        )
    }

    fn ts(micros: Micros, i: u16) -> Timestamp {
        Timestamp::new(micros, r(i))
    }

    /// Commands `p` holds pending (not yet committed), over every run.
    fn pending_count(p: &ClockRsm) -> usize {
        let runs = p.pending.iter().flatten();
        runs.map(|run| run.cmds.len() - run.next).sum()
    }

    /// Builds a single-command PREPAREBATCH (most tests drive the
    /// protocol one command at a time).
    fn prepare(epoch: Epoch, t: Timestamp, origin: ReplicaId, c: Command) -> RsmMsg {
        RsmMsg::PrepareBatch {
            epoch,
            ts: t,
            origin,
            cmds: Batch::single(c),
        }
    }

    #[test]
    fn broadcast_shares_the_batch_payload_across_peers() {
        // The allocation-lean fan-out contract: the per-peer clones of a
        // PREPAREBATCH share one command vector (Arc), so an N-peer
        // broadcast of a k-command batch clones pointers, not commands.
        let mut s = Script::new(vec![replica(0, 3)]);
        s[0].clock = 1_000;
        let batch = Batch::new((1..=64).map(cmd).collect());
        s.on(0, |p, ctx| p.on_client_batch(batch.clone(), ctx));
        let prepares: Vec<&Batch> = s[0]
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                RsmMsg::PrepareBatch { cmds, .. } => Some(cmds),
                _ => None,
            })
            .collect();
        assert_eq!(prepares.len(), 3, "one PREPAREBATCH per config member");
        for sent in &prepares {
            assert!(
                sent.ptr_eq(&batch),
                "a peer copy deep-cloned the command payload"
            );
        }
    }

    #[test]
    fn request_broadcasts_prepare_to_everyone() {
        let mut s = Script::new(vec![replica(0, 3)]);
        s[0].clock = 1_000;
        s.on(0, |p, ctx| p.on_client_batch(Batch::single(cmd(1)), ctx));
        let prepares: Vec<&RsmMsg> = s[0]
            .sent
            .iter()
            .map(|(_, m)| m)
            .filter(|m| matches!(m, RsmMsg::PrepareBatch { .. }))
            .collect();
        assert_eq!(prepares.len(), 3, "PREPARE goes to all replicas incl self");
        match prepares[0] {
            RsmMsg::PrepareBatch { ts, origin, .. } => {
                assert_eq!(*origin, r(0));
                assert!(ts.micros() > 1_000);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn batched_request_reserves_contiguous_timestamps() {
        let mut s = Script::new(vec![replica(0, 3)]);
        s[0].clock = 1_000;
        s.on(0, |p, ctx| {
            p.on_client_batch(Batch::new(vec![cmd(1), cmd(2), cmd(3)]), ctx)
        });
        let heads: Vec<(Timestamp, usize)> = s[0]
            .sent
            .iter()
            .filter_map(|(_, m)| match m {
                RsmMsg::PrepareBatch { ts, cmds, .. } => Some((*ts, cmds.len())),
                _ => None,
            })
            .collect();
        assert_eq!(heads.len(), 3, "one batch message per destination");
        assert!(heads.iter().all(|&(t, k)| t == heads[0].0 && k == 3));
        // The next stamp clears the whole reserved run.
        let next = s.on(0, |p, ctx| p.next_send_ts(ctx));
        assert!(next.micros() >= heads[0].0.micros() + 3);
    }

    #[test]
    fn prepare_is_logged_and_acked_with_greater_clock() {
        let mut s = Script::new(vec![replica(1, 3)]);
        s[0].clock = 1_000;
        s.receive(0, r(0), prepare(Epoch::ZERO, ts(500, 0), r(0), cmd(1)));
        assert_eq!(s.nodes[0].log.len(), 1);
        let oks: Vec<&RsmMsg> = s[0]
            .sent
            .iter()
            .map(|(_, m)| m)
            .filter(|m| matches!(m, RsmMsg::PrepareOk { .. }))
            .collect();
        assert_eq!(oks.len(), 3, "PREPAREOK broadcast to all incl self");
        match oks[0] {
            RsmMsg::PrepareOk {
                up_to, clock_ts, ..
            } => {
                assert_eq!(*up_to, ts(500, 0));
                assert!(clock_ts.micros() > 500);
                assert_eq!(clock_ts.replica(), r(1));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn batched_prepare_acks_once_covering_the_whole_run() {
        let mut s = Script::new(vec![replica(1, 3)]);
        s[0].clock = 1_000;
        s.receive(
            0,
            r(0),
            RsmMsg::PrepareBatch {
                epoch: Epoch::ZERO,
                ts: ts(500, 0),
                origin: r(0),
                cmds: Batch::new(vec![cmd(1), cmd(2), cmd(3), cmd(4)]),
            },
        );
        assert_eq!(s.nodes[0].log.len(), 1, "the batch is logged as one run");
        assert_eq!(pending_count(&s.nodes[0].proto), 4);
        let oks: Vec<&RsmMsg> = s[0]
            .sent
            .iter()
            .map(|(_, m)| m)
            .filter(|m| matches!(m, RsmMsg::PrepareOk { .. }))
            .collect();
        assert_eq!(oks.len(), 3, "ONE cumulative ack broadcast, not 4");
        match oks[0] {
            RsmMsg::PrepareOk { up_to, .. } => {
                assert_eq!(*up_to, ts(503, 0), "watermark covers the last command");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn prepare_from_the_future_waits_for_local_clock() {
        let mut s = Script::new(vec![replica(1, 3)]);
        s[0].clock = 100;
        // Originator's clock (10_000) is far ahead of ours (≈100).
        s.receive(0, r(0), prepare(Epoch::ZERO, ts(10_000, 0), r(0), cmd(1)));
        assert!(
            !s[0]
                .sent
                .iter()
                .any(|(_, m)| matches!(m, RsmMsg::PrepareOk { .. })),
            "must not ack before local clock passes ts"
        );
        assert_eq!(s[0].timers.len(), 1, "wait timer armed");
        // Fire the timer once the clock has advanced past ts.
        s[0].clock = 10_050;
        s.on(0, |p, ctx| p.on_timer(TOKEN_ACK_WAIT, ctx));
        let oks = s[0]
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, RsmMsg::PrepareOk { .. }))
            .count();
        assert_eq!(oks, 3);
    }

    /// Drives a full three-replica commit at replica 0 by hand.
    #[test]
    fn command_commits_after_majority_and_stable_order() {
        let mut s = Script::new(vec![replica(0, 3)]);
        s[0].clock = 1_000;
        s.on(0, |p, ctx| p.on_client_batch(Batch::single(cmd(1)), ctx));
        let tcmd = match &std::mem::take(&mut s[0].sent)[0] {
            (_, RsmMsg::PrepareBatch { ts, .. }) => *ts,
            _ => unreachable!(),
        };
        // Self-delivery of own PREPARE.
        s.receive(0, r(0), prepare(Epoch::ZERO, tcmd, r(0), cmd(1)));
        // Own PREPAREOK (self-delivery).
        let own_ok = std::mem::take(&mut s[0].sent)
            .into_iter()
            .find_map(|(to, m)| match (to, &m) {
                (to, RsmMsg::PrepareOk { .. }) if to == r(0) => Some(m),
                _ => None,
            })
            .unwrap();
        s.receive(0, r(0), own_ok);
        assert!(s[0].executed.is_empty(), "one ack is not a majority");
        // r1 acks: majority reached, but r2's latest timestamp is unknown
        // (stable order not yet satisfied).
        s.receive(
            0,
            r(1),
            RsmMsg::PrepareOk {
                epoch: Epoch::ZERO,
                up_to: tcmd,
                clock_ts: ts(tcmd.micros() + 10, 1),
            },
        );
        assert!(
            s[0].executed.is_empty(),
            "stable order requires a newer timestamp from every replica"
        );
        // r2's clock time arrives (e.g. a CLOCKTIME or another command's
        // PREPAREOK): now ts ≤ min(LatestTV) and the command commits.
        s.receive(
            0,
            r(2),
            RsmMsg::ClockTime {
                epoch: Epoch::ZERO,
                ts: ts(tcmd.micros() + 12, 2),
            },
        );
        assert_eq!(s[0].executed.len(), 1);
        assert_eq!(s[0].executed[0].origin, r(0));
        assert_eq!(s.nodes[0].proto.committed_count, 1);
        assert_eq!(pending_count(&s.nodes[0].proto), 0);
        // Commit mark appended after the prepare record.
        assert!(s.nodes[0]
            .log
            .iter()
            .any(|l| matches!(l, LogRec::Commit { .. })));
    }

    #[test]
    fn commits_follow_timestamp_order_across_originators() {
        let mut s = Script::new(vec![replica(2, 3)]);
        s[0].clock = 1_000;
        let t0 = ts(5_000, 0);
        let t1 = ts(4_000, 1); // smaller timestamp from r1
        for (origin, t) in [(r(0), t0), (r(1), t1)] {
            s.receive(0, origin, prepare(Epoch::ZERO, t, origin, cmd(t.micros())));
        }
        s[0].sent.clear();
        // Majority acks for BOTH, with clock_ts > both commands.
        for t in [t0, t1] {
            for k in [0u16, 1, 2] {
                s.receive(
                    0,
                    r(k),
                    RsmMsg::PrepareOk {
                        epoch: Epoch::ZERO,
                        up_to: t,
                        clock_ts: ts(6_000 + k as u64, k),
                    },
                );
            }
        }
        assert_eq!(s[0].executed.len(), 2);
        assert_eq!(s[0].executed[0].cmd.id.seq, 4_000, "smaller ts first");
        assert_eq!(s[0].executed[1].cmd.id.seq, 5_000);
        assert!(s[0].executed[0].order_hint < s[0].executed[1].order_hint);
    }

    #[test]
    fn prefix_replication_blocks_later_commands() {
        // A command with a larger timestamp reaches majority + stability,
        // but an earlier pending command hasn't: nothing commits.
        let mut s = Script::new(vec![replica(2, 3)]);
        s[0].clock = 1_000;
        let early = ts(4_000, 0);
        let late = ts(5_000, 1);
        for (origin, t) in [(r(0), early), (r(1), late)] {
            s.receive(0, origin, prepare(Epoch::ZERO, t, origin, cmd(t.micros())));
        }
        // Acks only for the late command.
        for k in [0u16, 1, 2] {
            s.receive(
                0,
                r(k),
                RsmMsg::PrepareOk {
                    epoch: Epoch::ZERO,
                    up_to: late,
                    clock_ts: ts(6_000 + k as u64, k),
                },
            );
        }
        assert!(
            s[0].executed.is_empty(),
            "prefix replication must hold back the later command"
        );
        // Early command's majority arrives: both commit, in order.
        for k in [0u16, 1] {
            s.receive(
                0,
                r(k),
                RsmMsg::PrepareOk {
                    epoch: Epoch::ZERO,
                    up_to: early,
                    clock_ts: ts(6_100 + k as u64, k),
                },
            );
        }
        assert_eq!(s[0].executed.len(), 2);
        assert_eq!(s[0].executed[0].cmd.id.seq, 4_000);
    }

    #[test]
    fn stale_epoch_messages_dropped_and_newer_buffered() {
        let mut s = Script::new(vec![replica(0, 3)]);
        s[0].clock = 1_000;
        // Move to epoch 1 so an Epoch::ZERO message is genuinely stale.
        s.nodes[0]
            .proto
            .membership
            .install(Epoch(1), vec![r(0), r(1), r(2)]);
        let before = s.nodes[0].proto.latest_tv[1];
        // Stale epoch: dropped outright, LatestTV untouched.
        s.receive(
            0,
            r(1),
            RsmMsg::ClockTime {
                epoch: Epoch::ZERO,
                ts: ts(2_000, 1),
            },
        );
        assert_eq!(
            s.nodes[0].proto.latest_tv[1], before,
            "stale-epoch msg must be dropped"
        );
        // Current epoch: applied.
        s.receive(
            0,
            r(1),
            RsmMsg::ClockTime {
                epoch: Epoch(1),
                ts: ts(2_500, 1),
            },
        );
        assert_eq!(s.nodes[0].proto.latest_tv[1], ts(2_500, 1));
        // Future epoch: buffered + catch-up request sent.
        s.receive(
            0,
            r(1),
            RsmMsg::ClockTime {
                epoch: Epoch(3),
                ts: ts(9_000, 1),
            },
        );
        assert_eq!(
            s.nodes[0].proto.latest_tv[1],
            ts(2_500, 1),
            "future-epoch msg not applied"
        );
        assert!(s[0]
            .sent
            .iter()
            .any(|(_, m)| matches!(m, RsmMsg::CatchUp { .. })));
        assert_eq!(s.nodes[0].proto.queued_msgs.len(), 1);
    }

    #[test]
    fn clocktime_broadcast_fires_when_quiet() {
        let mut s = Script::new(vec![ClockRsm::new(
            r(0),
            Membership::uniform(3),
            ClockRsmConfig::default().with_delta_us(Some(5_000)),
        )]);
        s.on(0, |p, ctx| p.on_start(ctx));
        assert!(s[0].timers.iter().any(|(_, t)| *t == TOKEN_CLOCKTIME));
        s[0].clock = 10_000; // quiet for > delta
        s.on(0, |p, ctx| p.on_timer(TOKEN_CLOCKTIME, ctx));
        let sent = s[0]
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, RsmMsg::ClockTime { .. }))
            .count();
        assert_eq!(sent, 3);
        // Self-delivery updates our own LatestTV entry; the next tick
        // within delta must not rebroadcast.
        let (_, m) = s[0].sent[0].clone();
        s.receive(0, r(0), m);
        s[0].sent.clear();
        s.on(0, |p, ctx| p.on_timer(TOKEN_CLOCKTIME, ctx));
        assert_eq!(
            s[0].sent
                .iter()
                .filter(|(_, m)| matches!(m, RsmMsg::ClockTime { .. }))
                .count(),
            0,
            "no rebroadcast within delta"
        );
    }

    #[test]
    fn send_timestamps_strictly_increase() {
        let mut s = Script::new(vec![replica(0, 3)]);
        s[0].clock = 1_000;
        s[0].clock_step = 0; // frozen clock: stamper must still increase
        let a = s.on(0, |p, ctx| p.next_send_ts(ctx));
        let b = s.on(0, |p, ctx| p.next_send_ts(ctx));
        let c = s.on(0, |p, ctx| p.next_send_ts(ctx));
        assert!(a < b && b < c);
    }

    #[test]
    fn rejoining_replica_logs_but_never_acks() {
        // Prepares may have been lost while this replica was down; a
        // cumulative PREPAREOK sent before the rejoin reconfiguration
        // completes would falsely cover them. The replica still logs
        // (shrinking the post-rejoin state transfer) but stays silent.
        let mut s = Script::new(vec![replica(1, 3)]);
        s[0].clock = 1_000;
        s.on(0, |p, ctx| p.on_recover(&[], ctx));
        assert!(s.nodes[0].proto.needs_rejoin);
        s.receive(0, r(0), prepare(Epoch::ZERO, ts(500, 0), r(0), cmd(1)));
        assert_eq!(s.nodes[0].log.len(), 1, "the prepare is still logged");
        assert!(
            !s[0]
                .sent
                .iter()
                .any(|(_, m)| matches!(m, RsmMsg::PrepareOk { .. })),
            "no cumulative ack may leave before the rejoin completes"
        );
        assert!(
            s.nodes[0].proto.wait_queue.is_empty(),
            "no deferred ack either"
        );
    }

    #[test]
    fn freeze_preserves_client_batch_boundaries() {
        // Batches queued during a freeze must re-issue exactly as the
        // driver delivered them: never merged (policy cap would be
        // violated) and never split.
        let mut s = Script::new(vec![replica(0, 3)]);
        s[0].clock = 1_000;
        s.nodes[0].proto.frozen = true;
        s.on(0, |p, ctx| {
            p.on_client_batch(Batch::new(vec![cmd(1), cmd(2)]), ctx)
        });
        s.on(0, |p, ctx| p.on_client_batch(Batch::single(cmd(3)), ctx));
        assert!(s[0].sent.is_empty(), "frozen: nothing leaves");
        s.nodes[0].proto.frozen = false;
        s.on(0, |p, ctx| p.drain_buffers(ctx));
        let shapes: Vec<usize> = s[0]
            .sent
            .iter()
            .filter_map(|(to, m)| match m {
                RsmMsg::PrepareBatch { cmds, .. } if *to == r(0) => Some(cmds.len()),
                _ => None,
            })
            .collect();
        assert_eq!(shapes, vec![2, 1], "original batch boundaries kept");
    }

    #[test]
    fn recovery_replays_committed_prefix_in_order() {
        let mut s = Script::new(vec![replica(0, 3)]);
        s[0].clock = 1_000;
        let t1 = ts(100, 1);
        let t2 = ts(200, 0);
        let run = |head: Timestamp, c: Command| LogRec::PrepareBatch {
            head,
            origin: head.replica(),
            cmds: Batch::single(c),
        };
        let log = vec![
            run(t2, cmd(2)),
            run(t1, cmd(1)),
            LogRec::Commit { ts: t1 },
            LogRec::Commit { ts: t2 },
            run(ts(300, 0), cmd(3)), // tail without commit
        ];
        s.on(0, |p, ctx| p.on_recover(&log, ctx));
        assert_eq!(s[0].executed.len(), 2);
        assert_eq!(s[0].executed[0].cmd.id.seq, 1);
        assert_eq!(s[0].executed[1].cmd.id.seq, 2);
        assert!(s.nodes[0].proto.needs_rejoin);
        assert!(
            s.nodes[0].proto.send_floor >= 300,
            "must not reuse logged timestamps"
        );
    }

    fn read(seq: u64) -> Command {
        Command::read(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
            Bytes::from_static(b"get"),
        )
    }

    /// Replica `i` of `n` with failure detection on.
    fn fd_replica(i: u16, n: u16) -> ClockRsm {
        let cfg = ClockRsmConfig::default().with_failure_detection(Some(400_000));
        ClockRsm::new(r(i), Membership::uniform(n), cfg)
    }

    /// Advances every replica's `LatestTV` entry past `micros` via
    /// CLOCKTIME messages (the stable-timestamp feed).
    fn advance_latest_tv(s: &mut Script<ClockRsm>, micros: Micros) {
        let epoch = s.nodes[0].proto.epoch();
        for k in 0..3u16 {
            let ts = ts(micros, k);
            s.receive(0, r(k), RsmMsg::ClockTime { epoch, ts });
        }
    }

    /// The clock probes among `sends`, in send order: destination,
    /// timestamp and sequence number.
    fn probes(sends: &[(ReplicaId, RsmMsg)]) -> Vec<(ReplicaId, Timestamp, u64)> {
        let probe = |(to, m): &(ReplicaId, RsmMsg)| match m {
            RsmMsg::ClockProbe { ts, seq, .. } => Some((*to, *ts, *seq)),
            _ => None,
        };
        sends.iter().filter_map(probe).collect()
    }

    /// Delivers the copies of its probes the replica sent itself (its
    /// FIFO self-channel).
    fn loop_back(s: &mut Script<ClockRsm>) {
        let me = s.nodes[0].proto.id;
        let own: Vec<RsmMsg> = (s[0].sent.iter())
            .filter(|(to, m)| *to == me && matches!(m, RsmMsg::ClockProbe { .. }))
            .map(|(_, m)| m.clone())
            .collect();
        for m in own {
            s.receive(0, me, m);
        }
    }

    fn echo(epoch: Epoch, micros: Micros, k: u16, seq: u64) -> RsmMsg {
        RsmMsg::ClockEcho {
            epoch,
            ts: ts(micros, k),
            seq,
        }
    }

    #[test]
    fn without_failure_detection_a_read_parks_on_the_probes_own_copy() {
        let mut s = Script::new(vec![replica(0, 3)]);
        s[0].clock = 1_000;
        s.on(0, |p, ctx| p.on_client_read(read(7), ctx));
        assert!(s[0].replies.is_empty(), "a read never answers early");
        let sends = std::mem::take(&mut s[0].sent);
        let sent = probes(&sends);
        let to: Vec<ReplicaId> = sent.iter().map(|p| p.0).collect();
        assert_eq!(to, [r(0), r(1), r(2)], "one probe per member incl. self");
        assert_eq!(sends.len(), 3, "and nothing else leaves");
        let (_, probe_ts, seq) = sent[0];
        // Evidence past the probe from every lane, our own included, is
        // not enough: the probe has not completed.
        advance_latest_tv(&mut s, 5_000);
        assert!(s[0].replies.is_empty());
        assert_eq!(s.nodes[0].proto.exec.pending_reads(), 1);
        // Its own copy completes it: the read parks at the probe's
        // timestamp, which the stable timestamp has passed.
        let copy = RsmMsg::ClockProbe {
            epoch: Epoch::ZERO,
            ts: probe_ts,
            seq,
        };
        s.receive(0, r(0), copy);
        assert_eq!(s[0].replies.len(), 1);
        assert_eq!(s[0].replies[0].id.seq, 7);
        assert_eq!(
            &s[0].replies[0].result[..],
            b"get",
            "the state machine answered"
        );
        assert_eq!(s.nodes[0].proto.exec.pending_reads(), 0);
        assert!(
            s[0].executed.is_empty() && s.nodes[0].log.is_empty() && s[0].sent.is_empty(),
            "local reads never commit or log, no echo to self, no second probe"
        );
        // The next read rides a fresh probe.
        s.on(0, |p, ctx| p.on_client_read(read(8), ctx));
        let next = probes(&s[0].sent);
        assert_eq!(next.len(), 3);
        assert!(next[0].1 > probe_ts && next[0].2 == seq + 1);
    }

    #[test]
    fn without_failure_detection_the_echoes_release_a_parked_read() {
        let mut s = Script::new(vec![replica(0, 3)]);
        s[0].clock = 1_000;
        s.on(0, |p, ctx| p.on_client_read(read(7), ctx));
        let (_, probe_ts, seq) = probes(&s[0].sent)[0];
        loop_back(&mut s);
        assert_eq!(
            s.nodes[0].proto.latest_tv[0], probe_ts,
            "the probe moved our own lane"
        );
        s.receive(0, r(1), echo(Epoch::ZERO, 5_000, 1, seq));
        assert!(
            s[0].replies.is_empty(),
            "min(LatestTV) still below the probe"
        );
        s.receive(0, r(2), echo(Epoch::ZERO, 5_000, 2, seq));
        assert_eq!(
            s[0].replies.len(),
            1,
            "the last echo passes the stable timestamp"
        );
    }

    #[test]
    fn with_failure_detection_a_read_waits_for_a_majority_of_current_epoch_echoes() {
        let mut s = Script::new(vec![fd_replica(0, 3)]);
        s[0].clock = 1_000;
        let config = vec![r(0), r(1), r(2)];
        s.nodes[0].proto.membership.install(Epoch(1), config);
        // The evidence in hand sits far above any stamp the read gets —
        // the position of a castaway whose clock is slow.
        advance_latest_tv(&mut s, 1_000_000);
        s.on(0, |p, ctx| p.on_client_read(read(7), ctx));
        let (_, probe_ts, seq) = probes(&std::mem::take(&mut s[0].sent))[0];
        assert!(probe_ts < s.nodes[0].proto.stable_timestamp());
        // Its own copy is one answer; a majority of three needs a peer.
        let copy = RsmMsg::ClockProbe {
            epoch: Epoch(1),
            ts: probe_ts,
            seq,
        };
        s.receive(0, r(0), copy.clone());
        // An older-epoch echo never counts, nor one naming another
        // probe, nor our own copy twice.
        s.receive(0, r(1), echo(Epoch::ZERO, 1_000_100, 1, seq));
        s.receive(0, r(2), echo(Epoch(1), 1_000_100, 2, seq + 1));
        s.receive(0, r(0), copy);
        assert!(
            s[0].replies.is_empty(),
            "served before a majority of current-epoch echoes named the probe"
        );
        assert_eq!(s.nodes[0].proto.exec.pending_reads(), 1);
        s.receive(0, r(1), echo(Epoch(1), 1_000_200, 1, seq));
        assert_eq!(s[0].replies.len(), 1);
        assert_eq!(s.nodes[0].proto.exec.pending_reads(), 0);
    }

    #[test]
    fn an_epoch_install_sends_every_read_round_again() {
        let mut s = Script::new(vec![fd_replica(0, 3)]);
        s[0].clock = 1_000;
        let probe = |epoch, ts, seq| RsmMsg::ClockProbe { epoch, ts, seq };
        // Read 6 parks: its probe has its quorum (its own copy and r1's
        // echo), but r2's lane holds the stable timestamp below it.
        s.on(0, |p, ctx| p.on_client_read(read(6), ctx));
        let (_, ts6, seq6) = probes(&std::mem::take(&mut s[0].sent))[0];
        s.receive(0, r(0), probe(Epoch::ZERO, ts6, seq6));
        s.receive(0, r(1), echo(Epoch::ZERO, 5_000, 1, seq6));
        // Read 7 rides a probe still in flight.
        s.on(0, |p, ctx| p.on_client_read(read(7), ctx));
        let (_, ts7, seq7) = probes(&std::mem::take(&mut s[0].sent))[0];
        assert!(s[0].replies.is_empty());
        // Epoch 1 installs, same configuration.
        let decision = Decision {
            config: vec![r(0), r(1), r(2)],
            cts: Timestamp::ZERO,
            cmds: Vec::new(),
        };
        let decided = RsmMsg::Synod {
            epoch: Epoch(1),
            msg: SynodMsg::Decided { value: decision },
        };
        s.receive(0, r(1), decided);
        assert_eq!(s.nodes[0].proto.epoch(), Epoch(1));
        let sent = probes(&std::mem::take(&mut s[0].sent));
        assert_eq!(sent.len(), 6, "both reads went round again");
        assert!(sent.iter().all(|&(_, ts, seq)| ts > ts7 && seq > seq7));
        // The old probes' answers find nothing: old-epoch ones are
        // dropped, and the probes they name are gone.
        s.receive(0, r(2), echo(Epoch::ZERO, 5_000, 2, seq6));
        s.receive(0, r(1), echo(Epoch(1), 5_000, 1, seq7));
        s.receive(0, r(2), echo(Epoch(1), 5_000, 2, seq7));
        assert!(s[0].replies.is_empty());
        // The new probes complete under epoch 1.
        for &(to, ts, seq) in &sent {
            if to == r(0) {
                s.receive(0, r(0), probe(Epoch(1), ts, seq));
                s.receive(0, r(1), echo(Epoch(1), 6_000, 1, seq));
            }
        }
        assert_eq!(s[0].replies.len(), 2);
    }

    #[test]
    fn reads_past_the_probe_cap_ride_one_probe_when_the_oldest_completes() {
        let mut s = Script::new(vec![replica(0, 3)]);
        s[0].clock = 1_000;
        // Every read below the cap sends its own probe; past it, reads
        // queue and the escape timer is armed once.
        for seq in 1..=MAX_INFLIGHT_PROBES as u64 + 2 {
            s.on(0, |p, ctx| p.on_client_read(read(seq), ctx));
        }
        let sent = probes(&std::mem::take(&mut s[0].sent));
        assert_eq!(
            sent.len(),
            3 * MAX_INFLIGHT_PROBES,
            "probes stop at the cap"
        );
        assert_eq!(s[0].timers, [(PROBE_FLUSH_US, PROBE_FLUSH_TOKEN)]);
        // The oldest probe's own copy completes it: its read parks, and
        // ONE new probe leaves carrying both queued reads.
        let (_, first_ts, first_seq) = sent[0];
        let copy = RsmMsg::ClockProbe {
            epoch: Epoch::ZERO,
            ts: first_ts,
            seq: first_seq,
        };
        s.receive(0, r(0), copy);
        let next = probes(&std::mem::take(&mut s[0].sent));
        assert_eq!(
            next.iter().map(|p| p.0).collect::<Vec<_>>(),
            [r(0), r(1), r(2)]
        );
        assert_eq!(next[0].2, MAX_INFLIGHT_PROBES as u64 + 1);
        assert_eq!(
            s.nodes[0].proto.exec.pending_reads(),
            MAX_INFLIGHT_PROBES + 2
        );
        // Evidence up to the first probe serves its read alone.
        advance_latest_tv(&mut s, first_ts.micros());
        assert_eq!(s[0].replies.len(), 1);
        assert_eq!(s[0].replies[0].id.seq, 1);
    }

    #[test]
    fn write_traffic_never_probes() {
        // A replica with no read to serve sends no probe, whatever moves
        // its stable timestamp: client batches, PREPAREs, PREPAREOKs.
        let mut s = Script::new(vec![replica(0, 3)]);
        s[0].clock = 1_000;
        s.on(0, |p, ctx| {
            p.on_client_batch(Batch::new(vec![cmd(1), cmd(2)]), ctx)
        });
        s.receive(0, r(1), prepare(Epoch::ZERO, ts(1_500, 1), r(1), cmd(3)));
        for k in 0..3u16 {
            s.receive(
                0,
                r(k),
                RsmMsg::PrepareOk {
                    epoch: Epoch::ZERO,
                    up_to: ts(1_500, 1),
                    clock_ts: ts(2_000, k),
                },
            );
        }
        assert_eq!(s[0].executed.len(), 1, "the traffic did commit something");
        assert!(probes(&s[0].sent).is_empty());
        // A read rides exactly one probe, also one a pending write
        // rather than missing evidence holds up; evidence arriving
        // afterwards sends no more.
        s.receive(0, r(1), prepare(Epoch::ZERO, ts(2_500, 1), r(1), cmd(4)));
        s[0].sent.clear();
        s[0].clock = 3_000;
        s.on(0, |p, ctx| p.on_client_read(read(9), ctx));
        assert_eq!(probes(&s[0].sent).len(), 3);
        loop_back(&mut s);
        s[0].sent.clear();
        advance_latest_tv(&mut s, 50_000);
        assert_eq!(s.nodes[0].proto.exec.pending_reads(), 1);
        advance_latest_tv(&mut s, 60_000);
        assert!(probes(&s[0].sent).is_empty());
    }

    #[test]
    fn peer_echoes_a_probe_with_one_unicast_echo_naming_it() {
        let mut s = Script::new(vec![replica(1, 3)]);
        s[0].clock = 1_000;
        let probe = |epoch, micros, seq| RsmMsg::ClockProbe {
            epoch,
            ts: ts(micros, 0),
            seq,
        };
        s.receive(0, r(0), probe(Epoch::ZERO, 900, 4));
        assert_eq!(
            s.nodes[0].proto.latest_tv[0],
            ts(900, 0),
            "a probe is clock evidence"
        );
        let sends = std::mem::take(&mut s[0].sent);
        assert_eq!(sends.len(), 1, "one echo, to the prober only");
        match &sends[0] {
            (to, RsmMsg::ClockEcho { epoch, ts, seq }) => {
                assert_eq!((*to, *epoch, *seq), (r(0), Epoch::ZERO, 4));
                assert_eq!(ts.replica(), r(1));
                assert_eq!(
                    ts.micros(),
                    s.nodes[0].proto.send_floor,
                    "stamped by next_send_ts"
                );
            }
            other => panic!("expected a CLOCKECHO, got {other:?}"),
        }
        // Epoch-gated like CLOCKTIME: a stale-epoch probe is dropped
        // without an echo (what keeps a reconfigured-out replica's reads
        // parked), a future-epoch one is buffered.
        s.nodes[0]
            .proto
            .membership
            .install(Epoch(1), vec![r(0), r(1), r(2)]);
        s.receive(0, r(2), probe(Epoch::ZERO, 5_000, 5));
        assert!(s[0].sent.is_empty());
        assert_eq!(s.nodes[0].proto.latest_tv[2], Timestamp::ZERO);
        s.receive(0, r(2), probe(Epoch(2), 6_000, 6));
        assert_eq!(s.nodes[0].proto.queued_msgs.len(), 1);
        assert!(!s[0]
            .sent
            .iter()
            .any(|(_, m)| matches!(m, RsmMsg::ClockEcho { .. })));
    }

    #[test]
    fn frozen_or_rejoining_replica_neither_probes_nor_echoes() {
        let probe = RsmMsg::ClockProbe {
            epoch: Epoch::ZERO,
            ts: ts(900, 0),
            seq: 1,
        };
        for rejoining in [false, true] {
            let mut s = Script::new(vec![replica(1, 3)]);
            s[0].clock = 1_000;
            // A read rides a probe, then the replica freezes / loses its
            // place.
            s.on(0, |p, ctx| p.on_client_read(read(1), ctx));
            s[0].sent.clear();
            s.nodes[0].proto.frozen = !rejoining;
            s.nodes[0].proto.needs_rejoin = rejoining;
            s.on(0, |p, ctx| p.on_client_read(read(2), ctx));
            s.receive(0, r(0), probe.clone());
            s.receive(
                0,
                r(2),
                RsmMsg::ClockTime {
                    epoch: Epoch::ZERO,
                    ts: ts(950, 2),
                },
            );
            assert!(
                s[0].sent.is_empty(),
                "rejoining={rejoining}: sent {:?}",
                s[0].sent
            );
            assert_eq!(
                s.nodes[0].proto.latest_tv[0],
                ts(900, 0),
                "the evidence still counts"
            );
        }
    }

    #[test]
    fn read_waits_for_smaller_pending_commands_to_commit() {
        let mut s = Script::new(vec![replica(2, 3)]);
        s[0].clock = 1_000;
        // A write with a small timestamp is pending (not yet majority-
        // acked); a read parked above it must wait even once every
        // clock passed its mark.
        s.receive(0, r(0), prepare(Epoch::ZERO, ts(500, 0), r(0), cmd(1)));
        s[0].sent.clear();
        s.on(0, |p, ctx| p.on_client_read(read(9), ctx));
        loop_back(&mut s);
        advance_latest_tv(&mut s, 50_000);
        assert_eq!(
            s.nodes[0].proto.exec.pending_reads(),
            1,
            "a pending write below the mark blocks the read"
        );
        assert!(s[0].replies.is_empty());
        // Majority acks arrive, the write commits, the read releases.
        for k in [0u16, 1, 2] {
            s.receive(
                0,
                r(k),
                RsmMsg::PrepareOk {
                    epoch: Epoch::ZERO,
                    up_to: ts(500, 0),
                    clock_ts: ts(60_000 + k as u64, k),
                },
            );
        }
        assert_eq!(s[0].executed.len(), 1, "the write committed");
        assert_eq!(s.nodes[0].proto.exec.pending_reads(), 0);
        assert_eq!(s[0].replies.len(), 1);
    }

    #[test]
    fn read_falls_back_to_replication_without_sm_access() {
        let mut s = Script::new(vec![replica(0, 3)]);
        s[0].clock = 1_000;
        // The state machine cannot answer reads locally.
        s.nodes[0].sm = Box::new(ApplyOnly::default());
        s.on(0, |p, ctx| p.on_client_read(read(3), ctx));
        loop_back(&mut s);
        advance_latest_tv(&mut s, 50_000);
        assert_eq!(s.nodes[0].proto.exec.pending_reads(), 0);
        assert!(s[0].replies.is_empty());
        assert!(
            s[0].sent
                .iter()
                .any(|(_, m)| matches!(m, RsmMsg::PrepareBatch { .. })),
            "unserveable read must be replicated as an ordinary command"
        );
    }

    #[test]
    fn frozen_replica_queues_reads_and_probes_on_unfreeze() {
        let mut s = Script::new(vec![replica(0, 3)]);
        s[0].clock = 1_000;
        s.nodes[0].proto.frozen = true;
        s.on(0, |p, ctx| p.on_client_read(read(4), ctx));
        assert_eq!(
            s.nodes[0].proto.exec.pending_reads(),
            0,
            "frozen: no probe yet"
        );
        assert!(probes(&s[0].sent).is_empty());
        assert_eq!(s.nodes[0].proto.queued_reads.len(), 1);
        s.nodes[0].proto.frozen = false;
        s.on(0, |p, ctx| p.drain_buffers(ctx));
        assert_eq!(s.nodes[0].proto.queued_reads.len(), 0);
        assert_eq!(s.nodes[0].proto.exec.pending_reads(), 1, "riding a probe");
        loop_back(&mut s);
        advance_latest_tv(&mut s, 50_000);
        assert_eq!(s[0].replies.len(), 1);
    }

    #[test]
    fn clock_rsm_reports_local_stable_read_path() {
        let p = replica(0, 3);
        assert_eq!(p.read_path(), ReadPath::LocalStable);
    }

    #[test]
    fn order_key_is_epoch_major() {
        let a = order_key(Epoch(0), ts(999_999, 7));
        let b = order_key(Epoch(1), ts(1, 0));
        assert!(a < b);
        let c = order_key(Epoch(1), ts(1, 1));
        assert!(b < c);
    }

    #[test]
    fn order_keys_distinct_across_max_membership() {
        // All 256 replica ids at the same micros must produce distinct,
        // ordered keys (the full width of the 8-bit lane).
        let keys: Vec<u64> = (0..MAX_ORDER_KEY_REPLICAS)
            .map(|i| order_key(Epoch::ZERO, ts(42, i)))
            .collect();
        let mut sorted = keys.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len());
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "order-key layout")]
    fn oversized_membership_is_rejected_at_construction() {
        // Replica ids ≥ 256 would silently collide in the order key's
        // 8-bit replica lane; construction must refuse them outright.
        let _ = ClockRsm::new(
            r(0),
            Membership::uniform(300),
            ClockRsmConfig::default().with_delta_us(None),
        );
    }
}
