//! The reconfiguration protocol (Algorithm 3) and recovery reintegration
//! (Section V-B).
//!
//! Reconfiguration removes suspected replicas from — and reintegrates
//! recovered replicas into — the active configuration:
//!
//! 1. A reconfigurer broadcasts `SUSPEND(e, cts)` where `e` is the next
//!    epoch and `cts` its last commit mark. Receivers freeze their logs
//!    (stop processing `REQUEST`/`PREPARE`) and return every command
//!    their stable log holds with a timestamp greater than `cts`.
//! 2. With a majority of `SUSPENDOK`s collected, the reconfigurer proposes
//!    `(config_new, cts, ∪cmds)` in the `e`-th consensus instance — a
//!    single-decree Paxos from the `paxos` crate. Any command that could
//!    have committed anywhere was logged by a majority and therefore
//!    appears in the collected union (overlapping majorities — the paper's
//!    Claim 3).
//! 3. On `DECIDE`, every replica applies the decision: replicas whose last
//!    commit mark is below the decided timestamp first fetch the missing
//!    commands from a majority (`STATETRANSFER`: a `CatchUp` to all of
//!    Spec); un-executed `PREPARE` records beyond the decided timestamp
//!    are dropped from the log (the `Epoch` record's floor); the decided
//!    commands are executed in timestamp order; finally the new epoch and
//!    configuration are installed and normal processing resumes.
//!
//! Every answer — `SUSPENDOK` and the fetch's `CatchUpReply` — goes
//! through the one catch-up answer rule of `rsm_core::exec` (the one
//! Paxos and Mencius serve their catch-up requests with): a responder
//! whose log still reaches back to the point a `SUSPEND` or a fetch asks
//! from answers with the commands it logged there; one whose log was
//! compacted past it answers with a snapshot of its commit point, and
//! the requester installs the checkpoint and asks again from its new
//! commit point.
//!
//! A decision is kept only until it applies: the log's `Epoch` records
//! and the checkpoint at its head are the record of what was decided.
//! A replica that missed decisions (crashed, partitioned, or restarted
//! peers that no longer hold them) learns so from a later epoch — a
//! data-plane message or a `SUSPEND` from a later epoch makes it ask the
//! sender, paced by the executor; a stale `SUSPEND`, or a synod
//! `PREPARE`/`PROPOSE` for an installed epoch, is answered unasked, at
//! most once per peer per `TRANSFER_RETRY_US`. The
//! answer is a snapshot of the responder's live state, whose install
//! applies the responder's epoch at once; decisions held above it then
//! apply in epoch order.

use std::collections::{BTreeMap, HashSet};
use std::ops::Bound::{self, Excluded, Included, Unbounded};

use paxos::synod::{SynodInstance, SynodMsg};
use rsm_core::batch::Batch;
use rsm_core::checkpoint::{log_head, CatchUp, CatchUpReply, Checkpoint};
use rsm_core::config::Epoch;
use rsm_core::exec::TRANSFER_RETRY_US;
use rsm_core::id::ReplicaId;
use rsm_core::protocol::Context;
use rsm_core::time::{Micros, Timestamp};

use crate::log::{logged_in, LogRec, Logged};
use crate::msg::{Decision, LoggedCmd, RsmMsg};
use crate::replica::{live_runs, order_key, ClockRsm, TOKEN_RECONFIG_RETRY, TOKEN_SYNOD_RETRY};

/// Where a replica currently stands in the reconfiguration protocol.
#[derive(Debug)]
pub(crate) enum Phase {
    /// Normal operation.
    Idle,
    /// This replica is the reconfigurer, collecting `SUSPENDOK`s
    /// (Algorithm 3, lines 4–5).
    Collecting {
        /// The epoch being established.
        target_epoch: Epoch,
        /// Our last commit mark when the reconfiguration started.
        cts: Timestamp,
        /// The configuration we will propose.
        new_config: Vec<ReplicaId>,
        /// Union of commands collected so far, keyed by timestamp.
        collected: BTreeMap<Timestamp, LoggedCmd>,
        /// Replicas that have answered.
        responders: HashSet<ReplicaId>,
    },
    /// Proposal handed to consensus; waiting for the decision.
    AwaitingDecision {
        /// The epoch being decided.
        target_epoch: Epoch,
    },
    /// Applying the next epoch's decision but lagging: fetching missed
    /// commands from a majority (lines 25–28).
    FetchingState {
        /// Commands fetched so far.
        fetched: BTreeMap<Timestamp, LoggedCmd>,
        /// Replicas that have answered.
        responders: HashSet<ReplicaId>,
        /// The fetched range, `(our commit point, the decided one]`.
        range: CatchUp<Timestamp>,
    },
}

/// Reconfiguration state carried by every replica: the current phase, the
/// per-epoch consensus instances, and the epochs decided but not applied
/// yet.
#[derive(Debug)]
pub struct ReconfigEngine {
    id: ReplicaId,
    spec: Vec<ReplicaId>,
    pub(crate) phase: Phase,
    synods: BTreeMap<Epoch, SynodInstance<Decision>>,
    /// Decided epochs above the installed one, applied in epoch order and
    /// dropped as they apply (or as a snapshot installs past them).
    pub(crate) decisions: BTreeMap<Epoch, Decision>,
    /// The decision value this replica proposed for its own rejoin
    /// reconfiguration, keyed by target epoch. A recovered replica only
    /// trusts a decision built from its *own* post-recovery `SUSPEND`
    /// collection to cover the commands it missed while down — see
    /// `finish_apply`.
    pub(crate) rejoin_proposal: Option<(Epoch, Decision)>,
    /// When each peer was last sent a snapshot it did not ask for.
    unasked_sent: Vec<Option<Micros>>,
}

impl ReconfigEngine {
    pub(crate) fn new(id: ReplicaId, spec: Vec<ReplicaId>) -> Self {
        ReconfigEngine {
            id,
            unasked_sent: vec![None; spec.len()],
            spec,
            phase: Phase::Idle,
            synods: BTreeMap::new(),
            decisions: BTreeMap::new(),
            rejoin_proposal: None,
        }
    }

    /// Whether no reconfiguration activity is in flight at this replica.
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::Idle)
    }

    /// Drops the consensus instances and decisions of epochs at or below
    /// `epoch`, the installed one.
    pub(crate) fn forget_up_to(&mut self, epoch: Epoch) {
        self.synods = self.synods.split_off(&epoch.next());
        self.decisions = self.decisions.split_off(&epoch.next());
    }

    /// The newest epoch this replica, installed in `epoch`, holds every
    /// decision through.
    fn decided_through(&self, mut epoch: Epoch) -> Epoch {
        while self.decisions.contains_key(&epoch.next()) {
            epoch = epoch.next();
        }
        epoch
    }

    fn synod_for(&mut self, epoch: Epoch) -> &mut SynodInstance<Decision> {
        let (id, spec) = (self.id, self.spec.clone());
        self.synods
            .entry(epoch)
            .or_insert_with(|| SynodInstance::new(id, spec))
    }
}

impl ClockRsm {
    // ------------------------------------------------------------------
    // Trigger paths
    // ------------------------------------------------------------------

    /// Starts a reconfiguration establishing `new_config` in the next
    /// epoch (Algorithm 3, lines 1–6). No-op when one is already running,
    /// below a majority of Spec, or — failure detection off — when it
    /// drops a member: read probes then count on configurations only
    /// growing (see the `ReadFront::probe_quorum` impl).
    pub fn trigger_reconfigure(&mut self, new_config: Vec<ReplicaId>, ctx: &mut dyn Context<Self>) {
        if !self.reconfig.is_idle() {
            return;
        }
        if new_config.len() < self.membership.majority() {
            return; // cannot survive below a majority of Spec
        }
        let grows = self
            .membership
            .config()
            .iter()
            .all(|m| new_config.contains(m));
        if self.cfg.fd_timeout_us.is_none() && !grows {
            return;
        }
        let target_epoch = self.epoch().next();
        let cts = self.last_committed;
        self.reconfig.phase = Phase::Collecting {
            target_epoch,
            cts,
            new_config,
            collected: BTreeMap::new(),
            responders: HashSet::new(),
        };
        // No one has answered yet: the retry path sends to all of Spec.
        self.reconfig_retry(ctx);
    }

    /// Recovery reintegration: rejoin the configuration via a
    /// reconfiguration that includes this replica (Section V-B).
    pub(crate) fn start_rejoin(&mut self, ctx: &mut dyn Context<Self>) {
        if !self.reconfig.is_idle() {
            return;
        }
        let mut config = self.membership.config().to_vec();
        if !config.contains(&self.id) {
            config.push(self.id);
            config.sort_unstable();
        }
        self.trigger_reconfigure(config, ctx);
    }

    // ------------------------------------------------------------------
    // SUSPEND / SUSPENDOK (lines 4–10)
    // ------------------------------------------------------------------

    pub(crate) fn handle_suspend(
        &mut self,
        from: ReplicaId,
        epoch: Epoch,
        cts: Timestamp,
        ctx: &mut dyn Context<Self>,
    ) {
        // The reconfigurer is installed in the epoch before. One behind
        // us gets a snapshot instead of a freeze; one ahead of every
        // decision we hold has what we missed.
        let decided = Epoch(epoch.0.saturating_sub(1));
        if decided < self.epoch() {
            return self.send_unasked_snapshot(from, ctx);
        }
        if epoch > self.epoch() {
            self.freeze(ctx);
            self.ask_if_behind(from, decided, ctx);
        }
        self.answer_from_log(from, decided, cts, Unbounded, ctx, |logged| {
            let cmds = logged.into_values().collect();
            RsmMsg::SuspendOk { epoch, cmds }
        });
    }

    pub(crate) fn handle_suspend_ok(
        &mut self,
        from: ReplicaId,
        epoch: Epoch,
        cmds: Vec<LoggedCmd>,
        ctx: &mut dyn Context<Self>,
    ) {
        let majority = self.membership.majority();
        let ready = match &mut self.reconfig.phase {
            Phase::Collecting {
                target_epoch,
                collected,
                responders,
                cts,
                ..
            } if *target_epoch == epoch => {
                if responders.insert(from) {
                    let above = cmds.into_iter().filter(|lc| lc.ts > *cts);
                    collected.extend(above.map(|lc| (lc.ts, lc)));
                }
                responders.len() >= majority
            }
            _ => false,
        };
        if !ready {
            return;
        }
        // PROPOSE(e, config_new, cts, ∪cmds) — line 6.
        let Phase::Collecting {
            target_epoch,
            cts,
            new_config,
            collected,
            ..
        } = std::mem::replace(&mut self.reconfig.phase, Phase::Idle)
        else {
            unreachable!("checked above");
        };
        let decision = Decision {
            config: new_config,
            cts,
            cmds: collected.into_values().collect(),
        };
        if self.needs_rejoin {
            self.reconfig.rejoin_proposal = Some((target_epoch, decision.clone()));
        }
        self.reconfig.phase = Phase::AwaitingDecision { target_epoch };
        let mut out = Vec::new();
        self.reconfig
            .synod_for(target_epoch)
            .propose(decision, &mut out);
        self.route_synod(target_epoch, out, ctx);
        ctx.set_timer(self.cfg.retry_us(), TOKEN_SYNOD_RETRY);
    }

    // ------------------------------------------------------------------
    // Consensus plumbing
    // ------------------------------------------------------------------

    fn route_synod(
        &mut self,
        epoch: Epoch,
        out: Vec<(ReplicaId, SynodMsg<Decision>)>,
        ctx: &mut dyn Context<Self>,
    ) {
        for (to, msg) in out {
            ctx.send(to, RsmMsg::Synod { epoch, msg });
        }
    }

    pub(crate) fn handle_synod(
        &mut self,
        from: ReplicaId,
        epoch: Epoch,
        msg: SynodMsg<Decision>,
        ctx: &mut dyn Context<Self>,
    ) {
        if epoch <= self.epoch() {
            // Installed: only a proposer still deciding it lags behind.
            let proposing = matches!(msg, SynodMsg::Prepare { .. } | SynodMsg::Propose { .. });
            if proposing && from != self.id {
                self.send_unasked_snapshot(from, ctx);
            }
            return;
        }
        let mut out = Vec::new();
        let decided = self
            .reconfig
            .synod_for(epoch)
            .on_message(from, msg, &mut out);
        self.route_synod(epoch, out, ctx);
        if let Some(decision) = decided {
            self.reconfig.decisions.insert(epoch, decision);
            self.apply_ready_decisions(ctx);
        }
    }

    pub(crate) fn synod_retry(&mut self, ctx: &mut dyn Context<Self>) {
        let Phase::AwaitingDecision { target_epoch } = self.reconfig.phase else {
            return;
        };
        if target_epoch <= self.epoch() {
            self.reconfig.phase = Phase::Idle;
            return;
        }
        let mut out = Vec::new();
        self.reconfig.synod_for(target_epoch).on_retry(&mut out);
        self.route_synod(target_epoch, out, ctx);
        ctx.set_timer(self.cfg.retry_us(), TOKEN_SYNOD_RETRY);
    }

    // ------------------------------------------------------------------
    // Decisions (lines 11–24)
    // ------------------------------------------------------------------

    /// Applies stashed decisions strictly in epoch order; pauses when a
    /// state transfer is required and resumes when it completes.
    pub(crate) fn apply_ready_decisions(&mut self, ctx: &mut dyn Context<Self>) {
        loop {
            if matches!(self.reconfig.phase, Phase::FetchingState { .. }) {
                return; // resumes from handle_fetched
            }
            let next = self.epoch().next();
            let Some(decision) = self.reconfig.decisions.get(&next).cloned() else {
                return;
            };
            if !self.begin_apply(next, decision, ctx) {
                return;
            }
        }
    }

    /// Starts applying the decision for epoch `e`; returns false when a
    /// state transfer was kicked off instead of completing synchronously.
    fn begin_apply(&mut self, e: Epoch, decision: Decision, ctx: &mut dyn Context<Self>) -> bool {
        self.freeze(ctx);
        let cts_local = self.last_committed;
        if decision.cts > cts_local {
            // Lines 13–14: we lag behind the decided commit point.
            self.reconfig.phase = Phase::FetchingState {
                range: CatchUp {
                    from: cts_local,
                    below: decision.cts,
                },
                fetched: BTreeMap::new(),
                responders: HashSet::new(),
            };
            self.reconfig_retry(ctx);
            return false;
        }
        self.finish_apply(e, decision, BTreeMap::new(), ctx);
        true
    }

    /// Lines 15–24: execute the decided commands in timestamp order,
    /// install the new epoch/configuration (with line 15's floor), and
    /// resume.
    fn finish_apply(
        &mut self,
        e: Epoch,
        decision: Decision,
        fetched: BTreeMap<Timestamp, LoggedCmd>,
        ctx: &mut dyn Context<Self>,
    ) {
        self.reconfig.phase = Phase::Idle;
        let mut to_apply = fetched;
        to_apply.extend(decision.cmds.iter().map(|lc| (lc.ts, lc.clone())));

        // Line 15: un-executed PREPAREs beyond the decided timestamp that
        // did not make it into the decision can never have committed
        // anywhere. The `Epoch` record's floor drops them from the log
        // (this may split a logged run).
        let floor = decision.cts.max(self.last_committed);

        // Lines 16–20: execute everything not yet executed, in ts order.
        let old_epoch = self.epoch();
        for (ts, lc) in to_apply {
            if ts <= self.last_committed {
                continue; // already executed locally
            }
            ctx.log_append(LogRec::PrepareBatch {
                head: ts,
                origin: lc.origin,
                cmds: Batch::single(lc.cmd.clone()),
            });
            ctx.log_append(LogRec::Commit { ts });
            self.last_committed = ts;
            self.committed_count += 1;
            self.exec
                .execute(lc.cmd, lc.origin, order_key(old_epoch, ts), ctx);
        }

        // Lines 21–23: install epoch + configuration, reset LatestTV.
        self.membership.install(e, decision.config.clone());
        ctx.log_append(LogRec::Epoch {
            epoch: e,
            config: decision.config.clone(),
            floor,
        });
        self.reconfig.forget_up_to(e);
        for tv in &mut self.latest_tv {
            *tv = Timestamp::ZERO;
        }
        // Old-epoch echoes are dropped on arrival and `LatestTV` starts
        // over: every read the front holds goes round again, ahead of
        // those queued since.
        let reads = self.exec.take_reads();
        for cmd in reads.into_iter().rev() {
            self.queued_reads.push_front(cmd);
        }
        for (lane, row) in self.pending.iter_mut().zip(&mut self.acked) {
            lane.clear();
            row.fill(0);
        }
        // The trace cursors track the watermarks just reset; left high
        // they would suppress Replicated/Stable stamps for the new epoch.
        self.obs_stable_floor = Timestamp::ZERO;
        self.obs_repl_floor.fill(0);
        self.wait_queue.clear();
        self.wait_armed_for = None;
        self.send_floor = self.send_floor.max(self.last_committed.micros());
        // Reset the failure detector horizon so surviving members are not
        // immediately re-suspected after a long freeze.
        let clock = ctx.clock();
        for h in &mut self.last_heard {
            *h = clock;
        }

        // Line 24: resume.
        self.frozen = false;
        if self.membership.in_config(self.id) {
            if self.needs_rejoin {
                // A recovered replica's prepared history has a hole:
                // every command prepared while it was down. Of the
                // decisions it may apply, only one built from its *own*
                // post-recovery SUSPEND collection provably covers that
                // hole — the collection freezes a majority after the
                // recovery, so every command prepared earlier is either
                // committed below `cts` (fetched by state transfer) or
                // in a responder's returned log tail. A decision learned
                // by catch-up, or a competing proposal that won the
                // epoch, may have been collected before the recovery and
                // would silently omit commands committed during the
                // outage. Keep rejoining until our own proposal wins.
                let healed = self
                    .reconfig
                    .rejoin_proposal
                    .as_ref()
                    .is_some_and(|(pe, pd)| *pe == e && *pd == decision);
                if healed {
                    self.needs_rejoin = false;
                    self.reconfig.rejoin_proposal = None;
                } else {
                    ctx.set_timer(self.cfg.retry_us(), TOKEN_RECONFIG_RETRY);
                }
            }
        } else {
            // We are alive but excluded (removed while partitioned, or a
            // competing decision won): ask to rejoin, as a recovered
            // replica would (Section V-B).
            self.needs_rejoin = true;
            ctx.set_timer(self.cfg.retry_us(), TOKEN_RECONFIG_RETRY);
        }
        self.drain_buffers(ctx);
        self.try_commit(ctx);
    }

    fn freeze(&mut self, ctx: &mut dyn Context<Self>) {
        if !self.frozen {
            self.frozen = true;
            self.frozen_since = ctx.clock();
        }
    }

    // ------------------------------------------------------------------
    // State transfer (lines 25–31) and epoch catch-up
    // ------------------------------------------------------------------

    /// Responder side of a catch-up request from an asker holding every
    /// decision through `decided`: the commands logged in
    /// `(req.from, req.below]`, or a snapshot (see `answer_from_log`).
    pub(crate) fn handle_catch_up(
        &mut self,
        to: ReplicaId,
        decided: Epoch,
        req: CatchUp<Timestamp>,
        ctx: &mut dyn Context<Self>,
    ) {
        let CatchUp { from, below } = req;
        self.answer_from_log(to, decided, from, Included(below), ctx, |logged| {
            let runs = logged.into_values().collect();
            RsmMsg::CatchUpReply(CatchUpReply::Runs { from, below, runs })
        });
    }

    /// Requester side of the majority fetch: collects `from`'s commands
    /// in `(after, upto]`, and applies the decision once a majority
    /// answered.
    pub(crate) fn handle_fetched(
        &mut self,
        from: ReplicaId,
        after: Timestamp,
        upto: Timestamp,
        cmds: Vec<LoggedCmd>,
        ctx: &mut dyn Context<Self>,
    ) {
        let majority = self.membership.majority();
        let ready = match &mut self.reconfig.phase {
            Phase::FetchingState {
                fetched,
                responders,
                range,
            } if (range.from, range.below) == (after, upto) => {
                if responders.insert(from) {
                    let within = cmds.into_iter().filter(|lc| lc.ts > after && lc.ts <= upto);
                    fetched.extend(within.map(|lc| (lc.ts, lc)));
                }
                responders.len() >= majority
            }
            _ => false,
        };
        if !ready {
            return;
        }
        let Phase::FetchingState { fetched, .. } =
            std::mem::replace(&mut self.reconfig.phase, Phase::Idle)
        else {
            unreachable!("checked above");
        };
        let e = self.epoch().next();
        let decision = self.reconfig.decisions[&e].clone();
        self.finish_apply(e, decision, fetched, ctx);
        self.apply_ready_decisions(ctx);
    }

    /// Responder side of SUSPEND and CATCHUP. An asker holding decisions
    /// only through an epoch before ours gets a snapshot; any other, by
    /// the shared answer rule, `reply` over the commands this replica
    /// logged in `(after, upto]`, read from its stable log — unless a
    /// compaction folded some of them into the checkpoint the log starts
    /// with; then a snapshot of our commit point goes instead.
    fn answer_from_log(
        &self,
        to: ReplicaId,
        decided: Epoch,
        after: Timestamp,
        upto: Bound<Timestamp>,
        ctx: &mut dyn Context<Self>,
        reply: impl FnOnce(Logged) -> RsmMsg,
    ) {
        if decided < self.epoch() {
            return self.send_snapshot(to, ctx);
        }
        let held = log_head(ctx.stable_log()).map_or(Timestamp::ZERO, |cp| cp.applied);
        let (at, epoch, cfg) = (self.last_committed, self.epoch(), self.membership.config());
        let logged = |ctx: &mut dyn Context<Self>| {
            reply(logged_in(ctx.stable_log(), (Excluded(after), upto)))
        };
        let answer = self
            .exec
            .answer_catch_up(after, Some(held), at, epoch, cfg, ctx, logged);
        if let Some(msg) = answer {
            ctx.send(to, msg);
        }
    }

    /// Sends `to`, in an earlier epoch than ours, a snapshot of our live
    /// state: its install installs our epoch and every decision to it.
    fn send_snapshot(&self, to: ReplicaId, ctx: &mut dyn Context<Self>) {
        let (at, epoch, cfg) = (self.last_committed, self.epoch(), self.membership.config());
        let cp = self.exec.snapshot(at, epoch, cfg, ctx);
        ctx.send(to, cp.into());
    }

    /// [`Self::send_snapshot`] for a stale SUSPEND or synod proposal,
    /// which its sender repeats on every retry: at most one per peer per
    /// [`TRANSFER_RETRY_US`], timed by the receipt of the message it
    /// answers (`last_heard`). The snapshot already on its way ends the
    /// retries once it installs.
    fn send_unasked_snapshot(&mut self, to: ReplicaId, ctx: &mut dyn Context<Self>) {
        let now = self.last_heard[to.index()];
        let sent = &mut self.reconfig.unasked_sent[to.index()];
        if sent.is_some_and(|at| now.saturating_sub(at) < TRANSFER_RETRY_US) {
            return;
        }
        *sent = Some(now);
        self.send_snapshot(to, ctx);
    }

    /// Requester side of a snapshot answer (Section V-B state transfer,
    /// through the shared executor): install it — the executor compacts
    /// the log to it and the pending runs. A snapshot of a later epoch
    /// installs that epoch as an empty decision would, in any phase and
    /// even at an unchanged commit point: every decision up to it is
    /// inside the snapshot. One of our own epoch installs only while a
    /// collection or a fetch waits and only past our commit point; the
    /// replica stays frozen and asks again from its new commit point.
    pub(crate) fn handle_state_reply(
        &mut self,
        cp: Checkpoint<Timestamp>,
        ctx: &mut dyn Context<Self>,
    ) {
        let waiting = matches!(
            self.reconfig.phase,
            Phase::Collecting { .. } | Phase::FetchingState { .. }
        );
        let (epoch, config, cts) = (cp.epoch, cp.config.clone(), cp.applied);
        let later = epoch > self.epoch() && cts >= self.last_committed;
        let fresh = waiting && epoch == self.epoch() && cts > self.last_committed;
        let live = live_runs(&self.pending);
        if !(later || fresh) || !self.exec.install_caught_up(cp, ctx, live) {
            return; // stale, or not a snapshot of our state machine
        }
        self.freeze(ctx);
        self.last_committed = cts;
        if later {
            self.reconfig.rejoin_proposal = None;
            let decision = Decision {
                config,
                cts,
                cmds: Vec::new(),
            };
            self.finish_apply(epoch, decision, BTreeMap::new(), ctx);
        }
        match std::mem::replace(&mut self.reconfig.phase, Phase::Idle) {
            Phase::Collecting { new_config, .. } => self.trigger_reconfigure(new_config, ctx),
            _ => self.apply_ready_decisions(ctx),
        }
    }

    /// Asks `to`, installed in epoch `e`, for a snapshot when `e` is past
    /// every decision this replica holds. The executor paces the request:
    /// a burst of later-epoch traffic from one peer asks once.
    pub(crate) fn ask_if_behind(&mut self, to: ReplicaId, e: Epoch, ctx: &mut dyn Context<Self>) {
        let decided = self.reconfig.decided_through(self.epoch());
        if e <= decided {
            return;
        }
        let c = self.last_committed;
        let req = CatchUp { from: c, below: c };
        let msg = |req| RsmMsg::CatchUp { decided, req };
        let config = self.membership.config();
        self.exec.request_catch_up(Some(to), req, config, ctx, msg);
    }

    // ------------------------------------------------------------------
    // Retry / liveness backstop
    // ------------------------------------------------------------------

    pub(crate) fn reconfig_retry(&mut self, ctx: &mut dyn Context<Self>) {
        let (responders, msg) = match &self.reconfig.phase {
            Phase::Collecting {
                target_epoch,
                cts,
                responders,
                ..
            } => {
                if *target_epoch <= self.epoch() {
                    // Superseded by an installed decision.
                    self.reconfig.phase = Phase::Idle;
                    if self.needs_rejoin {
                        self.start_rejoin(ctx);
                    }
                    return;
                }
                let (epoch, cts) = (*target_epoch, *cts);
                (responders, RsmMsg::Suspend { epoch, cts })
            }
            Phase::FetchingState {
                range, responders, ..
            } => {
                let (decided, req) = (self.reconfig.decided_through(self.epoch()), *range);
                (responders, RsmMsg::CatchUp { decided, req })
            }
            // The synod retry timer drives this phase.
            Phase::AwaitingDecision { .. } => return,
            Phase::Idle => {
                if self.needs_rejoin {
                    self.start_rejoin(ctx);
                }
                return;
            }
        };
        let spec = self.membership.spec().iter();
        for r in spec.filter(|r| !responders.contains(r)) {
            ctx.send(*r, msg.clone());
        }
        ctx.set_timer(self.cfg.retry_us(), TOKEN_RECONFIG_RETRY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClockRsmConfig;
    use bytes::Bytes;
    use rsm_core::command::{Command, CommandId};
    use rsm_core::config::Membership;
    use rsm_core::id::ClientId;
    use rsm_core::node::Script;
    use rsm_core::protocol::Protocol;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    fn replica(i: u16) -> ClockRsm {
        ClockRsm::new(
            r(i),
            Membership::uniform(3),
            ClockRsmConfig::default().with_failure_detection(Some(100_000)),
        )
    }

    fn cmd(seq: u64) -> Command {
        Command::new(
            CommandId::new(ClientId::new(r(0), 0), seq),
            Bytes::from_static(b"x"),
        )
    }

    fn lc(micros: u64, origin: u16, seq: u64) -> LoggedCmd {
        LoggedCmd {
            ts: Timestamp::new(micros, r(origin)),
            origin: r(origin),
            cmd: cmd(seq),
        }
    }

    /// Appends a run headed at `head` to node `i`'s stable log, as a
    /// received PREPAREBATCH would.
    fn log_run(s: &mut Script<ClockRsm>, i: usize, head: Timestamp, cmds: Vec<Command>) {
        s.nodes[i].log.push(LogRec::PrepareBatch {
            head,
            origin: head.replica(),
            cmds: Batch::new(cmds),
        });
    }

    /// The SUSPENDOK replies node `i` sent, in order.
    fn suspend_oks(s: &Script<ClockRsm>, i: usize) -> Vec<Vec<LoggedCmd>> {
        let sent = s[i].sent.iter();
        sent.filter_map(|(_, m)| match m {
            RsmMsg::SuspendOk { cmds, .. } => Some(cmds.clone()),
            _ => None,
        })
        .collect()
    }

    #[test]
    fn trigger_broadcasts_suspend_to_spec() {
        let mut s = Script::new(vec![replica(0)]);
        s[0].clock = 1_000;
        s.on(0, |p, ctx| p.trigger_reconfigure(vec![r(0), r(1)], ctx));
        let suspends = s[0]
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, RsmMsg::Suspend { .. }))
            .count();
        assert_eq!(suspends, 3, "SUSPEND goes to all of Spec incl self");
        assert!(!s.nodes[0].proto.reconfig.is_idle());
    }

    #[test]
    fn trigger_refuses_sub_majority_config() {
        let mut s = Script::new(vec![replica(0)]);
        s[0].clock = 1_000;
        s.on(0, |p, ctx| p.trigger_reconfigure(vec![r(0)], ctx));
        assert!(s.nodes[0].proto.reconfig.is_idle());
        assert!(s[0].sent.is_empty());
    }

    #[test]
    fn trigger_refuses_to_drop_a_member_without_failure_detection() {
        let cfg = ClockRsmConfig::default();
        let mut s = Script::new(vec![ClockRsm::new(r(0), Membership::uniform(3), cfg)]);
        s[0].clock = 1_000;
        s.on(0, |p, ctx| p.trigger_reconfigure(vec![r(0), r(1)], ctx));
        assert!(s.nodes[0].proto.reconfig.is_idle());
        assert!(s[0].sent.is_empty());
        // Keeping every member is allowed: configurations only grow.
        s.on(0, |p, ctx| {
            p.trigger_reconfigure(vec![r(0), r(1), r(2)], ctx)
        });
        assert!(!s.nodes[0].proto.reconfig.is_idle());
    }

    #[test]
    fn suspend_freezes_and_returns_log_tail() {
        let mut s = Script::new(vec![replica(1)]);
        s[0].clock = 1_000;
        // Seed the log with two prepares.
        log_run(&mut s, 0, Timestamp::new(100, r(0)), vec![cmd(1)]);
        log_run(&mut s, 0, Timestamp::new(200, r(0)), vec![cmd(2)]);
        s.on(0, |p, ctx| {
            p.handle_suspend(r(0), Epoch(1), Timestamp::new(100, r(0)), ctx)
        });
        assert!(s.nodes[0].proto.frozen);
        let (_, reply) = s[0]
            .sent
            .iter()
            .find(|(_, m)| matches!(m, RsmMsg::SuspendOk { .. }))
            .unwrap();
        match reply {
            RsmMsg::SuspendOk { cmds, .. } => {
                assert_eq!(cmds.len(), 1, "only entries beyond cts are returned");
                assert_eq!(cmds[0].ts, Timestamp::new(200, r(0)));
            }
            _ => unreachable!(),
        }
    }

    /// Whether `p` holds no decision at or below its installed epoch.
    fn no_applied_decision_held(p: &ClockRsm) -> bool {
        p.reconfig.decisions.range(..=p.epoch()).next().is_none()
    }

    /// The snapshots node `i` sent, with their destinations.
    fn snapshots(s: &Script<ClockRsm>, i: usize) -> Vec<(ReplicaId, Epoch)> {
        let sent = s[i].sent.iter();
        sent.filter_map(|(to, m)| match m {
            RsmMsg::CatchUpReply(CatchUpReply::Snapshot(cp)) => Some((*to, cp.epoch)),
            _ => None,
        })
        .collect()
    }

    #[test]
    fn stale_suspend_gets_a_snapshot_not_a_freeze() {
        let mut s = Script::new(vec![replica(1)]);
        s[0].clock = 1_000;
        s.nodes[0]
            .proto
            .membership
            .install(Epoch(1), vec![r(0), r(1), r(2)]);
        s.on(0, |p, ctx| {
            p.handle_suspend(r(2), Epoch(1), Timestamp::ZERO, ctx)
        });
        assert!(!s.nodes[0].proto.frozen);
        assert_eq!(snapshots(&s, 0), [(r(2), Epoch(1))]);
    }

    /// A reconfigurer that missed an epoch repeats its stale SUSPEND on
    /// every retry: one snapshot answers a burst, one more goes once the
    /// retry window has passed.
    #[test]
    fn stale_suspends_from_one_peer_get_one_snapshot_per_window() {
        let mut s = Script::new(vec![replica(1)]);
        s[0].clock = 1_000;
        s.nodes[0]
            .proto
            .membership
            .install(Epoch(1), vec![r(0), r(1), r(2)]);
        let suspend = RsmMsg::Suspend {
            epoch: Epoch(1),
            cts: Timestamp::ZERO,
        };
        for _ in 0..10 {
            s.receive(0, r(2), suspend.clone());
        }
        assert!(s[0].clock < 1_000 + TRANSFER_RETRY_US);
        assert_eq!(snapshots(&s, 0), [(r(2), Epoch(1))]);
        s[0].clock += TRANSFER_RETRY_US;
        s.receive(0, r(2), suspend);
        assert_eq!(snapshots(&s, 0), [(r(2), Epoch(1)); 2]);
    }

    /// End-to-end reconfiguration across three hand-driven replicas:
    /// remove r2, verify everyone installs epoch 1 and the surviving
    /// configuration, and that a collected command commits everywhere.
    #[test]
    fn full_reconfiguration_round() {
        let mut s = Script::new((0..3).map(replica).collect());
        for i in 0..3 {
            s[i].clock = 1_000;
        }

        // r1 has logged a command that r0 (the reconfigurer) hasn't seen.
        let orphan = lc(500, 1, 42);
        log_run(&mut s, 1, orphan.ts, vec![orphan.cmd]);

        // r0 suspects r2 and starts removing it.
        s.on(0, |p, ctx| p.trigger_reconfigure(vec![r(0), r(1)], ctx));
        s.flush(0);

        // Deliver between r0 and r1 only (r2 is "dead").
        let mut steps = 0;
        while [(0, 0), (0, 1), (1, 0), (1, 1)]
            .into_iter()
            .any(|(from, to)| s.deliver(from, to))
        {
            steps += 1;
            assert!(steps < 1_000, "reconfiguration did not converge");
        }

        for i in [0usize, 1] {
            let p = &s.nodes[i].proto;
            assert_eq!(p.epoch(), Epoch(1), "replica {i}");
            assert_eq!(p.membership.config(), &[r(0), r(1)]);
            assert!(!p.frozen);
            // The orphan command was collected from r1 and executed.
            assert_eq!(s[i].executed.len(), 1, "replica {i}");
            assert_eq!(s[i].executed[0].cmd.id.seq, 42);
            // Epoch record landed in both logs; the decision is not kept.
            assert!(s.nodes[i]
                .log
                .iter()
                .any(|l| matches!(l, LogRec::Epoch { epoch, .. } if *epoch == Epoch(1))));
            assert!(no_applied_decision_held(p), "replica {i}");
        }
    }

    /// A reconfiguration with every replica up and every link delivering
    /// sends no snapshot: the acceptor whose ACCEPT reaches the proposer
    /// after the decision installed is not behind, and gets `Decided`.
    #[test]
    fn a_reconfiguration_with_every_replica_up_sends_no_snapshot() {
        let mut s = Script::new((0..3).map(replica).collect());
        for i in 0..3 {
            s[i].clock = 1_000;
        }
        s.on(0, |p, ctx| {
            p.trigger_reconfigure(vec![r(0), r(1), r(2)], ctx)
        });
        s.flush(0);
        let mut snapshots_sent = 0;
        let links = (0..3).flat_map(|f| (0..3).map(move |t| (f, t)));
        let mut delivered = true;
        while delivered {
            delivered = false;
            for (from, to) in links.clone() {
                while let Some(msg) = s[from].links[to].pop_front() {
                    let snapshot = matches!(msg, RsmMsg::CatchUpReply(CatchUpReply::Snapshot(_)));
                    snapshots_sent += usize::from(snapshot);
                    s.receive(to, r(from as u16), msg);
                    s.flush(to);
                    delivered = true;
                }
            }
        }
        for i in 0..3 {
            assert_eq!(s.nodes[i].proto.epoch(), Epoch(1), "replica {i}");
        }
        assert_eq!(snapshots_sent, 0);
    }

    /// r2 is cut off while r0 and r1 decide epoch 1 without it; r0 and r1
    /// then restart, holding that decision only as their logs' `Epoch`
    /// records, and every link heals. r2 learns of the later epoch,
    /// installs a peer's snapshot of it and rejoins.
    #[test]
    fn a_laggard_whose_peers_restarted_catches_up_and_rejoins() {
        let mut s = Script::new((0..3).map(replica).collect());
        for i in 0..3 {
            s[i].clock = 1_000;
            s.on(i, |p, ctx| p.on_start(ctx));
            s.flush(i);
        }
        s.on(0, |p, ctx| p.trigger_reconfigure(vec![r(0), r(1)], ctx));
        s.flush(0);
        let pairs = [(0, 0), (0, 1), (1, 0), (1, 1)];
        while pairs.into_iter().any(|(from, to)| s.deliver(from, to)) {}
        assert_eq!(s.nodes[1].proto.epoch(), Epoch(1));
        // What was in flight to r2 is lost; r0 and r1 restart.
        for i in 0..3 {
            s[i].links[2].clear();
        }
        for i in [0u16, 1] {
            s.restart(i as usize, replica(i));
            s.flush(i as usize);
        }
        // Each round delivers every link, then fires each replica's
        // oldest timer.
        for _ in 0..400 {
            for (from, to) in (0..3).flat_map(|f| (0..3).map(move |t| (f, t))) {
                while s.deliver(from, to) {}
            }
            for i in 0..3 {
                if !s[i].timers.is_empty() {
                    s.fire(i, 0);
                }
            }
        }
        let r2 = &s.nodes[2].proto;
        assert!(!r2.frozen);
        assert!(r2.queued_msgs.is_empty());
        assert!(r2.membership.config().contains(&r(2)));
        for i in 0..3 {
            let p = &s.nodes[i].proto;
            let installed = (p.epoch(), p.membership.config());
            assert_eq!(
                installed,
                (r2.epoch(), r2.membership.config()),
                "replica {i}"
            );
            assert!(no_applied_decision_held(p), "replica {i}");
        }
    }

    /// r0 and r1 restart together after deciding epoch 1 without r2, so
    /// both rejoin and compete for epoch 2's synod; every round delivers
    /// every link and then fires every timer pending at its start, so
    /// competing proposers retry in lockstep. A proposer whose round heard
    /// a reply or a higher ballot since its last retry sits the next one
    /// out, and the epoch is decided.
    #[test]
    fn rejoiners_retrying_in_lockstep_decide() {
        let mut s = Script::new((0..3).map(replica).collect());
        for i in 0..3 {
            s[i].clock = 1_000;
            s.on(i, |p, ctx| p.on_start(ctx));
            s.flush(i);
        }
        s.on(0, |p, ctx| p.trigger_reconfigure(vec![r(0), r(1)], ctx));
        s.flush(0);
        let pairs = [(0, 0), (0, 1), (1, 0), (1, 1)];
        while pairs.into_iter().any(|(from, to)| s.deliver(from, to)) {}
        for i in 0..3 {
            s[i].links[2].clear();
        }
        for i in [0u16, 1] {
            s.restart(i as usize, replica(i));
            s.flush(i as usize);
        }
        for _ in 0..100 {
            for (from, to) in (0..3).flat_map(|f| (0..3).map(move |t| (f, t))) {
                while s.deliver(from, to) {}
            }
            for i in 0..3 {
                for _ in 0..s[i].timers.len() {
                    s.fire(i, 0);
                }
            }
        }
        for i in 0..3 {
            let p = &s.nodes[i].proto;
            assert!(
                p.epoch() >= Epoch(2),
                "replica {i} stuck in {:?}",
                p.epoch()
            );
            assert!(!p.needs_rejoin, "replica {i} still rejoining");
            assert!(p.membership.config().contains(&r(i as u16)));
        }
    }

    /// A laggard queues a later epoch's run with its acks and clock
    /// evidence, then installs a peer's snapshot of that epoch whose
    /// commit point covers the run. Replaying the queue executes nothing
    /// the snapshot holds and never moves the commit point back.
    #[test]
    fn a_snapshot_covering_queued_runs_does_not_replay_them() {
        let mut s = Script::new(vec![replica(2)]);
        s[0].clock = 1_000;
        let epoch = Epoch(1);
        let (head, last) = (Timestamp::new(2_000, r(0)), Timestamp::new(2_001, r(0)));
        let cmds = Batch::new(vec![cmd(1), cmd(2)]);
        let (ts, origin) = (head, r(0));
        s.receive(
            0,
            r(0),
            RsmMsg::PrepareBatch {
                epoch,
                ts,
                origin,
                cmds,
            },
        );
        for k in [0u16, 1] {
            let clock_ts = Timestamp::new(2_100, r(k));
            s.receive(
                0,
                r(k),
                RsmMsg::PrepareOk {
                    epoch,
                    up_to: last,
                    clock_ts,
                },
            );
            let ts = Timestamp::new(2_200, r(k));
            s.receive(0, r(k), RsmMsg::ClockTime { epoch, ts });
        }
        assert_eq!(s.nodes[0].proto.queued_msgs.len(), 5);
        let state: Vec<u8> = [1u64, 2].iter().flat_map(|q| q.to_be_bytes()).collect();
        let cp = Checkpoint {
            applied: last,
            epoch,
            config: vec![r(0), r(1)],
            snapshot: Bytes::from(state),
            sessions: Bytes::new(),
        };
        s.receive(0, r(0), RsmMsg::CatchUpReply(CatchUpReply::Snapshot(cp)));
        let p = &s.nodes[0].proto;
        assert_eq!(p.epoch(), epoch);
        assert!(p.queued_msgs.is_empty());
        assert_eq!(p.last_committed, last);
        assert!(
            s[0].executed.is_empty(),
            "the snapshot already holds the run"
        );
        let log = &s.nodes[0].log;
        assert!(!log.iter().any(|l| matches!(l, LogRec::Commit { .. })));
        assert_eq!(s.applied(0), [1, 2]);
    }

    /// Ten later-epoch CLOCKTIMEs from one peer within the retry window
    /// ask it once: the executor paces the request. All ten wait for the
    /// epoch.
    #[test]
    fn later_epoch_traffic_asks_its_sender_once() {
        let mut s = Script::new(vec![replica(0)]);
        s[0].clock = 1_000;
        let epoch = Epoch(2);
        for k in 0..10 {
            let ts = Timestamp::new(2_000 + k, r(1));
            s.receive(0, r(1), RsmMsg::ClockTime { epoch, ts });
        }
        assert!(s[0].clock < 1_000 + TRANSFER_RETRY_US);
        let asked: Vec<(ReplicaId, Epoch)> = (s[0].sent.iter())
            .filter_map(|(to, m)| match m {
                RsmMsg::CatchUp { decided, .. } => Some((*to, *decided)),
                _ => None,
            })
            .collect();
        assert_eq!(asked, [(r(1), Epoch::ZERO)]);
        assert_eq!(s.nodes[0].proto.queued_msgs.len(), 10);
    }

    #[test]
    fn fetching_state_requests_missing_range() {
        let mut s = Script::new(vec![replica(2)]);
        s[0].clock = 1_000;
        // A decision whose commit point is ahead of ours.
        let d = Decision {
            config: vec![r(0), r(1), r(2)],
            cts: Timestamp::new(900, r(0)),
            cmds: vec![lc(950, 0, 7)],
        };
        s.nodes[0].proto.reconfig.decisions.insert(Epoch(1), d);
        s.on(0, |p, ctx| p.apply_ready_decisions(ctx));
        assert!(matches!(
            s.nodes[0].proto.reconfig.phase,
            Phase::FetchingState { .. }
        ));
        // To all of Spec, as an asker holding epoch 1's decision.
        let fetches: Vec<(Epoch, CatchUp<Timestamp>)> = (s[0].sent.iter())
            .filter_map(|(_, m)| match m {
                RsmMsg::CatchUp { decided, req } => Some((*decided, *req)),
                _ => None,
            })
            .collect();
        let range = CatchUp {
            from: Timestamp::ZERO,
            below: Timestamp::new(900, r(0)),
        };
        assert_eq!(fetches, [(Epoch(1), range); 3]);
        // Majority replies with the missing command at ts 800.
        for k in [0u16, 1] {
            s.on(0, |p, ctx| {
                p.handle_fetched(
                    r(k),
                    Timestamp::ZERO,
                    Timestamp::new(900, r(0)),
                    vec![lc(800, 0, 6)],
                    ctx,
                )
            });
        }
        assert!(s.nodes[0].proto.reconfig.is_idle());
        assert_eq!(s.nodes[0].proto.epoch(), Epoch(1));
        // Both the fetched (800) and decided (950) commands executed, in order.
        assert_eq!(s[0].executed.len(), 2);
        assert_eq!(s[0].executed[0].cmd.id.seq, 6);
        assert_eq!(s[0].executed[1].cmd.id.seq, 7);
    }

    #[test]
    fn decisions_decided_out_of_order_apply_in_epoch_order() {
        let mut s = Script::new(vec![replica(2)]);
        s[0].clock = 1_000;
        let d1 = Decision {
            config: vec![r(0), r(1), r(2)],
            cts: Timestamp::ZERO,
            cmds: vec![lc(100, 0, 1)],
        };
        let d2 = Decision {
            config: vec![r(0), r(1), r(2)],
            cts: Timestamp::new(100, r(0)),
            cmds: vec![lc(200, 0, 2)],
        };
        let decided = |epoch, value| RsmMsg::Synod {
            epoch,
            msg: SynodMsg::Decided { value },
        };
        // Decided out of order: epoch 2 first.
        s.receive(0, r(0), decided(Epoch(2), d2));
        assert_eq!(
            s.nodes[0].proto.epoch(),
            Epoch(0),
            "cannot apply epoch 2 before 1"
        );
        s.receive(0, r(1), decided(Epoch(1), d1));
        assert_eq!(s.nodes[0].proto.epoch(), Epoch(2));
        assert!(s.nodes[0].proto.reconfig.decisions.is_empty());
        assert_eq!(s[0].executed.len(), 2);
        assert_eq!(s[0].executed[0].cmd.id.seq, 1);
        assert_eq!(s[0].executed[1].cmd.id.seq, 2);
        assert!(s[0].executed[0].order_hint < s[0].executed[1].order_hint);
    }

    #[test]
    fn catch_up_serves_requested_range() {
        let mut s = Script::new(vec![replica(0)]);
        s[0].clock = 1_000;
        for (m, seq) in [(100u64, 1u64), (200, 2), (300, 3)] {
            log_run(&mut s, 0, Timestamp::new(m, r(0)), vec![cmd(seq)]);
        }
        let req = CatchUp {
            from: Timestamp::new(100, r(0)),
            below: Timestamp::new(250, r(0)),
        };
        s.on(0, |p, ctx| p.handle_catch_up(r(1), Epoch::ZERO, req, ctx));
        let (_, reply) = &s[0].sent[0];
        match reply {
            RsmMsg::CatchUpReply(CatchUpReply::Runs { runs, .. }) => {
                assert_eq!(runs.len(), 1);
                assert_eq!(runs[0].cmd.id.seq, 2);
            }
            _ => unreachable!(),
        }
    }

    /// Runs from three origins overlapping in micros, queried at every
    /// bound — inside runs, at their ends, at every replica lane — answer
    /// SUSPEND and CATCHUP from the log with exactly the list a
    /// per-command index would give, before and after an `Epoch` record
    /// drops (line 15) every uncommitted command above its floor,
    /// splitting runs; a decided command re-logged inside a held run
    /// counts once.
    #[test]
    fn log_reader_answers_like_a_per_command_index() {
        use std::ops::Bound::{Excluded, Included};
        let mut s = Script::new(vec![replica(0)]);
        s[0].clock = 1_000;
        let mut reference = BTreeMap::new();
        let mut seq = 0;
        for (head, o, len) in [
            (100, 0, 10),
            (200, 0, 5),
            (105, 1, 10),
            (100, 2, 1),
            (150, 2, 11),
        ] {
            let cmds: Vec<Command> = (0..len)
                .map(|_| {
                    cmd({
                        seq += 1;
                        seq
                    })
                })
                .collect();
            for (i, c) in cmds.iter().enumerate() {
                let ts = Timestamp::new(head + i as u64, r(o));
                reference.insert(
                    ts,
                    LoggedCmd {
                        ts,
                        origin: r(o),
                        cmd: c.clone(),
                    },
                );
            }
            log_run(&mut s, 0, Timestamp::new(head, r(o)), cmds);
        }
        let top = Timestamp::new(u64::MAX, r(2));
        let bounds: Vec<Timestamp> = (95..=210)
            .flat_map(|m| (0..3).map(move |o| Timestamp::new(m, r(o))))
            .chain([Timestamp::ZERO, top])
            .collect();
        let check = |s: &mut Script<ClockRsm>, reference: &BTreeMap<Timestamp, LoggedCmd>| {
            let expect = |from, to| -> Vec<LoggedCmd> {
                if to <= from {
                    return Vec::new();
                }
                let range = reference.range((Excluded(from), Included(to)));
                range.map(|(_, lc)| lc.clone()).collect()
            };
            for &from in &bounds {
                s.on(0, |p, ctx| p.handle_suspend(r(1), Epoch(1), from, ctx));
                for &below in bounds.iter().step_by(5) {
                    let req = CatchUp { from, below };
                    s.on(0, |p, ctx| p.handle_catch_up(r(1), Epoch::ZERO, req, ctx));
                }
                let mut sent = std::mem::take(&mut s[0].sent).into_iter().map(|(_, m)| m);
                match sent.next() {
                    Some(RsmMsg::SuspendOk { cmds, .. }) => assert_eq!(cmds, expect(from, top)),
                    other => panic!("expected SUSPENDOK, got {other:?}"),
                }
                for (&to, m) in bounds.iter().step_by(5).zip(sent) {
                    match m {
                        RsmMsg::CatchUpReply(CatchUpReply::Runs { runs, .. }) => {
                            assert_eq!(runs, expect(from, to))
                        }
                        other => panic!("expected runs, got {other:?}"),
                    }
                }
            }
        };
        check(&mut s, &reference);
        // A decision with floor 120 keeps every third command above it:
        // the decided ones, re-logged and committed in timestamp order.
        let floor = Timestamp::new(120, r(0));
        let decided: Vec<LoggedCmd> = reference
            .range((Excluded(floor), Included(top)))
            .map(|(_, lc)| lc.clone())
            .step_by(3)
            .collect();
        for lc in &decided {
            log_run(&mut s, 0, lc.ts, vec![lc.cmd.clone()]);
            s.nodes[0].log.push(LogRec::Commit { ts: lc.ts });
        }
        s.nodes[0].log.push(LogRec::Epoch {
            epoch: Epoch(1),
            config: vec![r(0), r(1), r(2)],
            floor,
        });
        reference.retain(|ts, _| *ts <= floor || decided.iter().any(|lc| lc.ts == *ts));
        check(&mut s, &reference);
    }

    /// Algorithm 3's line 15 survives a crash: a decision drops an
    /// uncommitted run at r1, r1 crashes and recovers, and a second
    /// reconfiguration collected from below that run must not get it
    /// back — a replica that already executed past it would skip it
    /// while a lagging one executed it.
    #[test]
    fn a_run_dropped_by_a_decision_stays_dropped_across_a_crash() {
        let mut s = Script::new(vec![replica(1)]);
        s[0].clock = 1_000;
        let dead = Timestamp::new(2_000, r(2));
        s.receive(
            0,
            r(2),
            RsmMsg::PrepareBatch {
                epoch: Epoch::ZERO,
                ts: dead,
                origin: r(2),
                cmds: Batch::new((1..=3).map(cmd).collect()),
            },
        );
        // Epoch 1 decides one command at 500 and not r2's run.
        let d = Decision {
            config: vec![r(0), r(1), r(2)],
            cts: Timestamp::ZERO,
            cmds: vec![lc(500, 0, 9)],
        };
        s.nodes[0].proto.reconfig.decisions.insert(Epoch(1), d);
        s.on(0, |p, ctx| p.apply_ready_decisions(ctx));
        assert_eq!(s.nodes[0].proto.epoch(), Epoch(1));

        s.restart(0, replica(1));
        assert_eq!(s.nodes[0].proto.epoch(), Epoch(1));
        s[0].sent.clear();
        let cts = Timestamp::new(100, r(0));
        s.on(0, |p, ctx| p.handle_suspend(r(0), Epoch(2), cts, ctx));
        let oks = suspend_oks(&s, 0);
        assert_eq!(oks.len(), 1);
        let got: Vec<(u64, u16)> = oks[0]
            .iter()
            .map(|lc| (lc.ts.micros(), lc.ts.replica().as_u16()))
            .collect();
        assert_eq!(got, [(500, 0)], "the dropped run came back");
    }

    /// Reconfiguration logs a fetched command below a run of the same
    /// origin already in the log, and re-logs that run's decided
    /// commands: replay finds each commit mark's command by lookup and
    /// executes every command exactly once, in the live order.
    #[test]
    fn fetched_commands_logged_below_a_run_replay_exactly_once() {
        let mut s = Script::new(vec![replica(2)]);
        s[0].clock = 1_000;
        let run: Vec<Command> = (2..=4).map(cmd).collect();
        s.receive(
            0,
            r(0),
            RsmMsg::PrepareBatch {
                epoch: Epoch::ZERO,
                ts: Timestamp::new(1_000, r(0)),
                origin: r(0),
                cmds: Batch::new(run.clone()),
            },
        );
        // Epoch 1 decides r0's run above a commit point this replica
        // lags: r0's command at 500 must be fetched first.
        let decided = (0..3).map(|i| LoggedCmd {
            ts: Timestamp::new(1_000 + i as u64, r(0)),
            origin: r(0),
            cmd: run[i].clone(),
        });
        let cts = Timestamp::new(900, r(0));
        s.nodes[0].proto.reconfig.decisions.insert(
            Epoch(1),
            Decision {
                config: vec![r(0), r(1), r(2)],
                cts,
                cmds: decided.collect(),
            },
        );
        s.on(0, |p, ctx| p.apply_ready_decisions(ctx));
        for k in [0u16, 1] {
            let fetched = vec![lc(500, 0, 1)];
            s.on(0, |p, ctx| {
                p.handle_fetched(r(k), Timestamp::ZERO, cts, fetched, ctx)
            });
        }
        let order = |s: &Script<ClockRsm>| -> Vec<(u64, u64)> {
            let executed = s[0].executed.iter();
            executed.map(|c| (c.cmd.id.seq, c.order_hint)).collect()
        };
        let live = order(&s);
        assert_eq!(live.iter().map(|c| c.0).collect::<Vec<_>>(), [1, 2, 3, 4]);
        let committed = s.nodes[0].proto.committed_count;

        s.restart(0, replica(2));
        assert_eq!(order(&s), live, "each command executes once");
        let q = &s.nodes[0].proto;
        assert_eq!(q.committed_count, committed);
        assert_eq!(logged_in(&s.nodes[0].log, ..).len(), 4);
    }
}
