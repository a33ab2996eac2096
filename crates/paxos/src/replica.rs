//! The Multi-Paxos replica state machine (plain and bcast variants).
//!
//! The data plane is fully batched: the leader binds whole client
//! [`Batch`]es to contiguous instance runs with one `ACCEPT`, and
//! replication progress flows as **cumulative watermarks** — one
//! `ACCEPTED` (and, in plain Paxos, one `COMMIT`) message covers every
//! instance up to its watermark. Per-instance ack counters disappear; the
//! hot path compares a handful of per-replica integers.
//!
//! # Leader election and lease-based fail-over
//!
//! With a [`LeaseConfig`] installed, the replica also runs classic
//! Multi-Paxos leader change, promoted from the single-decree machinery
//! in [`synod`](crate::synod) to the whole instance log:
//!
//! * every data-plane message carries the proposing regime's [`Ballot`];
//!   acceptors **reject** (`NACK`) anything below their promise;
//! * a follower whose leader lease expires broadcasts `PREPARE` over the
//!   log suffix above its committed watermark; acceptors answer
//!   `PROMISE` with their accepted entries and ballots;
//! * on a majority of promises the candidate **repairs** the suffix: it
//!   adopts the highest-ballot accepted value per instance, closes
//!   proven-unchosen holes with no-ops, re-proposes everything at its
//!   ballot (`REPAIR`), and resumes the batched data plane from the top
//!   of the repaired range.
//!
//! ## Why a deposed leader is harmless (the fencing invariant)
//!
//! The lease is **liveness only**; safety rests on ballots. A deposed
//! leader's in-flight `ACCEPT`s land in one of two worlds: at acceptors
//! that already promised the new ballot they are nacked outright; at
//! acceptors that have not, they may still be accepted — but then they
//! are sub-majority acceptances unless the old regime really did commit,
//! and either way the new leader's promise quorum intersects every
//! accept quorum, so its repair adopts any possibly-committed value and
//! supersedes the rest at a higher ballot. Cumulative `ACCEPTED`
//! watermarks are regime-tagged, so vouches earned under the old leader
//! are never counted toward the new regime's commits. Clock skew can
//! therefore cost an unneeded election, never agreement.

use std::collections::BTreeMap;

use rsm_core::batch::Batch;
use rsm_core::checkpoint::{CatchUp, CatchUpReply, Checkpoint, CheckpointPolicy};
use rsm_core::command::Command;
use rsm_core::config::{Epoch, Membership};
use rsm_core::exec::{Executor, ReadFront, TRANSFER_RETRY_US};
use rsm_core::id::ReplicaId;
use rsm_core::lease::{Lease, LeaseConfig};
use rsm_core::obs::{names, TraceStage};
use rsm_core::protocol::{Context, Protocol, TimerToken};
use rsm_core::read::{ReadPath, ReadReply, ReadRequest, PROBE_FLUSH_TOKEN};
use rsm_core::session::DEFAULT_SESSION_WINDOW;
use rsm_core::time::Micros;

use crate::msg::{PaxosMsg, SuffixEntry};
use crate::synod::Ballot;

/// The lease/election timer (heartbeats, suspicion, candidate retries).
pub(crate) const TOKEN_LEASE: TimerToken = TimerToken(1);

/// Which phase-2b dissemination strategy to run (Section IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PaxosVariant {
    /// Phase 2b to the leader only; leader broadcasts commit notifications.
    Plain,
    /// Phase 2b broadcast to all replicas; everyone self-commits on a
    /// majority ("a well-known optimization ... saving the last message").
    Bcast,
}

/// Stable log record of Multi-Paxos: accepted runs, no-op fillers,
/// promises, and commit marks.
#[derive(Debug, Clone)]
pub enum PaxosLogRec {
    /// An accepted (logged) run of instances, phase 2: command `i` at
    /// instance `first + i`. A replicated batch is one record; a repair
    /// or catch-up entry is a one-command run. Replay applies the runs in
    /// log order, so a later record for an instance wins.
    Accept {
        /// Instance of the run's first command.
        first: u64,
        /// The ballot the run was accepted at.
        ballot: Ballot,
        /// The commands.
        cmds: Batch,
        /// Originating replica.
        origin: ReplicaId,
    },
    /// An accepted no-op filler: a hole the electing leader proved
    /// unchosen and closed (phase 2 of a [`PaxosMsg::Repair`]).
    Noop {
        /// Instance number.
        instance: u64,
        /// The repairing ballot.
        ballot: Ballot,
    },
    /// The acceptor promise: no ballot below this will ever be accepted.
    /// Logged before the corresponding `PROMISE`/acceptance leaves the
    /// replica, and preserved by compaction, so a crash can never
    /// regress the promise and let a deposed leader back in.
    Promised(Ballot),
    /// A commit mark for an instance.
    Commit {
        /// Instance number.
        instance: u64,
    },
    /// A state machine checkpoint (shared subsystem,
    /// `rsm_core::checkpoint`): the snapshot reflects every instance
    /// **below** the (exclusive) applied watermark. Every checkpoint
    /// compacts the log to itself, the promise and the still-pending
    /// accepts, so it heads the log; recovery restores it and replays
    /// only the records above it.
    Checkpoint(Checkpoint<u64>),
}

rsm_core::checkpoint_record!(PaxosLogRec, u64);

/// The records a compaction keeps above a checkpoint at `applied`: the
/// promise — it survives compaction, since an acceptor must never regress
/// it — and the accepts of every instance from `applied` up (everything
/// below is inside the snapshot).
fn live_records(
    promised: Ballot,
    instances: &BTreeMap<u64, Slot>,
    applied: u64,
) -> impl Iterator<Item = PaxosLogRec> + '_ {
    let accepts = instances.range(applied..);
    let accepts = accepts.map(|(&instance, slot)| MultiPaxos::slot_rec(instance, slot));
    std::iter::once(PaxosLogRec::Promised(promised)).chain(accepts)
}

/// One accepted instance held in memory until executed.
#[derive(Debug, Clone)]
struct Slot {
    /// The ballot the value was accepted at.
    ballot: Ballot,
    /// Whether this replica may execute and vouch for the value. Live
    /// acceptances are verified; entries rebuilt from the log after a
    /// crash are not (an election this replica slept through may have
    /// superseded them) until re-validated by current-regime traffic,
    /// their own commit mark, or a checkpoint install. Unverified slots
    /// are still *reported* in promises — acceptor durability — they are
    /// just never executed or vouched for.
    verified: bool,
    /// The command and its origin, or `None` for a no-op filler.
    value: Option<(Command, ReplicaId)>,
}

/// A candidate's in-flight election.
#[derive(Debug)]
struct Election {
    /// The candidacy ballot.
    ballot: Ballot,
    /// When the candidacy started (paces the retry at a higher round).
    started_at: Micros,
    /// Promises received so far: `(acceptor, committed watermark,
    /// accepted suffix)`.
    promises: Vec<(ReplicaId, u64, Vec<SuffixEntry>)>,
}

/// A candidate's in-flight pre-vote probe (opt-in,
/// [`LeaseConfig::pre_vote`]): the electability check that runs *before*
/// [`Election`], at a prospective ballot that has not been made durable
/// or promised anywhere. Dropped without trace if the leader proves
/// itself alive before a majority grants.
#[derive(Debug)]
struct PreVoteRound {
    /// The prospective candidacy ballot (`max_round_seen + 1` at probe
    /// time — *not* reserved; the real election recomputes it).
    ballot: Ballot,
    /// When the probe started (paces the retry).
    started_at: Micros,
    /// Replicas that answered "I would promise that".
    grants: Vec<ReplicaId>,
}

/// A Multi-Paxos replica.
///
/// Starts under the designated leader's initial regime (ballot round 0).
/// Without a [`LeaseConfig`] the leader is assumed stable — the paper's
/// failure-free evaluation setup. With one ([`with_failover`]), a leader
/// crash is detected by lease expiry and survivors elect a replacement
/// via `PREPARE`/`PROMISE`/`REPAIR` (see the module docs); the deposed
/// leader rejoins as a follower, fenced by its stale ballot.
///
/// [`with_failover`]: MultiPaxos::with_failover
#[derive(Debug)]
pub struct MultiPaxos {
    id: ReplicaId,
    membership: Membership,
    variant: PaxosVariant,
    /// Fail-over timing policy; [`LeaseConfig::DISABLED`] pins the
    /// initial leader forever.
    lease_cfg: LeaseConfig,
    /// The leader regime in effect: the highest ballot whose election
    /// outcome (or initial designation) this replica has adopted.
    regime: Ballot,
    /// The acceptor promise; always `>= regime`. While `promised >
    /// regime` an election is pending somewhere and this replica fences
    /// the old regime but has not yet seen the new leader's repair.
    promised: Ballot,
    /// Highest ballot round observed anywhere; candidacies outbid it.
    max_round_seen: u64,
    /// Last instant the current regime proved itself (leader traffic,
    /// heartbeat, or a granted promise).
    lease: Lease,
    /// This replica's candidacy, while one is in flight.
    election: Option<Election>,
    /// This replica's pre-vote probe, while one is in flight (only with
    /// [`LeaseConfig::pre_vote`]; mutually exclusive with `election`).
    prevote: Option<PreVoteRound>,
    /// Client batches buffered while campaigning; proposed on victory,
    /// forwarded on defeat.
    pending: Vec<(Batch, ReplicaId)>,
    /// Leader only: next instance number to assign.
    next_instance: u64,
    /// Commands accepted but not yet executed, keyed by instance. Every
    /// instance in `[committed_next, logged_next)` holds a verified slot
    /// (the invariant documented on `logged_next`).
    instances: BTreeMap<u64, Slot>,
    /// The regime-tagged vouch watermark: every instance below it is
    /// either known committed or logged here at the current regime's
    /// ballot (gap-free thanks to consecutive leader assignment over
    /// FIFO channels).
    ///
    /// Invariant: every instance in `[committed_next, logged_next)` is a
    /// verified slot. Inserting verified slots and raising
    /// `committed_next` keep it, which is all `on_accept`,
    /// `advance_commit` and `on_commit` do; so the two commit paths
    /// resume the walk where it stood ([`extend_vouch`]) and pay for
    /// what they advance, not for the pipeline behind the watermark.
    /// The five sites that demote, drop or install slots —
    /// `adopt_regime` (demotes), `on_repair` (drops the tail above the
    /// repair), `on_runs` (installs), `on_snapshot` (drops below the
    /// checkpoint) and `on_recover` (rebuilds unverified) — re-walk
    /// from `committed_next` ([`recompute_vouch`]).
    ///
    /// [`extend_vouch`]: MultiPaxos::extend_vouch
    /// [`recompute_vouch`]: MultiPaxos::recompute_vouch
    logged_next: u64,
    /// `acked[k]`: replica `k`'s acknowledged watermark **under the
    /// current regime**. Reset on every regime change; tracked by
    /// everyone in bcast mode, by the leader in plain mode.
    acked: Vec<u64>,
    /// All instances below this are known committed.
    committed_next: u64,
    /// Next instance to execute (all below are executed).
    exec_cursor: u64,
    /// The shared execution pipeline (`rsm_core::exec`): session dedup
    /// window, checkpoint trigger, catch-up answer rule, pacing and peer
    /// rotation, and the reads parked on an instance mark until
    /// `exec_cursor` passes it.
    exec: Executor<u64>,
    /// The execution hole currently being watched and since when:
    /// `(exec_cursor, first observed)`. A hole must persist for
    /// [`TRANSFER_RETRY_US`] before a catch-up is requested — comfortably
    /// above a WAN round trip, so a hole whose `ACCEPT` is merely in
    /// flight (commit watermarks can outrun accepts via faster relay
    /// paths) resolves itself and never triggers a request; the executor
    /// paces the retries afterwards.
    stalled_at: Option<(u64, Micros)>,

    // ------ local reads (`rsm_core::read`) ------
    /// `regime_heard[k]`: local clock when replica `k` last sent
    /// evidence of the **current** regime (an `Accepted` or `ReadMark`
    /// at our ballot). Reset on regime change; feeds the leader's read
    /// lease (see [`MultiPaxos::read_lease_valid`]).
    regime_heard: Vec<Micros>,
    /// Top of the suffix this leader re-proposed when it won its
    /// election (0 for the initial regime). Leader-local reads must not
    /// be served below it: instances inherited from older regimes may
    /// hold writes that committed — and replied — before the fail-over,
    /// yet sit above our committed watermark until re-acknowledged.
    repair_top: u64,
}

impl MultiPaxos {
    /// Creates a replica under `leader`'s initial regime.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `leader` is not in the membership spec.
    pub fn new(
        id: ReplicaId,
        membership: Membership,
        leader: ReplicaId,
        variant: PaxosVariant,
    ) -> Self {
        assert!(membership.in_spec(id), "replica {id} not in spec");
        assert!(membership.in_spec(leader), "leader {leader} not in spec");
        let n = membership.spec().len();
        let initial = Ballot {
            round: 0,
            proposer: leader,
        };
        MultiPaxos {
            id,
            membership,
            variant,
            lease_cfg: LeaseConfig::DISABLED,
            regime: initial,
            promised: initial,
            max_round_seen: 0,
            lease: Lease::new(0),
            election: None,
            prevote: None,
            pending: Vec::new(),
            next_instance: 0,
            instances: BTreeMap::new(),
            logged_next: 0,
            acked: vec![0; n],
            committed_next: 0,
            exec_cursor: 0,
            exec: Executor::new(id, CheckpointPolicy::DISABLED, DEFAULT_SESSION_WINDOW),
            stalled_at: None,
            regime_heard: vec![0; n],
            repair_top: 0,
        }
    }

    /// Enables periodic checkpoints, each compacting the log, for this
    /// replica.
    pub fn with_checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.exec.set_checkpoint_policy(policy);
        self
    }

    /// Enables lease-based fail-over: leader heartbeats, follower
    /// suspicion, and ballot elections per `lease`.
    pub fn with_failover(mut self, lease: LeaseConfig) -> Self {
        self.lease_cfg = lease;
        self
    }

    /// Whether this replica is the active, unfenced leader.
    pub fn is_leader(&self) -> bool {
        self.regime.proposer == self.id && self.promised == self.regime
    }

    /// The dissemination variant this replica runs.
    pub fn variant(&self) -> PaxosVariant {
        self.variant
    }

    /// Number of instances executed so far (no-op fillers included).
    pub fn executed(&self) -> u64 {
        self.exec_cursor
    }

    fn majority(&self) -> usize {
        self.membership.majority()
    }

    /// The best current guess at who leads: the adopted regime's
    /// proposer, or — while fencing a newer promise — that promise's
    /// candidate.
    fn leader_hint(&self) -> ReplicaId {
        if self.promised > self.regime {
            self.promised.proposer
        } else {
            self.regime.proposer
        }
    }

    /// Records an observed ballot and durably raises the promise if it
    /// exceeds the current one.
    fn promise_at_least(&mut self, ballot: Ballot, ctx: &mut dyn Context<Self>) {
        self.max_round_seen = self.max_round_seen.max(ballot.round);
        if ballot > self.promised {
            self.promised = ballot;
            ctx.log_append(PaxosLogRec::Promised(ballot));
        }
    }

    /// Switches to a newer leader regime: discards regime-scoped state
    /// (per-replica ack watermarks), demotes acceptances from older
    /// ballots to unverified — a repair may have superseded them — and
    /// recomputes the vouch watermark. The caller has already raised the
    /// promise to at least `ballot`.
    fn adopt_regime(&mut self, ballot: Ballot, ctx: &mut dyn Context<Self>) {
        if ballot <= self.regime {
            return;
        }
        self.regime = ballot;
        for slot in self.instances.values_mut() {
            if slot.ballot < ballot {
                slot.verified = false;
            }
        }
        for a in &mut self.acked {
            *a = 0;
        }
        // Regime-freshness evidence (the read lease) must be re-earned
        // under the new ballot.
        for h in &mut self.regime_heard {
            *h = 0;
        }
        self.recompute_vouch();
        // A fresh regime restarts the stall confirmation window: its
        // repair may be about to fill (or re-cut) the hole.
        self.stalled_at = None;
        if let Some(e) = &self.election {
            if ballot >= e.ballot {
                self.election = None;
            }
        }
        let now = ctx.clock();
        self.lease.renew(now);
    }

    /// Renews the lease when `from` is the adopted regime's leader
    /// speaking at its own ballot.
    fn note_leader_alive(&mut self, from: ReplicaId, ballot: Ballot, ctx: &mut dyn Context<Self>) {
        if ballot == self.regime && from == self.regime.proposer {
            let now = ctx.clock();
            self.lease.renew(now);
        }
    }

    /// Recomputes the regime-tagged vouch watermark from scratch: starting
    /// from the committed watermark (decided instances need no local
    /// voucher — the same argument that lets a recovered replica's
    /// cumulative ack jump a committed gap), extend over contiguous
    /// verified slots. Only the five sites that demote, drop or install
    /// slots call this (see `logged_next`): a demotion or a drop may cut
    /// the run below the old watermark, so it cannot be resumed.
    fn recompute_vouch(&mut self) {
        self.logged_next = self.committed_next;
        self.extend_vouch();
    }

    /// Extends the vouch watermark over contiguous verified slots,
    /// resuming at `max(committed_next, logged_next)`. By the invariant
    /// on `logged_next` every instance below that start is already
    /// verified or committed, so this reaches the same watermark as a
    /// walk from `committed_next` in O(advance) lookups instead of one
    /// per in-flight instance — under saturation `logged_next` runs a
    /// whole pipeline ahead of `committed_next`. Debug builds check the
    /// resumed walk against the full one on every call.
    fn extend_vouch(&mut self) {
        let run_end = |mut w: u64| {
            while self.instances.get(&w).is_some_and(|s| s.verified) {
                w += 1;
            }
            w
        };
        let w = run_end(self.committed_next.max(self.logged_next));
        debug_assert_eq!(
            w,
            run_end(self.committed_next),
            "resumed vouch walk disagrees with the full walk"
        );
        self.logged_next = w;
    }

    /// Sends the cumulative phase-2b watermark for the current regime.
    fn send_ack(&mut self, ctx: &mut dyn Context<Self>) {
        let ack = PaxosMsg::Accepted {
            ballot: self.regime,
            up_to: self.logged_next,
        };
        match self.variant {
            PaxosVariant::Plain => ctx.send(self.regime.proposer, ack),
            PaxosVariant::Bcast => {
                for r in self.membership.config().to_vec() {
                    ctx.send(r, ack.clone());
                }
            }
        }
    }

    /// Re-dispatches batches buffered during a candidacy once leadership
    /// is settled (either way).
    fn flush_pending(&mut self, ctx: &mut dyn Context<Self>) {
        if self.election.is_some() || self.pending.is_empty() {
            return;
        }
        for (cmds, origin) in std::mem::take(&mut self.pending) {
            if self.is_leader() {
                self.propose(cmds, origin, ctx);
            } else {
                ctx.send(self.leader_hint(), PaxosMsg::Forward { cmds, origin });
            }
        }
    }

    /// Leader: bind the batch to the next contiguous instance run and
    /// start phase 2 with a single ACCEPT.
    fn propose(&mut self, cmds: Batch, origin: ReplicaId, ctx: &mut dyn Context<Self>) {
        debug_assert!(self.is_leader());
        let first_instance = self.next_instance;
        self.next_instance += cmds.len() as u64;
        // Send to the peers, then log the run locally via a synchronous
        // self-delivery (not a network self-send): a leader that crashed
        // after broadcasting but before a looped-back self-delivery would
        // recover with these instances absent from its log, reset
        // next_instance below them, and re-propose the same numbers with
        // different commands — divergent execution at the followers.
        // Sending to peers first keeps Accept ahead of our own Accepted
        // on every FIFO channel.
        let ballot = self.regime;
        if ctx.obs_active() {
            for cmd in cmds.iter() {
                ctx.trace(cmd.id, TraceStage::Proposed);
            }
        }
        for r in self.membership.config().to_vec() {
            if r != self.id {
                ctx.send(
                    r,
                    PaxosMsg::Accept {
                        ballot,
                        first_instance,
                        cmds: cmds.clone(),
                        origin,
                    },
                );
            }
        }
        self.on_accept(self.id, ballot, first_instance, cmds, origin, ctx);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_accept(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        first_instance: u64,
        cmds: Batch,
        origin: ReplicaId,
        ctx: &mut dyn Context<Self>,
    ) {
        if ballot < self.promised {
            // Stale-ballot fencing: the sender was deposed (or outbid)
            // and must learn it rather than keep proposing into the void.
            ctx.send(
                from,
                PaxosMsg::Nack {
                    promised: self.promised,
                },
            );
            return;
        }
        // Accepting at a ballot implies promising it; an Accept can be
        // the first regime-b message a replica sees (it slept through
        // the repair), in which case it adopts the regime here.
        self.promise_at_least(ballot, ctx);
        self.adopt_regime(ballot, ctx);
        self.note_leader_alive(from, ballot, ctx);
        let last_next = first_instance + cmds.len() as u64;
        if last_next <= self.exec_cursor {
            self.flush_pending(ctx);
            return; // stale: the whole run is already executed
        }
        // One record for the run, sharing the batch's storage; only the
        // rare run reaching below the execution cursor is trimmed (a
        // copy) to the instances still unexecuted.
        let skip = self.exec_cursor.saturating_sub(first_instance) as usize;
        let first = first_instance + skip as u64;
        ctx.log_append(PaxosLogRec::Accept {
            first,
            ballot,
            cmds: cmds.slice(skip..cmds.len()),
            origin,
        });
        for (instance, cmd) in (first..).zip(&cmds.as_slice()[skip..]) {
            self.instances.insert(
                instance,
                Slot {
                    ballot,
                    verified: true,
                    value: Some((cmd.clone(), origin)),
                },
            );
        }
        // Advance the ack watermark only over a gap-free prefix. A gap
        // means accepts were lost while this replica was down (the only
        // loss mode — channels are FIFO); a cumulative ack crossing it
        // would falsely claim the lost instances and break quorum
        // intersection. The commands past the gap are still logged
        // above; this replica just never vouches for the hole — until
        // the hole is known committed: commitment was then established
        // by other replicas' evidence, so covering it cumulatively adds
        // no false quorum weight, and the watermark may jump (this is
        // what lets a recovered replica resume contributing to quorums
        // once the cluster commits past its outage).
        if first_instance <= self.logged_next {
            self.logged_next = self.logged_next.max(last_next);
        } else if self.committed_next >= first_instance {
            self.logged_next = last_next;
        } else {
            // A vouch gap: per-link FIFO means the accepts for
            // [logged_next, first_instance) were lost — either in our
            // own outage or, crucially, while the leader proposed
            // without a live majority (then *no one* can ack across the
            // hole and the uncommitted range would deadlock forever).
            // Ask the leader to retransmit from its slot table.
            self.catch_up_gap(first_instance, ctx);
        }
        // One cumulative ack for the whole batch.
        self.send_ack(ctx);
        // A late accept can fill an instance the commit watermark already
        // covers (its Accepted watermarks outran it via faster relays);
        // execution must resume here because nothing else will retry.
        self.execute_ready(true, ctx);
        self.flush_pending(ctx);
    }

    fn on_accepted(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        up_to: u64,
        ctx: &mut dyn Context<Self>,
    ) {
        if ballot != self.regime {
            // A vouch for another regime's log must never count toward
            // this one's quorums: the sender's prefix may hold values a
            // repair since superseded (older ballot), or values we have
            // not adopted yet (newer ballot — its repair will reach us
            // first on the leader's FIFO channel).
            return;
        }
        self.note_regime_heard(from, ctx);
        let k = from.index();
        if up_to <= self.acked[k] {
            return; // stale or duplicate watermark
        }
        self.acked[k] = up_to;
        self.advance_commit(ctx);
    }

    /// Recomputes the committed watermark from the acknowledgement
    /// watermarks; on advance, notifies (plain leader) and executes.
    /// Stamps [`Replicated`](TraceStage::Replicated) on the commands of
    /// instances `[from, to)`: the commit watermark passing an instance
    /// is exactly the majority-acknowledgement event. Write-only.
    fn obs_stamp_replicated(&self, from: u64, to: u64, ctx: &mut dyn Context<Self>) {
        for (_, slot) in self.instances.range(from..to) {
            if let Some((cmd, _)) = &slot.value {
                ctx.trace(cmd.id, TraceStage::Replicated);
            }
        }
    }

    fn advance_commit(&mut self, ctx: &mut dyn Context<Self>) {
        // The instance watermark a majority has acknowledged.
        let w = self.membership.majority_mark(|r| self.acked[r.index()]);
        if w <= self.committed_next {
            return;
        }
        if ctx.obs_active() {
            self.obs_stamp_replicated(self.committed_next, w, ctx);
        }
        self.committed_next = w;
        self.extend_vouch();
        if self.variant == PaxosVariant::Plain {
            // Only the leader counts 2b in plain Paxos; notify everyone
            // (itself included) with one cumulative COMMIT.
            debug_assert!(self.is_leader());
            for r in self.membership.config().to_vec() {
                ctx.send(
                    r,
                    PaxosMsg::Commit {
                        ballot: self.regime,
                        up_to: w,
                    },
                );
            }
        }
        self.execute_ready(true, ctx);
    }

    fn on_commit(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        up_to: u64,
        ctx: &mut dyn Context<Self>,
    ) {
        // Commitment is final whichever regime announces it: a (possibly
        // since-deposed) leader only announces quorums it really
        // observed, and any later repair preserves committed values. A
        // commit from a *newer* regime additionally proves that regime
        // won its election.
        self.promise_at_least(ballot, ctx);
        self.adopt_regime(ballot, ctx);
        self.note_leader_alive(from, ballot, ctx);
        if ballot < self.promised {
            ctx.send(
                from,
                PaxosMsg::Nack {
                    promised: self.promised,
                },
            );
        }
        if up_to <= self.committed_next {
            self.flush_pending(ctx);
            return; // stale or duplicate notification
        }
        if ctx.obs_active() {
            self.obs_stamp_replicated(self.committed_next, up_to, ctx);
        }
        self.committed_next = up_to;
        self.extend_vouch();
        self.execute_ready(true, ctx);
        self.flush_pending(ctx);
    }

    fn on_heartbeat(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        committed: u64,
        ctx: &mut dyn Context<Self>,
    ) {
        // A heartbeat only ever comes from an elected leader, so a newer
        // ballot is adopted directly; a stale one draws the Nack that
        // tells a deposed leader to step down. Its commit watermark is
        // honoured either way (commitment is final).
        self.on_commit(from, ballot, committed, ctx);
        // Ack the heartbeat with our cumulative vouch watermark
        // (idempotent — stale watermarks dedup at the receiver). This
        // is the idle-regime feed of the leader's *read* lease: sending
        // it implies we just processed current-regime leader traffic,
        // i.e. our own suspicion clock reset at send time — exactly the
        // property the lease evidence must certify (see the read-path
        // section). Without it an idle leader earns no evidence and
        // every read falls back to a quorum probe.
        if self.lease_cfg.enabled() && ballot == self.regime && from == self.regime.proposer {
            ctx.send(
                from,
                PaxosMsg::Accepted {
                    ballot: self.regime,
                    up_to: self.logged_next,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Election: phase 1 over the log suffix
    // ------------------------------------------------------------------

    /// Starts a pre-vote probe ([`LeaseConfig::pre_vote`]): asks every
    /// replica whether it would promise `max_round_seen + 1` right now,
    /// without making that round durable, promising it locally, or
    /// sending a single real `Prepare`. Only a majority of grants
    /// escalates to [`start_election`](Self::start_election) — so a
    /// replica whose lease expired spuriously (isolated behind a
    /// partition, or fed a runaway clock) burns no ballots and deposes
    /// nobody: a majority still hearing the leader answers its probes
    /// with silence.
    fn start_prevote(&mut self, now: Micros, ctx: &mut dyn Context<Self>) {
        ctx.obs_count(names::PREVOTES, 1);
        let ballot = Ballot {
            round: self.max_round_seen + 1,
            proposer: self.id,
        };
        self.prevote = Some(PreVoteRound {
            ballot,
            started_at: now,
            grants: Vec::new(),
        });
        // Broadcast including self: our own would-promise test (the
        // stickiness gate over our own lease) flows through the same
        // path as everyone else's, exactly like the real election's
        // self-addressed Prepare.
        for r in self.membership.config().to_vec() {
            ctx.send(r, PaxosMsg::PreVote { ballot });
        }
    }

    /// Answers a pre-vote probe with the same tests a real `Prepare`
    /// faces — but **mutates nothing**: no `max_round_seen` bump, no
    /// promise, no lease renewal, no election abandonment. A probe is a
    /// question, not an event.
    fn on_prevote(&mut self, from: ReplicaId, ballot: Ballot, ctx: &mut dyn Context<Self>) {
        if ballot < self.promised {
            // The Nack teaches a lagging prober the round to beat —
            // without it a candidate behind on `max_round_seen` would
            // probe the same dead round forever (the real election
            // learns this through the same reply).
            ctx.send(
                from,
                PaxosMsg::Nack {
                    promised: self.promised,
                },
            );
            return;
        }
        // Leader stickiness, verbatim from `on_prepare`: while our own
        // lease on the current regime is fresh, we would refuse the real
        // Prepare — so we refuse the probe the same way (silently).
        if ballot > self.regime
            && self.lease_cfg.enabled()
            && !self.lease.expired(ctx.clock(), self.lease_cfg.timeout_us)
        {
            return;
        }
        ctx.send(from, PaxosMsg::PreVoteGrant { ballot });
    }

    /// Collects pre-vote grants; a majority licenses the real election.
    fn on_prevote_grant(&mut self, from: ReplicaId, ballot: Ballot, ctx: &mut dyn Context<Self>) {
        let majority = self.majority();
        let Some(pv) = &mut self.prevote else {
            return; // probe already escalated, abandoned, or superseded
        };
        if ballot != pv.ballot || pv.grants.contains(&from) {
            return;
        }
        pv.grants.push(from);
        if pv.grants.len() >= majority {
            self.prevote = None;
            // A majority just told us they would promise: the leader is
            // silent for a full timeout at each of them. Run the real
            // election (which re-derives its ballot from the freshest
            // `max_round_seen`, possibly above the probed round).
            self.start_election(ctx.clock(), ctx);
        }
    }

    fn start_election(&mut self, now: Micros, ctx: &mut dyn Context<Self>) {
        ctx.obs_count(names::ELECTIONS_STARTED, 1);
        self.prevote = None;
        self.max_round_seen += 1;
        let ballot = Ballot {
            round: self.max_round_seen,
            proposer: self.id,
        };
        // Make the candidacy round durable *before* the ballot leaves
        // this replica (the same crash window propose() closes with its
        // synchronous self-delivery): recovering from a crash mid-
        // candidacy must never reuse a ballot that peers may already
        // have promised — a second, differently-merged campaign at the
        // same ballot could count stale first-campaign promises.
        self.promise_at_least(ballot, ctx);
        self.election = Some(Election {
            ballot,
            started_at: now,
            promises: Vec::new(),
        });
        let from_instance = self.committed_next;
        // Broadcast including self: our own acceptor state (promise and
        // suffix report) flows through the same path as everyone else's.
        for r in self.membership.config().to_vec() {
            ctx.send(
                r,
                PaxosMsg::Prepare {
                    ballot,
                    from_instance,
                },
            );
        }
    }

    fn on_prepare(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        from_instance: u64,
        ctx: &mut dyn Context<Self>,
    ) {
        self.max_round_seen = self.max_round_seen.max(ballot.round);
        if ballot < self.promised {
            ctx.send(
                from,
                PaxosMsg::Nack {
                    promised: self.promised,
                },
            );
            return;
        }
        // Leader stickiness: while this acceptor's own lease on the
        // current regime is fresh — it heard the leader within the base
        // suspicion timeout — it refuses to promise a new ballot (the
        // candidate retries once leases genuinely expire). This is what
        // makes the leader's *read* lease sound: a new regime then
        // requires a majority of grantors each silent from the leader
        // for a full timeout, which (intersected with the leader's
        // fresh-evidence majority) bounds how soon after the leader's
        // last confirmation a new regime can commit anything. Without
        // it, one isolated replica whose lease expired could depose a
        // healthy leader instantly through promise grants from
        // followers that still hear it, and a leader-local read could
        // race the new regime's first commit. The gate applies to the
        // candidate's own self-addressed Prepare too — its vote must
        // carry the same silence guarantee as anyone else's, since the
        // soundness argument quantifies over every promise-quorum
        // member. Writes never needed this (ballots fence them); only
        // the read fast path does. Liveness is preserved: after a real
        // leader crash every follower's lease expires before the first
        // (staggered) candidacy starts, and candidates re-try past
        // transient refusals.
        if ballot > self.regime
            && self.lease_cfg.enabled()
            && !self.lease.expired(ctx.clock(), self.lease_cfg.timeout_us)
        {
            return;
        }
        self.promise_at_least(ballot, ctx);
        // Granting a promise renews the lease: give the candidate its
        // election window before suspecting the (dead) leader ourselves.
        let now = ctx.clock();
        self.lease.renew(now);
        if let Some(e) = &self.election {
            if ballot > e.ballot {
                self.election = None; // outbid: defer to the higher candidacy
            }
        }
        if let Some(pv) = &self.prevote {
            if ballot > pv.ballot {
                self.prevote = None; // a real candidacy trumps our probe
            }
        }
        let entries: Vec<SuffixEntry> = self
            .instances
            .range(from_instance..)
            .map(|(&instance, slot)| SuffixEntry {
                instance,
                ballot: slot.ballot,
                value: slot.value.clone(),
            })
            .collect();
        ctx.send(
            from,
            PaxosMsg::Promise {
                ballot,
                from_instance,
                committed: self.committed_next,
                entries,
            },
        );
    }

    fn on_promise(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        committed: u64,
        entries: Vec<SuffixEntry>,
        ctx: &mut dyn Context<Self>,
    ) {
        let Some(e) = &mut self.election else {
            return; // candidacy already won, lost, or abandoned
        };
        if ballot != e.ballot || e.promises.iter().any(|(r, _, _)| *r == from) {
            return;
        }
        e.promises.push((from, committed, entries));
        if e.promises.len() >= self.membership.majority() {
            self.win(ctx);
        }
    }

    /// A majority promised: merge the reported suffixes and repair.
    fn win(&mut self, ctx: &mut dyn Context<Self>) {
        ctx.obs_count(names::ELECTIONS_WON, 1);
        let e = self.election.take().expect("win() called mid-election");
        let ballot = e.ballot;
        // The repair floor: the highest committed watermark across the
        // promise quorum (and ourselves). Everything below it is final
        // and carries no repair — an instance executed somewhere can no
        // longer be reported from that replica's slot table, but it also
        // cannot need re-proposing.
        let floor = e
            .promises
            .iter()
            .map(|(_, c, _)| *c)
            .max()
            .unwrap_or(0)
            .max(self.committed_next);
        // Per instance at or above the floor, adopt the highest-ballot
        // reported acceptance (the classic phase-1 value rule, per
        // instance). Instances nobody reported are proven unchosen —
        // every accept quorum intersects this promise quorum — and are
        // closed with no-ops.
        let mut merged: BTreeMap<u64, (Ballot, Option<(Command, ReplicaId)>)> = BTreeMap::new();
        for (_, _, entries) in &e.promises {
            for entry in entries {
                if entry.instance < floor {
                    continue;
                }
                match merged.get(&entry.instance) {
                    Some((b, _)) if *b >= entry.ballot => {}
                    _ => {
                        merged.insert(entry.instance, (entry.ballot, entry.value.clone()));
                    }
                }
            }
        }
        let top = merged.keys().next_back().map_or(floor, |m| m + 1);
        let entries: Vec<SuffixEntry> = (floor..top)
            .map(|instance| SuffixEntry {
                instance,
                ballot,
                value: merged.remove(&instance).and_then(|(_, v)| v),
            })
            .collect();
        // The data plane resumes above everything merged or repaired.
        self.next_instance = self.next_instance.max(top);
        // Leader-local reads must wait out the inherited suffix: writes
        // in it may have committed (and replied) under an older regime
        // while our committed watermark still sits below them.
        self.repair_top = self.repair_top.max(top);
        // Peers first, then the synchronous self-delivery, exactly like
        // propose(): the repair must be durable locally before any ack
        // for it can exist, and Repair stays ahead of our subsequent
        // Accepts on every FIFO channel.
        for r in self.membership.config().to_vec() {
            if r != self.id {
                ctx.send(
                    r,
                    PaxosMsg::Repair {
                        ballot,
                        floor,
                        entries: entries.clone(),
                    },
                );
            }
        }
        self.on_repair(self.id, ballot, floor, entries, ctx);
        self.flush_pending(ctx);
    }

    fn on_repair(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        floor: u64,
        entries: Vec<SuffixEntry>,
        ctx: &mut dyn Context<Self>,
    ) {
        if ballot < self.promised {
            ctx.send(
                from,
                PaxosMsg::Nack {
                    promised: self.promised,
                },
            );
            return;
        }
        self.promise_at_least(ballot, ctx);
        self.adopt_regime(ballot, ctx);
        self.note_leader_alive(from, ballot, ctx);
        // The floor is a committed watermark observed by the new leader;
        // adopting it may expose local holes, which the catch-up path
        // fills like any other committed hole.
        self.committed_next = self.committed_next.max(floor);
        let top = floor + entries.len() as u64;
        self.accept_entries(ballot, entries, ctx);
        // Acceptances above the repaired range are proven-uncommitted
        // leftovers of older regimes (anything committed would have been
        // merged); the new leader re-assigns those instances to fresh
        // commands, so drop them rather than let them shadow the
        // reassignments in promise reports.
        self.instances.split_off(&top);
        self.recompute_vouch();
        self.send_ack(ctx);
        self.execute_ready(true, ctx);
        self.flush_pending(ctx);
    }

    /// Accepts a set of explicitly-instanced entries (a repair or
    /// catch-up runs) at `ballot`: each is logged durably and installed as a
    /// verified slot; entries already executed are skipped.
    fn accept_entries(
        &mut self,
        ballot: Ballot,
        entries: Vec<SuffixEntry>,
        ctx: &mut dyn Context<Self>,
    ) {
        for entry in entries {
            if entry.instance < self.exec_cursor {
                continue;
            }
            let slot = Slot {
                ballot,
                verified: true,
                value: entry.value,
            };
            ctx.log_append(Self::slot_rec(entry.instance, &slot));
            self.instances.insert(entry.instance, slot);
        }
    }

    /// The durable log record re-asserting `slot` at `instance`.
    fn slot_rec(instance: u64, slot: &Slot) -> PaxosLogRec {
        match &slot.value {
            Some((cmd, origin)) => PaxosLogRec::Accept {
                first: instance,
                ballot: slot.ballot,
                cmds: Batch::single(cmd.clone()),
                origin: *origin,
            },
            None => PaxosLogRec::Noop {
                instance,
                ballot: slot.ballot,
            },
        }
    }

    /// Asks the regime leader to retransmit the accepts for the vouch gap
    /// `[logged_next, gap_end)`; the executor holds back a repeat while
    /// one is in flight, so pipelined traffic over a persistent gap does
    /// not storm duplicate requests.
    fn catch_up_gap(&mut self, gap_end: u64, ctx: &mut dyn Context<Self>) {
        let req = CatchUp {
            from: self.logged_next,
            below: gap_end,
        };
        let (leader, config) = (self.regime.proposer, self.membership.config());
        self.exec
            .request_catch_up(Some(leader), req, config, ctx, PaxosMsg::CatchUp);
    }

    /// Answers a catch-up through the shared rule: the unfenced regime
    /// leader serves the runs still pending in its slot table from its
    /// execution cursor up; below it — and at every other replica, whose
    /// pending values a repair it has not seen may supersede — a
    /// snapshot of the executed prefix. The answer carries our promise,
    /// so an installer cannot regress below a regime the cluster already
    /// fenced.
    fn on_catch_up(&mut self, from: ReplicaId, req: CatchUp<u64>, ctx: &mut dyn Context<Self>) {
        let held = self.is_leader().then_some(self.exec_cursor);
        let (regime, instances) = (self.regime, &self.instances);
        let pending = |_: &mut dyn Context<Self>| CatchUpReply::Runs {
            from: req.from,
            below: req.below,
            runs: instances
                .range(req.from..req.below.max(req.from))
                .map(|(&instance, slot)| SuffixEntry {
                    instance,
                    ballot: regime,
                    value: slot.value.clone(),
                })
                .collect(),
        };
        let (cursor, config) = (self.exec_cursor, self.membership.config());
        let answer =
            self.exec
                .answer_catch_up(req.from, held, cursor, Epoch::ZERO, config, ctx, pending);
        if let Some(reply) = answer {
            let promised = self.promised;
            ctx.send(from, PaxosMsg::CatchUpReply { promised, reply });
        }
    }

    /// A leader retransmission: plain re-acceptance of the carried
    /// instances at the regime ballot — no floor, nothing dropped.
    fn on_runs(
        &mut self,
        from: ReplicaId,
        ballot: Ballot,
        entries: Vec<SuffixEntry>,
        ctx: &mut dyn Context<Self>,
    ) {
        if ballot < self.promised {
            ctx.send(
                from,
                PaxosMsg::Nack {
                    promised: self.promised,
                },
            );
            return;
        }
        self.promise_at_least(ballot, ctx);
        self.adopt_regime(ballot, ctx);
        self.note_leader_alive(from, ballot, ctx);
        self.accept_entries(ballot, entries, ctx);
        self.recompute_vouch();
        self.send_ack(ctx);
        self.execute_ready(true, ctx);
        self.flush_pending(ctx);
    }

    fn on_nack(&mut self, promised: Ballot, ctx: &mut dyn Context<Self>) {
        let was_leader = self.is_leader();
        self.promise_at_least(promised, ctx);
        if let Some(e) = &self.election {
            if promised > e.ballot {
                // Outbid: stop collecting; the retry timer re-runs at a
                // higher round if the winner never materializes.
                self.election = None;
            }
        }
        if let Some(pv) = &self.prevote {
            if promised > pv.ballot {
                // The probed round is already dead; the retry re-probes
                // above the `max_round_seen` this Nack just taught us.
                self.prevote = None;
            }
        }
        if was_leader && !self.is_leader() {
            // Deposed: grant the new regime a full lease before electing.
            let now = ctx.clock();
            self.lease.renew(now);
        }
        self.flush_pending(ctx);
    }

    /// The lease/election tick: leaders heartbeat, followers suspect,
    /// candidates retry at a higher round.
    fn lease_tick(&mut self, ctx: &mut dyn Context<Self>) {
        if !self.lease_cfg.enabled() {
            return;
        }
        // Re-arm first so a panic-free return always keeps the timer alive.
        ctx.set_timer(self.lease_cfg.heartbeat_us(), TOKEN_LEASE);
        let now = ctx.clock();
        if self.is_leader() {
            for r in self.membership.config().to_vec() {
                if r != self.id {
                    ctx.send(
                        r,
                        PaxosMsg::Heartbeat {
                            ballot: self.regime,
                            committed: self.committed_next,
                        },
                    );
                }
            }
        } else if let Some(e) = &self.election {
            if now.saturating_sub(e.started_at) > self.lease_cfg.election_retry_us() {
                self.start_election(now, ctx);
            }
        } else if let Some(pv) = &self.prevote {
            if !self
                .lease
                .expired(now, self.lease_cfg.stagger_us(self.id.index()))
            {
                // The regime proved itself alive while we probed (fresh
                // traffic renewed our lease): stand down without having
                // disturbed anyone — the entire point of pre-voting.
                self.prevote = None;
            } else if now.saturating_sub(pv.started_at) > self.lease_cfg.election_retry_us() {
                // Probe inconclusive (grants lost, or a majority still
                // shields a leader we cannot hear): re-probe, picking up
                // any higher round Nacks taught us meanwhile.
                self.start_prevote(now, ctx);
            }
        } else if self
            .lease
            .expired(now, self.lease_cfg.stagger_us(self.id.index()))
        {
            if self.lease_cfg.pre_vote {
                self.start_prevote(now, ctx);
            } else {
                self.start_election(now, ctx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Local reads (`rsm_core::read`): leader lease + quorum fallback
    // ------------------------------------------------------------------
    //
    // ## The leader fast path and its timing assumption
    //
    // A lease-holding leader serves reads from its committed prefix
    // without any message exchange. That is linearizable only while no
    // newer regime can have committed a write elsewhere, which three
    // mechanisms establish together:
    //
    // 1. **Evidence implies leader contact.** The leader counts replica
    //    `k` as lease evidence only on messages whose *send* implies
    //    `k` had just processed current-regime leader traffic — and
    //    therefore renewed its own suspicion clock at send time. An
    //    `Accepted` at our ballot qualifies (it leaves inside the same
    //    callback that handled our `Accept`/`Repair`/runs, or acks
    //    our heartbeat); a `ReadMark` does not (any replica answers
    //    probes, however long since it heard us) and is never counted.
    // 2. **Leader stickiness.** An acceptor refuses to promise a
    //    higher ballot while its own lease is fresh (see `on_prepare`),
    //    so a new regime requires a majority of grantors *each* silent
    //    from the leader for a full `timeout_us` — one isolated
    //    replica cannot depose a healthy leader through grants from
    //    followers that still hear it.
    // 3. **Quorum intersection.** The leader trusts its regime while a
    //    majority's evidence is younger than `timeout_us / 2`; any new
    //    regime's promise quorum shares a member `k` with that
    //    evidence majority. `k`'s evidence-send renewed its lease at
    //    real time `s`, so `k` granted no promise — and the new regime
    //    committed nothing — before `s + timeout`; the leader stopped
    //    serving by receipt(`s`) + `timeout/2`.
    //
    // The residual assumption, and **the one place in the workspace
    // where a timing bound is load-bearing for safety**: the one-way
    // transit of the lease evidence plus the relative clock drift over
    // a lease window must stay under `timeout_us / 2` (an evidence
    // message delayed longer arrives pre-expired but is trusted as
    // fresh). The blast radius is deliberately confined: ballot fencing
    // nacks a deposed leader's writes outright, so the worst a violated
    // bound can produce is a stale read served inside a single lease
    // window — never divergent replicas, never a lost or reordered
    // write. With fail-over disabled there are no elections, the
    // assumption is vacuous, and the fixed leader's fast path is
    // unconditionally safe.
    //
    // ## The clock-free fallback (everyone else)
    //
    // A follower — or a leader whose lease is uncertain — *nacks* the
    // local fast path and forwards the read onto the quorum-mark
    // fallback: probe every replica for its read mark (commit watermark
    // raised to the top of its accepted log), park the read at the
    // maximum over a majority of answers, and serve it once the local
    // execution cursor passes the mark. A write that completed before
    // the probe was logged by a majority, which intersects the answering
    // majority, so some mark covers it; no clock appears anywhere in the
    // argument.

    /// Whether the leader may serve reads locally right now: a majority
    /// of the configuration (counting itself) confirmed its regime
    /// within half the suspicion timeout. Trivially true with fail-over
    /// disabled (a fixed leader can never be deposed).
    fn read_lease_valid(&self, now: Micros) -> bool {
        if !self.lease_cfg.enabled() {
            return true;
        }
        let window = self.lease_cfg.timeout_us / 2;
        let fresh = self
            .membership
            .config()
            .iter()
            .filter(|k| {
                // Zero is the "never heard under this regime" sentinel —
                // evidence must be earned, even right after startup.
                let h = self.regime_heard[k.index()];
                k.index() == self.id.index() || (h > 0 && now.saturating_sub(h) <= window)
            })
            .count();
        fresh >= self.majority()
    }

    /// Records regime-freshness evidence from `from` (a message at our
    /// current ballot).
    fn note_regime_heard(&mut self, from: ReplicaId, ctx: &mut dyn Context<Self>) {
        let now = ctx.clock().max(1);
        let h = &mut self.regime_heard[from.index()];
        *h = (*h).max(now);
    }

    /// This replica's read mark: an exclusive upper bound on every
    /// instance it has ever logged — the commit watermark raised to the
    /// top of the accepted slot table. Reported to probes and used as a
    /// probe's own seed. Using the log top (not just the commit
    /// watermark) is what keeps marks sound across fail-overs: a write
    /// committed under a deposed regime stays in the slot table through
    /// the repair even while commit watermarks lag behind it.
    fn local_read_mark(&self) -> u64 {
        self.instances
            .keys()
            .next_back()
            .map_or(self.committed_next, |&top| top + 1)
            .max(self.committed_next)
    }

    /// Answers a peer's probe with our read mark (any replica answers —
    /// no leader involvement, no ballot gate).
    fn on_read_probe(&mut self, from: ReplicaId, seq: u64, ctx: &mut dyn Context<Self>) {
        let mark = self.local_read_mark();
        ctx.send(from, PaxosMsg::ReadMark(ReadReply { seq, mark }));
    }

    // ------------------------------------------------------------------
    // Execution, checkpoints, and catch-up
    // ------------------------------------------------------------------

    /// Executes committed instances in consecutive order. `log_marks` is
    /// false only during recovery replay, whose commit marks are already
    /// in the log.
    fn execute_ready(&mut self, log_marks: bool, ctx: &mut dyn Context<Self>) {
        while self.exec_cursor < self.committed_next {
            let executable = match self.instances.get(&self.exec_cursor) {
                // A slot is only executed once trusted: live acceptances
                // and replayed commit-marked entries always are; entries
                // rebuilt from the log after a crash are not until the
                // current regime re-validates them (see Slot::verified).
                Some(slot) => slot.verified || slot.ballot == self.regime,
                None => false,
            };
            if !executable {
                // Command not yet known (or not yet trusted): either it
                // is still in flight, or its ACCEPT was lost — or
                // superseded — while this replica was down. Ask a peer
                // (paced; a no-op when the run is merely in flight,
                // because peers answer with watermarks above ours and
                // installs below ours are ignored).
                self.catch_up_hole(ctx);
                break;
            }
            let slot = self
                .instances
                .remove(&self.exec_cursor)
                .expect("checked above");
            let instance = self.exec_cursor;
            self.exec_cursor += 1;
            if log_marks {
                ctx.log_append(PaxosLogRec::Commit { instance });
            }
            if let Some((cmd, origin)) = slot.value {
                self.exec.execute(cmd, origin, instance, ctx);
            }
        }
        if log_marks {
            self.maybe_checkpoint(ctx);
            // The execution cursor may have passed parked read marks.
            self.release_reads(ctx);
        }
    }

    /// Checkpoints when the policy says one is due: the executor
    /// compacts the stable log to the checkpoint and [`live_records`],
    /// bounding it by the interval plus the replication pipeline depth.
    fn maybe_checkpoint(&mut self, ctx: &mut dyn Context<Self>) {
        let (at, config) = (self.exec_cursor, self.membership.config());
        let live = live_records(self.promised, &self.instances, at);
        self.exec
            .checkpoint_if_due(at, Epoch::ZERO, config, ctx, live);
    }

    /// Asks the next peer of the rotation for what it holds from our
    /// execution cursor once the hole there has persisted for
    /// [`TRANSFER_RETRY_US`] (see `rsm_core::checkpoint` for the
    /// transfer invariants). The path is traffic-driven, like Mencius
    /// catch-up: every `execute_ready` pass that still faces the hole
    /// re-checks the clock, so confirmation and retries ride on ordinary
    /// replication traffic.
    fn catch_up_hole(&mut self, ctx: &mut dyn Context<Self>) {
        let now = ctx.clock();
        match self.stalled_at {
            Some((c, since)) if c == self.exec_cursor => {
                if now.saturating_sub(since) < TRANSFER_RETRY_US {
                    return; // not yet confirmed
                }
            }
            _ => {
                // A new hole: start the confirmation window. In-flight
                // accepts arrive well within it and execution moves on.
                self.stalled_at = Some((self.exec_cursor, now));
                return;
            }
        }
        let req = CatchUp {
            from: self.exec_cursor,
            below: self.committed_next,
        };
        let config = self.membership.config();
        self.exec
            .request_catch_up(None, req, config, ctx, PaxosMsg::CatchUp);
    }

    /// Installs a peer's snapshot: everything below its watermark
    /// is globally decided (the sender executed it), so the state machine
    /// jumps there, the log is compacted to it, and the cumulative ack
    /// watermark resumes from the installed prefix (covering a decided
    /// prefix adds no false quorum weight).
    fn on_snapshot(
        &mut self,
        cp: Checkpoint<u64>,
        server_promised: Ballot,
        ctx: &mut dyn Context<Self>,
    ) {
        // Adopt the server's promise before anything durable happens:
        // the compacted log written below re-pins it.
        self.promise_at_least(server_promised, ctx);
        let applied = cp.applied;
        let live = live_records(self.promised, &self.instances, applied);
        if applied <= self.exec_cursor || !self.exec.install_caught_up(cp, ctx, live) {
            return; // stale or duplicate, or not a snapshot of our state machine
        }
        self.stalled_at = None;
        self.instances = self.instances.split_off(&applied);
        self.exec_cursor = applied;
        self.committed_next = self.committed_next.max(applied);
        self.next_instance = self.next_instance.max(applied);
        // Resume quorum duty immediately instead of waiting for the next
        // accept to carry the re-extended watermark — but only while our
        // own lease on the regime is fresh: this ack is triggered by a
        // *peer's* checkpoint, not by leader traffic, so sending it from
        // an expired-lease replica would hand the leader read-lease
        // evidence that implies leader contact which never happened (see
        // the read-path section; evidence must certify the sender's own
        // renewal). When suppressed, the watermark re-extension rides
        // the next accept or heartbeat ack instead.
        let before = self.logged_next;
        self.recompute_vouch();
        let lease_fresh = !self.lease_cfg.enabled()
            || !self.lease.expired(ctx.clock(), self.lease_cfg.timeout_us);
        if self.logged_next > before && lease_fresh {
            self.send_ack(ctx);
        }
        self.execute_ready(true, ctx);
    }
}

/// The clock-free quorum-mark read front: probe the peers for their
/// read marks, park at the maximum over a majority (counting our own),
/// serve once execution passes it.
impl ReadFront for MultiPaxos {
    type Mark = u64;
    type Probe = u64;

    fn executor(&mut self) -> &mut Executor<u64> {
        &mut self.exec
    }

    fn send_probe(&mut self, seq: u64, ctx: &mut dyn Context<Self>) -> u64 {
        for r in self.membership.config().to_vec() {
            if r != self.id {
                ctx.send(r, PaxosMsg::ReadProbe(ReadRequest { seq }));
            }
        }
        self.local_read_mark()
    }

    fn probe_quorum(&self) -> usize {
        // Our own mark is the seed: a majority counting ourselves.
        self.majority() - 1
    }

    fn park_mark(&self, mark: &u64, _cmd: &Command) -> u64 {
        *mark
    }

    fn read_cursor(&self) -> Option<u64> {
        Some(self.exec_cursor)
    }
}

impl Protocol for MultiPaxos {
    type Msg = PaxosMsg;
    type LogRec = PaxosLogRec;

    fn id(&self) -> ReplicaId {
        self.id
    }

    fn on_start(&mut self, ctx: &mut dyn Context<Self>) {
        if self.lease_cfg.enabled() {
            let now = ctx.clock();
            self.lease = Lease::new(now);
            ctx.set_timer(self.lease_cfg.heartbeat_us(), TOKEN_LEASE);
        }
    }

    fn on_client_read(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        let now = ctx.clock();
        if self.is_leader() && self.read_lease_valid(now) {
            // Leader fast path, fenced by ballot + lease (see the
            // read-path section docs for the bounded-skew assumption).
            // The read index depends on where commitment is *observed*:
            // in plain Paxos only the leader counts 2b, so every
            // client-visible write sits below its commit watermark
            // (raised to the repaired suffix top after a fail-over). In
            // bcast Paxos a follower can observe a majority — and reply
            // to its client — before the leader's own watermark
            // advances, so the leader must wait out everything it has
            // proposed: its log top bounds every instance that can be
            // committed anywhere, because (under the lease) it proposed
            // them all.
            let mark = match self.variant {
                PaxosVariant::Plain => self.committed_next.max(self.repair_top),
                PaxosVariant::Bcast => self.local_read_mark(),
            };
            self.exec.park_read(mark, cmd);
            self.release_reads(ctx);
        } else {
            // Nack the local fast path and forward the read onto the
            // clock-free quorum-mark fallback (followers, candidates,
            // and a leader whose lease is uncertain all land here).
            self.start_read(cmd, ctx);
        }
    }

    fn read_path(&self) -> ReadPath {
        ReadPath::LeaderLease
    }

    fn obs_poll(&mut self, ctx: &mut dyn Context<Self>) {
        // The adopted regime's round: flat while a leader is stable,
        // stepping on every fail-over (ballot churn is the cost signal
        // for elections).
        ctx.obs_gauge(names::BALLOT, self.regime.round as i64);
    }

    fn lease_holder_hint(&self) -> Option<ReplicaId> {
        // The believed leader serves reads from its lease without a
        // quorum probe; clients routing there pay one WAN hop instead of
        // a probe round trip from their local follower. Mid-fencing the
        // hint follows the newer promise's candidate, same as write
        // forwarding (`leader_hint`).
        Some(self.leader_hint())
    }

    fn on_client_batch(&mut self, batch: Batch, ctx: &mut dyn Context<Self>) {
        let origin = self.id;
        if self.is_leader() {
            self.propose(batch, origin, ctx);
        } else if self.election.is_some() {
            // Mid-candidacy there is nowhere useful to send the batch;
            // hold it until leadership settles.
            self.pending.push((batch, origin));
        } else {
            ctx.send(
                self.leader_hint(),
                PaxosMsg::Forward {
                    cmds: batch,
                    origin,
                },
            );
        }
    }

    fn on_message(&mut self, from: ReplicaId, msg: PaxosMsg, ctx: &mut dyn Context<Self>) {
        match msg {
            PaxosMsg::Forward { cmds, origin } => {
                if self.is_leader() {
                    self.propose(cmds, origin, ctx);
                } else if self.election.is_some() {
                    self.pending.push((cmds, origin));
                } else if self.leader_hint() != from {
                    // Mis-addressed (the sender's leader view is stale):
                    // relay toward the leader we believe in.
                    ctx.send(self.leader_hint(), PaxosMsg::Forward { cmds, origin });
                }
            }
            PaxosMsg::Accept {
                ballot,
                first_instance,
                cmds,
                origin,
            } => self.on_accept(from, ballot, first_instance, cmds, origin, ctx),
            PaxosMsg::Accepted { ballot, up_to } => {
                // In plain Paxos only the leader receives and counts 2b.
                if self.variant == PaxosVariant::Bcast || self.is_leader() {
                    self.on_accepted(from, ballot, up_to, ctx);
                }
            }
            PaxosMsg::Commit { ballot, up_to } => self.on_commit(from, ballot, up_to, ctx),
            PaxosMsg::Heartbeat { ballot, committed } => {
                self.on_heartbeat(from, ballot, committed, ctx)
            }
            PaxosMsg::Prepare {
                ballot,
                from_instance,
            } => self.on_prepare(from, ballot, from_instance, ctx),
            PaxosMsg::Promise {
                ballot,
                from_instance: _,
                committed,
                entries,
            } => self.on_promise(from, ballot, committed, entries, ctx),
            PaxosMsg::Nack { promised } => self.on_nack(promised, ctx),
            PaxosMsg::PreVote { ballot } => self.on_prevote(from, ballot, ctx),
            PaxosMsg::PreVoteGrant { ballot } => self.on_prevote_grant(from, ballot, ctx),
            PaxosMsg::CatchUp(req) => self.on_catch_up(from, req, ctx),
            PaxosMsg::CatchUpReply { promised, reply } => match reply {
                CatchUpReply::Runs { runs, .. } => self.on_runs(from, promised, runs, ctx),
                CatchUpReply::Snapshot(cp) => self.on_snapshot(cp, promised, ctx),
            },
            PaxosMsg::Repair {
                ballot,
                floor,
                entries,
            } => self.on_repair(from, ballot, floor, entries, ctx),
            PaxosMsg::ReadProbe(req) => self.on_read_probe(from, req.seq, ctx),
            // Deliberately **not** lease evidence: a probe answer does
            // not imply the responder recently heard the leader (see
            // [`PaxosMsg::ReadMark`]).
            PaxosMsg::ReadMark(ReadReply { seq, mark }) => {
                self.probe_answered(from, seq, |m| *m = (*m).max(mark), ctx)
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Self>) {
        if token == TOKEN_LEASE {
            self.lease_tick(ctx);
        } else if token == PROBE_FLUSH_TOKEN {
            // Escape hatch: the gating probes have had their window.
            self.flush_read_probes(ctx);
        }
    }

    fn on_recover(&mut self, log: &[PaxosLogRec], ctx: &mut dyn Context<Self>) {
        // Checkpoint fast path (Section V-B, shared subsystem): restore
        // the checkpoint at the log's head and start every cursor at its
        // watermark instead of replaying from instance zero.
        let base = self.exec.recover(log, ctx).map_or(0, |cp| cp.applied);
        self.exec_cursor = base;
        self.committed_next = base;
        // Rebuild accepted instances, the promise, the regime, and the
        // commit marks above the base, then re-execute the contiguous
        // committed prefix.
        let mut committed = std::collections::BTreeSet::new();
        let mut promised = self.promised;
        let mut regime = self.regime;
        // A run's slots, or a no-op's one, in log order: a later record
        // for an instance wins.
        let mut replay = |first: u64, ballot: Ballot, values: Vec<Option<(Command, ReplicaId)>>| {
            regime = regime.max(ballot);
            for (instance, value) in (first..).zip(values).filter(|&(i, _)| i >= base) {
                let slot = Slot {
                    ballot,
                    verified: false,
                    value,
                };
                self.instances.insert(instance, slot);
            }
        };
        for rec in log {
            match rec {
                PaxosLogRec::Accept {
                    first,
                    ballot,
                    cmds,
                    origin,
                } => replay(
                    *first,
                    *ballot,
                    cmds.iter().map(|c| Some((c.clone(), *origin))).collect(),
                ),
                PaxosLogRec::Noop { instance, ballot } => replay(*instance, *ballot, vec![None]),
                PaxosLogRec::Promised(b) => promised = promised.max(*b),
                PaxosLogRec::Commit { instance } if *instance >= base => {
                    committed.insert(*instance);
                }
                PaxosLogRec::Commit { .. } | PaxosLogRec::Checkpoint(_) => {}
            }
        }
        // The highest ballot we ever accepted at is a regime whose
        // election we witnessed; the promise never sits below it.
        self.regime = regime;
        self.promised = promised.max(regime);
        self.max_round_seen = self.max_round_seen.max(self.promised.round);
        // Trust decisions for the rebuilt slots: our own commit marks
        // attest pre-crash executions (their values are the committed
        // ones by induction), so those replay verbatim. Everything else
        // is suspect when fail-over is on — an election this replica
        // slept through may have superseded it — and must be
        // re-validated by current-regime traffic or a checkpoint
        // install before execution or vouching. With fail-over off
        // there is a single immutable regime and every logged value is
        // the leader's unique value for its instance.
        let failover = self.lease_cfg.enabled();
        for (instance, slot) in &mut self.instances {
            slot.verified = !failover || committed.contains(instance);
        }
        while committed.contains(&self.committed_next) {
            self.committed_next += 1;
        }
        // The ack watermark restarts at the log's verified gap-free
        // prefix — a crash between non-contiguous accepts must not let
        // the cumulative ack claim the hole. Everything below the
        // checkpoint watermark is globally decided, so starting there is
        // sound.
        self.recompute_vouch();
        // Never reuse instance numbers at or below anything logged or
        // checkpointed (relevant only if this replica is the leader).
        self.next_instance = self
            .instances
            .keys()
            .max()
            .map_or(0, |m| m + 1)
            .max(self.next_instance)
            .max(base);
        self.execute_ready(false, ctx);
    }
}

#[cfg(test)]
mod tests;
