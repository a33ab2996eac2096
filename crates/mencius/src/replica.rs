//! The Mencius-bcast replica state machine.
//!
//! The data plane is fully batched: a coordinator proposes a whole client
//! [`Batch`] across its next own slots with one `PROPOSE`, and replicas
//! answer with one cumulative `ACCEPTACK` watermark per batch instead of
//! one ack per slot. Per-slot ack counters collapse into a small
//! per-(acker, owner) watermark matrix.

use std::collections::BTreeMap;

use rsm_core::batch::Batch;
use rsm_core::checkpoint::{log_head, CatchUp, CatchUpReply, Checkpoint, CheckpointPolicy};
use rsm_core::command::Command;
use rsm_core::config::{Epoch, Membership};
use rsm_core::exec::{Executor, ReadFront};
use rsm_core::id::ReplicaId;
use rsm_core::obs::{names, TraceStage};
use rsm_core::protocol::{Context, Protocol, TimerToken};
use rsm_core::read::{ReadPath, ReadReply, ReadRequest, PROBE_FLUSH_TOKEN};
use rsm_core::session::DEFAULT_SESSION_WINDOW;

use crate::msg::MenciusMsg;

/// Stable log record of Mencius-bcast.
#[derive(Debug, Clone)]
pub enum MenciusLogRec {
    /// A logged (accepted) run of proposals: command `i` in the owner's
    /// `i`-th own slot from `first`, i.e. slot `first + i·N`. A
    /// replicated batch is one record; a fetched proposal or compaction
    /// entry is a one-command run. Replay applies the runs in log order.
    Accept {
        /// Slot of the run's first command.
        first: u64,
        /// The commands.
        cmds: Batch,
        /// Originating replica (the slots' owner).
        origin: ReplicaId,
    },
    /// A commit mark: the slot's command was executed.
    Commit {
        /// Slot number.
        slot: u64,
    },
    /// A skip mark: the slot resolved to a no-op.
    Skip {
        /// Slot number.
        slot: u64,
    },
    /// A state machine checkpoint (shared subsystem,
    /// `rsm_core::checkpoint`) — the slot watermark, epoch/config and
    /// snapshot: the snapshot reflects every slot **below** the
    /// (exclusive) applied watermark. Every checkpoint compacts, so the
    /// log leads with it, and this replica's own proposals below its
    /// watermark are no longer in the log: a catch-up from below it gets
    /// a snapshot.
    Checkpoint(Checkpoint<u64>),
}

rsm_core::checkpoint_record!(MenciusLogRec, u64);

/// The records a compaction keeps above a checkpoint at `applied`: the
/// unresolved slots from `applied` up. Own proposals below the watermark
/// leave the log with the rest: a peer still missing one is answered with
/// a snapshot instead (see [`MenciusBcast::on_catch_up`]).
fn live_records(
    slots: &BTreeMap<u64, (Command, ReplicaId)>,
    applied: u64,
) -> impl Iterator<Item = MenciusLogRec> + '_ {
    slots
        .range(applied..)
        .map(|(&first, (cmd, origin))| MenciusLogRec::Accept {
            first,
            cmds: Batch::single(cmd.clone()),
            origin: *origin,
        })
}

/// The largest slot of owner `o` below `p` in a group of `n`:
/// `p - 1 - ((p - 1 - o) mod n)` when `p > o`, none otherwise.
fn last_slot_below(o: u64, p: u64, n: u64) -> Option<u64> {
    (p > o).then(|| p - 1 - ((p - 1 - o) % n))
}

/// A Mencius replica with the broadcast-acknowledgement optimization.
///
/// Slot `s` is owned by replica `s mod N`; replicas propose only in their
/// own slots and *skip* (promise never to use) their unused slots below any
/// slot they acknowledge. See the crate docs for the protocol sketch and
/// latency behaviour.
#[derive(Debug)]
pub struct MenciusBcast {
    id: ReplicaId,
    membership: Membership,
    n: u64,
    /// The smallest own slot this replica may still propose in.
    next_own_slot: u64,
    /// Per-replica skip promise: replica `k` will never issue a *new*
    /// proposal in a `k`-owned slot below `floor[k]`.
    floor: Vec<u64>,
    /// Pending proposals by slot.
    slots: BTreeMap<u64, (Command, ReplicaId)>,
    /// Cumulative acknowledgement watermarks: `acked_below[k][o]` means
    /// replica `k` has logged **every** slot owned by `o` below that
    /// value. Slot `c` (owner `o`) is acknowledged by `k` iff
    /// `acked_below[k][o] > c`. One cumulative ack per batch replaces
    /// per-slot counters.
    acked_below: Vec<Vec<u64>>,
    /// Whether this replica has received every proposal owner `o` ever
    /// made (true while continuously up: owners propose their slots in
    /// increasing order over FIFO channels, so nothing can be missed).
    /// Cleared for the other owners by a crash — proposals in flight to
    /// a down replica are lost — after which this replica stops issuing
    /// cumulative acks for them and skips none of their slots. Own
    /// proposals are logged synchronously, so the own entry is always
    /// true. Restored per owner by one catch-up from the execution
    /// cursor (see [`Self::resync`]): the owner's runs carry every
    /// proposal it made from there up to its frontier, its next own
    /// slot, and FIFO delivers every later proposal after them.
    recv_synced: Vec<bool>,
    /// Next slot to execute or skip; all smaller slots are resolved.
    exec_cursor: u64,
    /// The shared execution pipeline (`rsm_core::exec`): session dedup
    /// window, checkpoint trigger, catch-up answer rule and pacing, and
    /// the read front, whose probes accumulate per-owner bounds and park
    /// their reads on the slot mark those bounds fold into, until
    /// `exec_cursor` passes it.
    exec: Executor<u64, ProbeMarks>,
}

/// The requester-side per-owner bounds accumulated for one read probe.
///
/// Soundness of the two kinds of entry (see [`MenciusMsg::ReadMark`]):
/// an owner's answer about its **own** slot space is its execution
/// cursor, which covers every own write it completed before answering —
/// tight, because it excludes the owner's in-flight proposals. For an
/// owner that never answers, the element-wise maximum of the responders'
/// logged-top bounds covers its completed writes by quorum intersection
/// (committed ⇒ logged by a majority ⇒ logged by some responder).
#[derive(Debug)]
pub struct ProbeMarks {
    /// Owner `o`'s bound for its own slots, when `o` answered the probe
    /// (seeded for self at probe start).
    own: Vec<Option<u64>>,
    /// Element-wise maximum over every answer's mark vector (seeded with
    /// the requester's own vector): the fallback bound for owners that
    /// never answered.
    all: Vec<u64>,
}

impl ProbeMarks {
    /// Folds the per-owner bounds into the single slot coordinate a read
    /// parks on: the smallest cursor position at which every bound is
    /// honored. Owner `o` with (exclusive) bound `p` constrains its
    /// slots up to [`last_slot_below`]`(o, p)`; execution is total-order
    /// by slot, so waiting for the maximum of those slots waits for all.
    fn park_mark(&self, n: u64) -> u64 {
        let mut needed = 0u64;
        for o in 0..n {
            let p = self.own[o as usize].unwrap_or(self.all[o as usize]);
            if let Some(last) = last_slot_below(o, p, n) {
                needed = needed.max(last + 1);
            }
        }
        needed
    }
}

impl MenciusBcast {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the membership spec.
    pub fn new(id: ReplicaId, membership: Membership) -> Self {
        assert!(membership.in_spec(id), "replica {id} not in spec");
        let n = membership.spec().len() as u64;
        let floor = (0..n).collect();
        MenciusBcast {
            id,
            n,
            next_own_slot: id.index() as u64,
            floor,
            slots: BTreeMap::new(),
            acked_below: vec![vec![0; n as usize]; n as usize],
            recv_synced: vec![true; n as usize],
            exec_cursor: 0,
            exec: Executor::new(id, CheckpointPolicy::DISABLED, DEFAULT_SESSION_WINDOW),
            membership,
        }
    }

    /// Enables periodic checkpoints, each compacting the log, for this
    /// replica.
    pub fn with_checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.exec.set_checkpoint_policy(policy);
        self
    }

    /// The owner (round-robin coordinator) of `slot`.
    pub fn owner_of_slot(&self, slot: u64) -> ReplicaId {
        ReplicaId::new((slot % self.n) as u16)
    }

    /// The smallest slot owned by this replica that is strictly greater
    /// than `s`.
    fn own_slot_after(&self, s: u64) -> u64 {
        let me = self.id.index() as u64;
        let base = (s + 1).max(me);
        // Round base up to ≡ me (mod n).
        let rem = (base + self.n - me % self.n) % self.n;
        let candidate = if rem == 0 { base } else { base + self.n - rem };
        debug_assert!(candidate % self.n == me && candidate > s);
        candidate
    }

    fn broadcast(&self, msg: MenciusMsg, ctx: &mut dyn Context<Self>) {
        for r in self.membership.config().to_vec() {
            ctx.send(r, msg.clone());
        }
    }

    /// Handles a batch proposal filling the owner's consecutive own slots
    /// `first_slot, first_slot + n, …`; acknowledges the whole run with
    /// one cumulative ack.
    fn on_propose(
        &mut self,
        first_slot: u64,
        cmds: Batch,
        origin: ReplicaId,
        ctx: &mut dyn Context<Self>,
    ) {
        let last_slot = first_slot + (cmds.len() as u64 - 1) * self.n;
        // One record for the run, sharing the batch's storage; only the
        // rare run reaching below the execution cursor is trimmed (a
        // copy) to its slots still unresolved.
        let skip = self.exec_cursor.saturating_sub(first_slot).div_ceil(self.n) as usize;
        let first = first_slot + skip as u64 * self.n;
        let live = cmds.as_slice().get(skip..).unwrap_or_default();
        if !live.is_empty() {
            ctx.log_append(MenciusLogRec::Accept {
                first,
                cmds: cmds.slice(skip..cmds.len()),
                origin,
            });
        }
        for (slot, cmd) in (first..).step_by(self.n as usize).zip(live) {
            self.slots.insert(slot, (cmd.clone(), origin));
        }
        // The owner will not propose below its next own slot again.
        let owner = self.owner_of_slot(first_slot);
        self.floor[owner.index()] = self.floor[owner.index()].max(last_slot + self.n);
        // Acknowledging the run implicitly skips our own unused slots
        // below its last slot.
        if self.next_own_slot <= last_slot {
            self.next_own_slot = self.own_slot_after(last_slot);
        }
        self.floor[self.id.index()] = self.floor[self.id.index()].max(self.next_own_slot);
        // The cumulative watermark is only truthful while we provably
        // received every proposal this owner ever made (FIFO + up the
        // whole time). After a crash we may have missed some, so vouch
        // for our own slots instead — trivially complete in our log —
        // which still carries the skip promise everyone needs for
        // liveness of the gap slots, until a catch-up resyncs us.
        let up_to_slot = if self.recv_synced[owner.index()] {
            last_slot
        } else {
            self.own_ack_mark()
        };
        self.broadcast(
            MenciusMsg::AcceptAck {
                up_to_slot,
                skip_below: self.next_own_slot,
            },
            ctx,
        );
        self.try_execute(ctx);
        if !self.recv_synced[owner.index()] {
            self.resync(owner, ctx);
        }
    }

    /// The highest own slot this replica could have proposed — own
    /// proposals are logged synchronously, so claiming cumulative
    /// coverage of them is always sound. Used as the ack watermark when
    /// coverage of another owner cannot be claimed. Never proposed: our
    /// first own slot, which holds no command from anyone else, so the
    /// claim is vacuous but well-formed.
    fn own_ack_mark(&self) -> u64 {
        let me = self.id.index() as u64;
        last_slot_below(me, self.next_own_slot, self.n).unwrap_or(me)
    }

    fn on_accept_ack(
        &mut self,
        from: ReplicaId,
        up_to_slot: u64,
        skip_below: u64,
        ctx: &mut dyn Context<Self>,
    ) {
        self.floor[from.index()] = self.floor[from.index()].max(skip_below);
        let owner = self.owner_of_slot(up_to_slot).index();
        let below = up_to_slot + 1;
        if self.acked_below[from.index()][owner] < below {
            self.acked_below[from.index()][owner] = below;
        }
        self.try_execute(ctx);
    }

    /// Resolves slots in order: execute a slot once it has a command and a
    /// majority of acknowledgements; skip it once its owner's promise
    /// covers it; otherwise stop and wait (the delayed-commit behaviour).
    fn try_execute(&mut self, ctx: &mut dyn Context<Self>) {
        loop {
            let c = self.exec_cursor;
            let o = self.owner_of_slot(c).index();
            if self.slots.contains_key(&c) {
                // Acknowledged by a majority, off the cumulative
                // watermark matrix?
                let acked = |k: ReplicaId| self.acked_below[k.index()][o];
                if self.membership.majority_mark(acked) <= c {
                    break;
                }
                let (cmd, origin) = self.slots.remove(&c).expect("checked above");
                if ctx.obs_active() && origin == self.id {
                    // Resolution requires the majority ack — the commit
                    // event is the replication event in Mencius. Stamped
                    // from the owner's vantage only: that is where the
                    // round trip gates the client's commit (a peer can
                    // resolve the slot a one-way hop earlier).
                    ctx.trace(cmd.id, TraceStage::Replicated);
                }
                ctx.log_append(MenciusLogRec::Commit { slot: c });
                self.exec_cursor = c + 1;
                self.exec.execute(cmd, origin, c, ctx);
                continue;
            }
            // The owner promised never to fill this slot with a NEW
            // proposal, and we provably hold every proposal it ever made
            // here (continuous FIFO receipt): the slot is a no-op. After
            // a crash, one may have been in flight and lost while we were
            // down — skipping could omit a globally committed command —
            // so wait for the resync below.
            if self.floor[o] <= c || !self.recv_synced[o] {
                break;
            }
            ctx.obs_count(names::SKIPS, 1);
            ctx.log_append(MenciusLogRec::Skip { slot: c });
            self.exec_cursor = c + 1;
        }
        let owner = self.owner_of_slot(self.exec_cursor);
        if !self.recv_synced[owner.index()] {
            self.resync(owner, ctx);
        }
        self.maybe_checkpoint(ctx);
        // The resolution cursor may have passed parked read marks.
        self.release_reads(ctx);
    }

    // ------------------------------------------------------------------
    // Local reads (`rsm_core::read`): per-owner watermarks
    // ------------------------------------------------------------------
    //
    // Mencius has no leader to lease, so every read takes the clock-free
    // quorum path: probe the replicas for their read marks, park the
    // read, and serve it once the local resolution cursor passes the
    // park point. What makes the Mencius path fast is *which* marks the
    // answers carry. A scalar logged-top mark (what Paxos followers use)
    // forces the read to wait out every slot any responder has ever
    // logged — including the responders' own **in-flight** proposals,
    // which commit a full WAN round later. That made the read-mix p50
    // identical to the write p50.
    //
    // Per-owner marks break that tie. Each answer carries one bound per
    // owner ([`MenciusMsg::ReadMark`]):
    //
    // * the responder's bound for its **own** slot space is its
    //   execution cursor — an owner replies to its client only after
    //   executing the write, so every *completed* own write is strictly
    //   below it, while its in-flight proposals (logged, uncommitted,
    //   not yet visible to any client) are above it and stop gating the
    //   read;
    // * its bound for every **other** owner is the logged-top fallback,
    //   needed only for owners that never answer: a completed write of
    //   such an owner was logged by a majority, which intersects the
    //   responders, so the element-wise maximum covers it.
    //
    // The fold back to the one slot coordinate a read parks on is exact
    // because execution is total-order by slot: waiting for owner `o`'s
    // slots below bound `p` means waiting for the largest `o`-owned slot
    // below `p`, so the park point is the maximum of those largest
    // slots, plus one (`ProbeMarks::park_mark`). Latency is one
    // local quorum round trip plus the resolution of slots below the
    // *completed-write* frontier — not below the in-flight frontier.

    /// This replica's scalar read mark: an exclusive upper bound on
    /// every slot it has ever logged, across all owners (carried in
    /// [`ReadReply::mark`] as the conservative fallback).
    fn local_read_mark(&self) -> u64 {
        self.slots
            .keys()
            .next_back()
            .map_or(self.exec_cursor, |&top| top + 1)
            .max(self.exec_cursor)
    }

    /// This replica's per-owner mark vector: entry `o` bounds the slots
    /// of owner `o` a completed write could occupy — the execution
    /// cursor for our own slot space (in-flight own proposals excluded),
    /// raised past every *other* owner's slot in the pending table.
    fn owner_marks(&self) -> Vec<u64> {
        let mut marks = vec![self.exec_cursor; self.n as usize];
        for &slot in self.slots.keys() {
            let o = (slot % self.n) as usize;
            if o != self.id.index() {
                marks[o] = marks[o].max(slot + 1);
            }
        }
        marks
    }

    /// Answers a peer's probe with our read marks.
    fn on_read_probe(&mut self, from: ReplicaId, seq: u64, ctx: &mut dyn Context<Self>) {
        let mark = self.local_read_mark();
        ctx.send(
            from,
            MenciusMsg::ReadMark {
                reply: ReadReply { seq, mark },
                owner_marks: self.owner_marks(),
            },
        );
    }

    /// Folds a probe answer into the probe's per-owner bounds.
    fn on_read_mark(
        &mut self,
        from: ReplicaId,
        reply: ReadReply,
        owner_marks: Vec<u64>,
        ctx: &mut dyn Context<Self>,
    ) {
        let n = self.n as usize;
        let fold = |marks: &mut ProbeMarks| {
            if owner_marks.len() == n {
                for (a, &m) in marks.all.iter_mut().zip(&owner_marks) {
                    *a = (*a).max(m);
                }
                let fi = from.index();
                marks.own[fi] = Some(marks.own[fi].unwrap_or(0).max(owner_marks[fi]));
            } else {
                // Malformed vector (wrong configuration size): fold the
                // scalar mark into every entry — it bounds every owner's
                // logged slots at the responder, so the quorum-
                // intersection fallback stays sound.
                for a in marks.all.iter_mut() {
                    *a = (*a).max(reply.mark);
                }
            }
        };
        self.probe_answered(from, reply.seq, fold, ctx);
    }

    /// Checkpoints when the policy says one is due: the executor
    /// compacts the stable log to the checkpoint and [`live_records`].
    fn maybe_checkpoint(&mut self, ctx: &mut dyn Context<Self>) {
        let (at, config) = (self.exec_cursor, self.membership.config());
        let live = live_records(&self.slots, at);
        self.exec
            .checkpoint_if_due(at, Epoch::ZERO, config, ctx, live);
    }

    /// Asks `owner`, while we are out of sync with it, for every proposal
    /// it made from our execution cursor on (the shared catch-up
    /// exchange). Called whenever a proposal of the owner's arrives or
    /// its slot blocks execution; the executor holds back a repeat from the same
    /// cursor while one is in flight, and retries one lost to the owner's
    /// downtime once the retry window passed.
    fn resync(&mut self, owner: ReplicaId, ctx: &mut dyn Context<Self>) {
        let req = CatchUp {
            from: self.exec_cursor,
            below: u64::MAX,
        };
        let config = self.membership.config();
        self.exec
            .request_catch_up(Some(owner), req, config, ctx, MenciusMsg::CatchUp);
    }

    /// Owner side: the shared answer rule over our stable log. Own
    /// proposals are logged synchronously, so the log holds every one
    /// ever made from the checkpoint at its head (slot 0 for a log that
    /// never checkpointed) — a request from there gets those runs, up to
    /// our frontier; one from below gets a snapshot of our resolved
    /// prefix. The frontier is our next own slot: every proposal we make
    /// after answering lies at or above it and reaches the requester
    /// after the runs (FIFO), which is what lets the runs resync it. A
    /// malformed request may ask for less, or invert the range; the runs
    /// then cover only what it asked.
    fn on_catch_up(&mut self, from: ReplicaId, req: CatchUp<u64>, ctx: &mut dyn Context<Self>) {
        let held = log_head(ctx.stable_log()).map_or(0, |cp| cp.applied);
        let below = req.below.min(self.next_own_slot);
        let (me, n) = (self.id, self.n as usize);
        let own_runs = |ctx: &mut dyn Context<Self>| {
            let mut runs = Vec::new();
            for rec in ctx.stable_log() {
                if let MenciusLogRec::Accept {
                    first,
                    cmds,
                    origin,
                } = rec
                {
                    if *origin == me {
                        let slots = (*first..).step_by(n).zip(cmds);
                        let wanted = slots.filter(|(s, _)| (req.from..below).contains(s));
                        runs.extend(wanted.map(|(s, c)| (s, c.clone())));
                    }
                }
            }
            // Own runs are logged in slot order, and compaction keeps it.
            debug_assert!(runs.windows(2).all(|w| w[0].0 < w[1].0));
            CatchUpReply::Runs {
                from: req.from,
                below,
                runs,
            }
        };
        let config = self.membership.config();
        let cursor = self.exec_cursor;
        let answer = self.exec.answer_catch_up(
            req.from,
            Some(held),
            cursor,
            Epoch::ZERO,
            config,
            ctx,
            own_runs,
        );
        if let Some(reply) = answer {
            ctx.send(from, MenciusMsg::CatchUpReply(reply));
        }
    }

    /// Installs an owner's snapshot: every slot below its watermark
    /// resolved at the sender exactly as the cluster decided (commit or
    /// skip), so the state machine jumps there and resolution resumes
    /// from the watermark. Our own slots below it were all either
    /// proposed by us or covered by a skip promise we made, so
    /// `next_own_slot` already clears them — the `max` is a defensive
    /// restatement of that invariant.
    fn on_snapshot(&mut self, cp: Checkpoint<u64>, ctx: &mut dyn Context<Self>) {
        let (applied, live) = (cp.applied, live_records(&self.slots, cp.applied));
        if applied <= self.exec_cursor || !self.exec.install_caught_up(cp, ctx, live) {
            return; // stale or duplicate, or not a snapshot of our state machine
        }
        self.slots = self.slots.split_off(&applied);
        self.exec_cursor = applied;
        self.next_own_slot = self.next_own_slot.max(self.own_slot_after(applied - 1));
        self.floor[self.id.index()] = self.floor[self.id.index()].max(self.next_own_slot);
        self.try_execute(ctx);
    }

    /// Requester side of the owner's runs: log and register the
    /// retransmitted proposals. Runs reaching back to our cursor hold
    /// every proposal the owner made from there to its frontier `below`,
    /// and FIFO brings the rest after them, so they resync us with the
    /// owner: skips of its slots and cumulative acks for them are
    /// truthful again. The restored coverage is announced at once, up to
    /// the owner's last slot below `below` — peers may be blocked waiting
    /// for exactly that ack, with no proposal left to carry it.
    fn on_runs(
        &mut self,
        from: ReplicaId,
        from_slot: u64,
        below: u64,
        cmds: Vec<(u64, Command)>,
        ctx: &mut dyn Context<Self>,
    ) {
        for (slot, cmd) in cmds {
            debug_assert_eq!(self.owner_of_slot(slot), from);
            if slot < self.exec_cursor || self.slots.contains_key(&slot) {
                continue;
            }
            ctx.log_append(MenciusLogRec::Accept {
                first: slot,
                cmds: Batch::single(cmd.clone()),
                origin: from,
            });
            self.slots.insert(slot, (cmd, from));
        }
        let o = from.index();
        if !self.recv_synced[o] && from_slot <= self.exec_cursor {
            self.recv_synced[o] = true;
            ctx.obs_count(names::RESYNCS, 1);
            if let Some(up_to_slot) = last_slot_below(o as u64, below, self.n) {
                let skip_below = self.next_own_slot;
                self.broadcast(
                    MenciusMsg::AcceptAck {
                        up_to_slot,
                        skip_below,
                    },
                    ctx,
                );
            }
        }
        self.try_execute(ctx);
    }
}

/// The per-owner quorum-mark read front: probe the peers for their
/// owner marks, fold a majority's answers (counting our own) into one
/// slot mark, serve once the resolution cursor passes it.
impl ReadFront for MenciusBcast {
    type Mark = u64;
    type Probe = ProbeMarks;

    fn executor(&mut self) -> &mut Executor<u64, ProbeMarks> {
        &mut self.exec
    }

    fn send_probe(&mut self, seq: u64, ctx: &mut dyn Context<Self>) -> ProbeMarks {
        for r in self.membership.config().to_vec() {
            if r != self.id {
                ctx.send(r, MenciusMsg::ReadProbe(ReadRequest { seq }));
            }
        }
        let mut marks = ProbeMarks {
            own: vec![None; self.n as usize],
            all: self.owner_marks(),
        };
        marks.own[self.id.index()] = Some(self.exec_cursor);
        marks
    }

    fn probe_quorum(&self) -> usize {
        // Our own marks are the seed: a majority counting ourselves.
        self.membership.majority() - 1
    }

    fn park_mark(&self, marks: &ProbeMarks, _cmd: &Command) -> u64 {
        marks.park_mark(self.n)
    }

    fn read_cursor(&self) -> Option<u64> {
        Some(self.exec_cursor)
    }
}

impl Protocol for MenciusBcast {
    type Msg = MenciusMsg;
    type LogRec = MenciusLogRec;

    fn id(&self) -> ReplicaId {
        self.id
    }

    fn on_start(&mut self, _ctx: &mut dyn Context<Self>) {}

    fn on_client_read(&mut self, cmd: Command, ctx: &mut dyn Context<Self>) {
        self.start_read(cmd, ctx);
    }

    fn read_path(&self) -> ReadPath {
        ReadPath::CommitWatermark
    }

    fn on_client_batch(&mut self, batch: Batch, ctx: &mut dyn Context<Self>) {
        let first_slot = self.next_own_slot;
        debug_assert_eq!(self.owner_of_slot(first_slot), self.id);
        self.next_own_slot = first_slot + batch.len() as u64 * self.n;
        if ctx.obs_active() {
            for cmd in batch.iter() {
                ctx.trace(cmd.id, TraceStage::Proposed);
            }
        }
        // Send to the peers, then register the proposal locally *before*
        // anything else can advance our own skip floor past it: if a
        // peer's proposal raced ahead of our self-delivery, the skip
        // check could otherwise resolve our own in-flight slots to no-ops
        // while everyone else executes them.
        for r in self.membership.config().to_vec() {
            if r != self.id {
                ctx.send(
                    r,
                    MenciusMsg::Propose {
                        first_slot,
                        cmds: batch.clone(),
                        origin: self.id,
                    },
                );
            }
        }
        self.on_propose(first_slot, batch, self.id, ctx);
    }

    fn on_message(&mut self, from: ReplicaId, msg: MenciusMsg, ctx: &mut dyn Context<Self>) {
        match msg {
            MenciusMsg::Propose {
                first_slot,
                cmds,
                origin,
            } => self.on_propose(first_slot, cmds, origin, ctx),
            MenciusMsg::AcceptAck {
                up_to_slot,
                skip_below,
            } => self.on_accept_ack(from, up_to_slot, skip_below, ctx),
            MenciusMsg::CatchUp(req) => self.on_catch_up(from, req, ctx),
            MenciusMsg::CatchUpReply(CatchUpReply::Runs {
                from: f,
                below,
                runs,
            }) => self.on_runs(from, f, below, runs, ctx),
            MenciusMsg::CatchUpReply(CatchUpReply::Snapshot(cp)) => self.on_snapshot(cp, ctx),
            MenciusMsg::ReadProbe(req) => self.on_read_probe(from, req.seq, ctx),
            MenciusMsg::ReadMark { reply, owner_marks } => {
                self.on_read_mark(from, reply, owner_marks, ctx)
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut dyn Context<Self>) {
        if token == PROBE_FLUSH_TOKEN {
            self.flush_read_probes(ctx);
        }
    }

    fn on_recover(&mut self, log: &[MenciusLogRec], ctx: &mut dyn Context<Self>) {
        // Proposals in flight while we were down are gone (no
        // retransmission), so cumulative ack coverage of the other
        // owners cannot be claimed until a catch-up resyncs each of
        // them — only our own slots stay vouchable (see `recv_synced`).
        let me = self.id.index();
        for (o, synced) in self.recv_synced.iter_mut().enumerate() {
            *synced = o == me;
        }
        // Checkpoint fast path (shared subsystem): restore the checkpoint
        // at the log's head and resume resolution at its watermark
        // instead of replaying from slot zero.
        let base = self.exec.recover(log, ctx).map_or(0, |cp| cp.applied);
        self.exec_cursor = base;
        // Rebuild the slot table above the base, then re-execute the
        // resolved suffix in slot order exactly as before the crash.
        let mut resolved: BTreeMap<u64, Option<(Command, ReplicaId)>> = BTreeMap::new();
        for rec in log {
            match rec {
                MenciusLogRec::Accept {
                    first,
                    cmds,
                    origin,
                } => {
                    let slots = (*first..).step_by(self.n as usize);
                    for (slot, cmd) in slots.zip(cmds) {
                        if slot >= base {
                            self.slots.insert(slot, (cmd.clone(), *origin));
                        }
                    }
                }
                MenciusLogRec::Commit { slot } if *slot >= base => {
                    let cmd = self
                        .slots
                        .get(slot)
                        .cloned()
                        .expect("commit mark must follow its accept record");
                    resolved.insert(*slot, Some(cmd));
                }
                MenciusLogRec::Skip { slot } if *slot >= base => {
                    resolved.insert(*slot, None);
                }
                MenciusLogRec::Commit { .. }
                | MenciusLogRec::Skip { .. }
                | MenciusLogRec::Checkpoint { .. } => {}
            }
        }
        while let Some(entry) = resolved.remove(&self.exec_cursor) {
            let c = self.exec_cursor;
            self.exec_cursor += 1;
            self.slots.remove(&c);
            if let Some((cmd, origin)) = entry {
                self.exec.execute(cmd, origin, c, ctx);
            }
        }
        // Never reuse own slots: continue at the smallest own slot that
        // is ≥ the replayed cursor position and strictly above every
        // slot the log showed — an uncommitted Accept still counts as
        // "seen", since peers may have logged or committed it, and
        // re-proposing its slot with a different command would fork the
        // log. Own proposals are logged synchronously, so an empty floor
        // proves nothing was ever proposed and the replica may start
        // from its first own slot again.
        let mut floor = self.next_own_slot.max(self.exec_cursor);
        if let Some(m) = self.slots.keys().max() {
            floor = floor.max(m + 1);
        }
        self.next_own_slot = if floor == 0 {
            self.id.index() as u64
        } else {
            self.own_slot_after(floor - 1)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use proptest::prelude::*;
    use rsm_core::command::CommandId;
    use rsm_core::id::ClientId;
    use rsm_core::node::{ApplyOnly, Script};
    use rsm_core::read::ReadRequest;

    fn cmd(seq: u64) -> Command {
        Command::new(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
            Bytes::from_static(b"op"),
        )
    }

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    /// Single-command propose at replica `i`, the shape most tests drive
    /// by hand.
    fn propose(s: &mut Script<MenciusBcast>, i: usize, slot: u64, c: Command, origin: ReplicaId) {
        s.on(i, |m, ctx| {
            m.on_propose(slot, Batch::single(c), origin, ctx)
        });
    }

    /// Single-slot ack with a skip promise (cumulative watermark = slot)
    /// at replica `i`.
    fn ack(s: &mut Script<MenciusBcast>, i: usize, from: ReplicaId, slot: u64, skip: u64) {
        s.on(i, |m, ctx| m.on_accept_ack(from, slot, skip, ctx));
    }

    /// A catch-up request for `[from, below)`.
    fn catch_up(from: u64, below: u64) -> MenciusMsg {
        MenciusMsg::CatchUp(CatchUp { from, below })
    }

    /// Catch-up runs confirming `[from, below)` with `cmds` in it.
    fn runs(from: u64, below: u64, cmds: Vec<(u64, Command)>) -> MenciusMsg {
        MenciusMsg::CatchUpReply(CatchUpReply::Runs {
            from,
            below,
            runs: cmds,
        })
    }

    #[test]
    fn own_slot_progression() {
        let m = MenciusBcast::new(r(1), Membership::uniform(3));
        assert_eq!(m.own_slot_after(0), 1);
        assert_eq!(m.own_slot_after(1), 4);
        assert_eq!(m.own_slot_after(2), 4);
        assert_eq!(m.own_slot_after(5), 7);
        let m0 = MenciusBcast::new(r(0), Membership::uniform(3));
        assert_eq!(m0.own_slot_after(0), 3);
        assert_eq!(m0.own_slot_after(2), 3);
    }

    #[test]
    fn propose_fanout_shares_the_batch_payload_across_peers() {
        // Allocation-lean fan-out: the per-peer PROPOSE clones share one
        // Arc-backed command vector with the submitted batch instead of
        // deep-copying it per destination.
        let mut s = Script::new(vec![MenciusBcast::new(r(1), Membership::uniform(3))]);
        let batch = Batch::new((1..=64).map(cmd).collect());
        s.on(0, |m, ctx| m.on_client_batch(batch.clone(), ctx));
        let proposes: Vec<&Batch> = s[0]
            .sent
            .iter()
            .filter_map(|(_, msg)| match msg {
                MenciusMsg::Propose { cmds, .. } => Some(cmds),
                _ => None,
            })
            .collect();
        assert_eq!(proposes.len(), 2, "one PROPOSE per peer");
        for sent in &proposes {
            assert!(
                sent.ptr_eq(&batch),
                "a peer copy deep-cloned the command payload"
            );
        }
    }

    #[test]
    fn proposer_uses_own_slots_in_order() {
        let mut s = Script::new(vec![MenciusBcast::new(r(1), Membership::uniform(3))]);
        s.on(0, |m, ctx| m.on_client_batch(Batch::single(cmd(1)), ctx));
        s.on(0, |m, ctx| m.on_client_batch(Batch::single(cmd(2)), ctx));
        let slots: Vec<u64> = s[0]
            .sent
            .iter()
            .filter_map(|(_, msg)| match msg {
                MenciusMsg::Propose { first_slot, .. } => Some(*first_slot),
                _ => None,
            })
            .collect();
        // Both peers (the proposer handles its own copy inline) get both
        // proposals in own-slot order: 1,1 then 4,4.
        assert_eq!(slots, vec![1, 1, 4, 4]);
        // The local registration also acknowledged both slots.
        let acks = s[0]
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, MenciusMsg::AcceptAck { .. }))
            .count();
        assert_eq!(acks, 6, "one ack broadcast (3 dests) per own proposal");
    }

    #[test]
    fn batched_proposal_strides_own_slots_with_one_message() {
        let mut s = Script::new(vec![MenciusBcast::new(r(1), Membership::uniform(3))]);
        s.on(0, |m, ctx| {
            m.on_client_batch(Batch::new(vec![cmd(1), cmd(2), cmd(3)]), ctx)
        });
        let proposes: Vec<(u64, usize)> = s[0]
            .sent
            .iter()
            .filter_map(|(_, msg)| match msg {
                MenciusMsg::Propose {
                    first_slot, cmds, ..
                } => Some((*first_slot, cmds.len())),
                _ => None,
            })
            .collect();
        // One batch message per peer (2 peers; own copy handled inline).
        assert_eq!(proposes, vec![(1, 3), (1, 3)]);
        // The batch occupies own slots 1, 4, 7; the local registration
        // logged them as one run and acked once with the last slot's
        // watermark.
        assert_eq!(s.nodes[0].log.len(), 1);
        let acks: Vec<(u64, u64)> = s[0]
            .sent
            .iter()
            .filter_map(|(_, msg)| match msg {
                MenciusMsg::AcceptAck {
                    up_to_slot,
                    skip_below,
                } => Some((*up_to_slot, *skip_below)),
                _ => None,
            })
            .collect();
        assert_eq!(acks.len(), 3, "ONE cumulative ack broadcast, not 3");
        assert!(acks.iter().all(|&(u, s)| u == 7 && s == 10));
        assert_eq!(s.nodes[0].proto.next_own_slot, 10);
    }

    #[test]
    fn ack_carries_skip_promise_and_advances_own_slot() {
        let mut s = Script::new(vec![MenciusBcast::new(r(2), Membership::uniform(3))]);
        // r0 proposes slot 3 (its second slot); r2 must skip its slot 2.
        propose(&mut s, 0, 3, cmd(1), r(0));
        let (_, ack) = s[0]
            .sent
            .iter()
            .find(|(_, msg)| matches!(msg, MenciusMsg::AcceptAck { .. }))
            .unwrap();
        match ack {
            MenciusMsg::AcceptAck {
                up_to_slot,
                skip_below,
            } => {
                assert_eq!(*up_to_slot, 3);
                assert_eq!(*skip_below, 5, "next own slot of r2 after 3 is 5");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn slot_zero_commits_with_majority_and_no_predecessors() {
        let mut s = Script::new(vec![MenciusBcast::new(r(0), Membership::uniform(3))]);
        propose(&mut s, 0, 0, cmd(1), r(0));
        ack(&mut s, 0, r(0), 0, 3);
        assert!(s[0].executed.is_empty());
        ack(&mut s, 0, r(1), 0, 1);
        assert_eq!(s[0].executed.len(), 1);
        assert_eq!(s[0].executed[0].order_hint, 0);
    }

    #[test]
    fn later_slot_waits_for_skip_promises_from_all_owners() {
        // Imbalanced workload shape: only r0 proposes; its second command
        // sits in slot 3 and needs r1's and r2's promises covering slots
        // 1 and 2.
        let mut s = Script::new(vec![MenciusBcast::new(r(0), Membership::uniform(3))]);
        propose(&mut s, 0, 0, cmd(1), r(0));
        propose(&mut s, 0, 3, cmd(2), r(0));
        // Majority acks for both slots from r0 (self) and r1.
        ack(&mut s, 0, r(0), 0, 3);
        ack(&mut s, 0, r(0), 3, 6);
        ack(&mut s, 0, r(1), 0, 1);
        ack(&mut s, 0, r(1), 3, 4);
        // Slot 0 commits; slot 3 blocked: r2's promise for slot 2 missing.
        assert_eq!(s[0].executed.len(), 1);
        // r2's ack arrives: skip_below 5 covers its slot 2; slot 1 covered
        // by r1's skip_below 4.
        ack(&mut s, 0, r(2), 3, 5);
        assert_eq!(s[0].executed.len(), 2);
        assert_eq!(s[0].executed[1].order_hint, 3);
        assert_eq!(s.nodes[0].proto.exec_cursor, 4);
    }

    #[test]
    fn delayed_commit_blocks_on_concurrent_smaller_slot() {
        // r1 observes its own slot-1 proposal fully acked, but r0's
        // concurrent slot-0 command is still short of a majority: slot 1
        // must wait (the delayed-commit problem).
        let mut s = Script::new(vec![MenciusBcast::new(r(1), Membership::uniform(3))]);
        propose(&mut s, 0, 0, cmd(1), r(0));
        propose(&mut s, 0, 1, cmd(2), r(1));
        ack(&mut s, 0, r(1), 1, 4);
        ack(&mut s, 0, r(2), 1, 5);
        ack(&mut s, 0, r(0), 1, 3);
        assert!(s[0].executed.is_empty(), "slot 1 must wait for slot 0");
        ack(&mut s, 0, r(0), 0, 3);
        ack(&mut s, 0, r(2), 0, 2);
        assert_eq!(s[0].executed.len(), 2);
        assert_eq!(s[0].executed[0].order_hint, 0);
        assert_eq!(s[0].executed[1].order_hint, 1);
    }

    #[test]
    fn cumulative_ack_covers_earlier_slots_of_the_same_owner() {
        // r2 receives r0's slots 0 and 3 and acks only once for slot 3:
        // the watermark must count for slot 0 as well.
        let mut s = Script::new(vec![MenciusBcast::new(r(1), Membership::uniform(3))]);
        propose(&mut s, 0, 0, cmd(1), r(0));
        propose(&mut s, 0, 3, cmd(2), r(0));
        // One cumulative ack per replica, watermark at slot 3.
        ack(&mut s, 0, r(0), 3, 6);
        ack(&mut s, 0, r(1), 3, 4);
        ack(&mut s, 0, r(2), 3, 5);
        assert_eq!(
            s[0].executed.len(),
            2,
            "both slots commit off one watermark"
        );
        assert_eq!(s[0].executed[0].order_hint, 0);
        assert_eq!(s[0].executed[1].order_hint, 3);
    }

    #[test]
    fn skipped_slots_resolve_without_commands() {
        let mut s = Script::new(vec![MenciusBcast::new(r(2), Membership::uniform(3))]);
        // r1 proposes in its slot 4; everyone skips 0..4.
        propose(&mut s, 0, 4, cmd(1), r(1));
        ack(&mut s, 0, r(0), 4, 6); // r0 skips 0 and 3
        ack(&mut s, 0, r(1), 4, 7); // r1 skips 1 (4 proposed)
        ack(&mut s, 0, r(2), 4, 5); // r2 skips 2
        assert_eq!(s[0].executed.len(), 1);
        assert_eq!(s[0].executed[0].order_hint, 4);
        assert_eq!(s.nodes[0].proto.exec_cursor, 5);
        let skips = s.nodes[0]
            .log
            .iter()
            .filter(|r| matches!(r, MenciusLogRec::Skip { .. }))
            .count();
        assert_eq!(skips, 4);
    }

    #[test]
    fn recovered_replica_never_vouches_for_other_owners() {
        // r1 crashes while r0's slot-0 proposal is in flight (lost),
        // recovers, then receives r0's next proposal in slot 3. A
        // cumulative ack up to slot 3 would falsely cover the lost
        // slot 0; the replica must fall back to vouching only for its
        // own slots (still carrying the skip promise).
        let mut s = Script::new(vec![MenciusBcast::new(r(1), Membership::uniform(3))]);
        s.on(0, |m, ctx| m.on_recover(&[], ctx));
        propose(&mut s, 0, 3, cmd(2), r(0));
        let acks: Vec<(u64, u64)> = s[0]
            .sent
            .iter()
            .filter_map(|(_, msg)| match msg {
                MenciusMsg::AcceptAck {
                    up_to_slot,
                    skip_below,
                } => Some((*up_to_slot, *skip_below)),
                _ => None,
            })
            .collect();
        assert!(!acks.is_empty());
        for (up_to, skip) in acks {
            assert_eq!(
                s.nodes[0].proto.owner_of_slot(up_to),
                r(1),
                "post-recovery ack must only reference own slots"
            );
            assert!(skip > 3, "skip promise must still cover the gap slots");
        }
        // Own proposals remain fully vouchable after recovery.
        s.on(0, |m, ctx| m.on_client_batch(Batch::single(cmd(9)), ctx));
        let own_acks = s[0]
            .sent
            .iter()
            .filter(|(_, msg)| {
                matches!(msg, MenciusMsg::AcceptAck { up_to_slot, .. }
                if *up_to_slot == s.nodes[0].proto.next_own_slot - 3)
            })
            .count();
        assert!(own_acks >= 3, "own-slot acks keep flowing");
    }

    /// The catch-up requests replica `i` sent: (owner, from, below).
    fn requests(s: &Script<MenciusBcast>, i: usize) -> Vec<(ReplicaId, u64, u64)> {
        let reqs = s[i].sent.iter().filter_map(|(to, msg)| match msg {
            MenciusMsg::CatchUp(req) => Some((*to, req.from, req.below)),
            _ => None,
        });
        reqs.collect()
    }

    /// The `up_to_slot` of every ack replica `i` sent, in send order.
    fn acks(s: &Script<MenciusBcast>, i: usize) -> Vec<u64> {
        let acks = s[i].sent.iter().filter_map(|(_, msg)| match msg {
            MenciusMsg::AcceptAck { up_to_slot, .. } => Some(*up_to_slot),
            _ => None,
        });
        acks.collect()
    }

    #[test]
    fn recovered_replica_resyncs_through_one_catch_up_per_owner() {
        // r1 recovers and first hears r0 at slot 3 (slots 0..3 may have
        // been missed). It asks each owner, once, for everything from
        // its cursor; an owner's runs from there resync it, and full
        // cumulative acks for that owner resume.
        let mut s = Script::new(vec![MenciusBcast::new(r(1), Membership::uniform(3))]);
        s.on(0, |m, ctx| m.on_recover(&[], ctx));
        s.receive(
            0,
            r(0),
            MenciusMsg::Propose {
                first_slot: 3,
                cmds: Batch::single(cmd(1)),
                origin: r(0),
            },
        );
        // Unsynced: the ack references r1's own slots, not slot 3.
        let last = |s: &Script<MenciusBcast>| *acks(s, 0).last().unwrap();
        assert_eq!(s.nodes[0].proto.owner_of_slot(last(&s)), r(1));
        assert_eq!(requests(&s, 0), [(r(0), 0, u64::MAX)], "the owner is asked");
        // Majority watermarks for slot 3 arrive.
        ack(&mut s, 0, r(0), 0, 3);
        ack(&mut s, 0, r(2), 0, 5);
        ack(&mut s, 0, r(0), 3, 6);
        ack(&mut s, 0, r(2), 3, 5);
        // Gap slot 0 cannot resolve off the owner's floor alone (a
        // proposal may have been lost in r1's crash).
        assert_eq!(s.nodes[0].proto.exec_cursor, 0, "holes wait for the owner");
        // r0 answers from the cursor up to its frontier, its next own
        // slot 6: r1 holds all of r0's proposals below 6 and announces
        // so at once.
        s.receive(0, r(0), runs(0, 6, Vec::new()));
        assert!(s.nodes[0].proto.recv_synced[0]);
        assert_eq!(last(&s), 3, "coverage of r0 announced up to its slot 3");
        // Slot 0 skips, slot 1 is r1's own; r2's slot 2 blocks and r2 is
        // asked from the cursor.
        assert_eq!(s.nodes[0].proto.exec_cursor, 2);
        assert_eq!(requests(&s, 0)[1..], [(r(2), 2, u64::MAX)]);
        s.receive(0, r(2), runs(2, 5, Vec::new()));
        assert!(
            s.nodes[0].proto.exec_cursor >= 4,
            "gap resolved: {}",
            s.nodes[0].proto.exec_cursor
        );
        assert_eq!(requests(&s, 0).len(), 2, "one request per owner");
        // Next proposal from r0: full cumulative ack.
        propose(&mut s, 0, 6, cmd(2), r(0));
        assert_eq!(last(&s), 6, "cumulative acks resume after resync");
    }

    #[test]
    fn recovered_replica_fetches_lost_proposals_instead_of_skipping() {
        // r0 proposed slot 0 (committed by r0+r2) while the Propose to a
        // crashed r1 was lost. On recovery r1 must not resolve slot 0 as
        // a skip off r0's floor — that would fork its committed sequence.
        // It queries r0, which retransmits from its log, and
        // r1 commits the same command everyone else executed.
        let mut s = Script::new(vec![
            MenciusBcast::new(r(0), Membership::uniform(3)),
            MenciusBcast::new(r(1), Membership::uniform(3)),
        ]);
        s.on(0, |owner, ctx| {
            owner.on_client_batch(Batch::single(cmd(7)), ctx)
        }); // fills slot 0
        s.on(1, |m, ctx| m.on_recover(&[], ctx));
        // r0's next batch is the first thing r1 hears: its floor now
        // covers slot 0, which the old code skipped locally.
        propose(&mut s, 1, 3, cmd(8), r(0));
        assert_eq!(
            s.nodes[1].proto.exec_cursor, 0,
            "slot 0 must not resolve as a skip"
        );
        // The owner answers from its own Accept records in its log.
        assert_eq!(requests(&s, 1), [(r(0), 0, u64::MAX)], "the owner is asked");
        let fill = answer(&mut s, 0, u64::MAX);
        assert!(
            matches!(&fill, CatchUpReply::Runs { runs, below: 3, .. } if runs.len() == 1),
            "retransmission must carry the lost slot-0 proposal, got {fill:?}"
        );
        s.receive(1, r(0), MenciusMsg::CatchUpReply(fill));
        // Majority watermarks for slots 0 and 3 arrive; r2's slot 2
        // blocks, and r2 confirms from the cursor that its own slots
        // there are empty.
        ack(&mut s, 1, r(0), 0, 6);
        ack(&mut s, 1, r(2), 0, 5);
        ack(&mut s, 1, r(0), 3, 6);
        ack(&mut s, 1, r(2), 3, 5);
        assert_eq!(requests(&s, 1)[1..], [(r(2), 2, u64::MAX)]);
        s.receive(1, r(2), runs(2, 5, Vec::new()));
        // Everything resolves, slot 0 first and with the original command.
        let resolved = s.nodes[1].proto.exec_cursor;
        assert!(resolved >= 4, "gap resolved: {resolved}");
        assert_eq!(s[1].executed[0].order_hint, 0);
        assert_eq!(
            s[1].executed[0].cmd.id.seq, 7,
            "slot 0 must commit the owner's original command"
        );
    }

    #[test]
    fn a_runs_answer_rearms_full_acks_at_once_and_a_snapshot_answer_does_not() {
        // r0 resolves and compacts its slots 0 and 3 while r1 is down.
        let mut s = Script::new(vec![
            MenciusBcast::new(r(0), Membership::uniform(3))
                .with_checkpoints(CheckpointPolicy::every(1)),
            MenciusBcast::new(r(1), Membership::uniform(3)),
        ]);
        for seq in 0..2 {
            s.on(0, |owner, ctx| {
                owner.on_client_batch(Batch::single(cmd(seq)), ctx)
            });
        }
        ack(&mut s, 0, r(1), 3, 4);
        ack(&mut s, 0, r(2), 3, 5);
        assert_eq!(s.nodes[0].proto.exec_cursor, 4);
        s.on(0, |owner, ctx| {
            owner.on_client_batch(Batch::single(cmd(2)), ctx)
        }); // slot 6, unresolved
        let owner_acks = |s: &Script<MenciusBcast>| {
            let acks = acks(s, 1).into_iter();
            acks.filter(|&a| a % 3 == 0).collect::<Vec<_>>()
        };
        let asked_owner = |s: &Script<MenciusBcast>| {
            let reqs = requests(s, 1).into_iter();
            reqs.filter(|q| q.0 == r(0)).collect::<Vec<_>>()
        };
        // r1 recovers and hears the owner: it asks from its cursor 0.
        s.on(1, |m, ctx| m.on_recover(&[], ctx));
        propose(&mut s, 1, 6, cmd(2), r(0));
        assert_eq!(asked_owner(&s), [(r(0), 0, u64::MAX)]);
        // The owner compacted past 0: a snapshot, which installs but
        // proves nothing about the owner's proposals above it.
        let reply = answer(&mut s, 0, u64::MAX);
        assert!(matches!(&reply, CatchUpReply::Snapshot(cp) if cp.applied == 4));
        s.receive(1, r(0), MenciusMsg::CatchUpReply(reply));
        // Past the snapshot's 4 slots, r1's own slot 4 skips.
        assert_eq!(s.nodes[1].proto.exec_cursor, 5);
        assert!(
            !s.nodes[1].proto.recv_synced[0],
            "a snapshot does not resync"
        );
        assert!(
            owner_acks(&s).is_empty(),
            "no ack vouches for the owner yet"
        );
        // The next trigger, the owner's next proposal, asks again from
        // the new cursor, and the owner's runs from there resync r1 at
        // once: one ack up to the owner's last slot below its frontier,
        // with no further proposal of the owner's needed to carry it.
        s.on(0, |owner, ctx| {
            owner.on_client_batch(Batch::single(cmd(3)), ctx)
        }); // slot 9
        propose(&mut s, 1, 9, cmd(3), r(0));
        assert_eq!(asked_owner(&s)[1..], [(r(0), 5, u64::MAX)]);
        let reply = answer(&mut s, 5, u64::MAX);
        let below = |reply: &CatchUpReply<u64, _>| match reply {
            CatchUpReply::Runs { from: 5, below, .. } => Some(*below),
            _ => None,
        };
        assert_eq!(below(&reply), Some(12), "runs up to the owner's frontier");
        s.receive(1, r(0), MenciusMsg::CatchUpReply(reply));
        assert!(s.nodes[1].proto.recv_synced[0]);
        assert_eq!(owner_acks(&s), [9; 3], "one broadcast covers the owner");
    }

    #[test]
    fn lost_catch_up_is_retried_when_the_owner_is_heard_from() {
        let mut s = Script::new(vec![MenciusBcast::new(r(1), Membership::uniform(3))]);
        s.on(0, |m, ctx| m.on_recover(&[], ctx));
        propose(&mut s, 0, 3, cmd(1), r(0));
        let count_reqs = |s: &Script<MenciusBcast>| requests(s, 0).len();
        assert_eq!(count_reqs(&s), 1, "stall at slot 0 queries the owner");
        // Owner traffic within the retry window must not duplicate the
        // in-flight exchange…
        s.receive(
            0,
            r(0),
            MenciusMsg::AcceptAck {
                up_to_slot: 3,
                skip_below: 6,
            },
        );
        assert_eq!(count_reqs(&s), 1, "in-flight request is deduplicated");
        // …but once the window expires, the request (or its answer) is
        // presumed lost to the owner's downtime and is re-sent.
        s[0].clock = 1_000_000;
        s.receive(
            0,
            r(0),
            MenciusMsg::AcceptAck {
                up_to_slot: 3,
                skip_below: 6,
            },
        );
        assert_eq!(count_reqs(&s), 2, "timed-out request is retried");
    }

    /// The owner's (replica 0's) answer to replica 1's catch-up for
    /// `[from, below)`.
    fn answer(
        s: &mut Script<MenciusBcast>,
        from: u64,
        below: u64,
    ) -> CatchUpReply<u64, Vec<(u64, Command)>> {
        s[0].sent.clear();
        s.receive(0, r(1), catch_up(from, below));
        let answers: Vec<_> = s[0]
            .sent
            .iter()
            .filter_map(|(to, msg)| match msg {
                MenciusMsg::CatchUpReply(reply) if *to == r(1) => Some(reply.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(answers.len(), 1, "one answer per request");
        answers[0].clone()
    }

    /// One step of [`gap_fills_are_exactly_what_the_owner_proposed`].
    #[derive(Debug, Clone)]
    enum Step {
        /// The owner proposes a batch of this many commands.
        Propose(usize),
        /// Peer 1 or 2 proposes a batch of this many commands.
        PeerPropose(u16, usize),
        /// A cumulative ack of the owner's slots, the owner's own ack
        /// included: (acker, up_to_slot, skip_below).
        Ack(u16, u64, u64),
        /// The owner crashes and recovers from its log.
        Restart,
        /// Replica 1 asks the owner for `[from, below)`.
        Ask(u64, u64),
    }

    fn step() -> impl Strategy<Value = Step> {
        prop_oneof![
            (1usize..4).prop_map(Step::Propose),
            (1u16..3, 1usize..4).prop_map(|(k, n)| Step::PeerPropose(k, n)),
            (0u16..3, 0u64..22, 0u64..64).prop_map(|(k, i, skip)| Step::Ack(k, 3 * i, skip)),
            Just(Step::Restart),
            (0u64..72, 0u64..72).prop_map(|(from, below)| Step::Ask(from, below)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Without compaction the log holds every own proposal, so the
        /// catch-up runs carry exactly what the owner proposed in the
        /// range, whatever acks and restarts came before, and the own
        /// slots they leave out are exactly the ones never proposed.
        #[test]
        fn gap_fills_are_exactly_what_the_owner_proposed(
            steps in proptest::collection::vec(step(), 1..60),
        ) {
            let owner = || MenciusBcast::new(r(0), Membership::uniform(3));
            let mut s = Script::new(vec![owner()]);
            // Test-side model: own slot -> command seq.
            let mut proposed = BTreeMap::new();
            let mut peer_next = [0, 1, 2];
            let mut seq = 0;
            for step in steps {
                match step {
                    Step::Propose(len) => {
                        let first = s.nodes[0].proto.next_own_slot;
                        let cmds: Vec<Command> = (0..len)
                            .map(|i| {
                                seq += 1;
                                proposed.insert(first + 3 * i as u64, seq);
                                cmd(seq)
                            })
                            .collect();
                        s.on(0, |m, ctx| m.on_client_batch(Batch::new(cmds), ctx));
                    }
                    Step::PeerPropose(k, len) => {
                        let first = peer_next[k as usize];
                        peer_next[k as usize] += 3 * len as u64;
                        let cmds: Vec<Command> = (0..len)
                            .map(|_| {
                                seq += 1;
                                cmd(seq)
                            })
                            .collect();
                        s.on(0, |m, ctx| m.on_propose(first, Batch::new(cmds), r(k), ctx));
                    }
                    Step::Ack(0, up, _) => {
                        // The owner's own ack promises its next own slot.
                        let skip = s.nodes[0].proto.next_own_slot;
                        ack(&mut s, 0, r(0), up, skip)
                    }
                    Step::Ack(k, up, skip) => ack(&mut s, 0, r(k), up, skip),
                    Step::Restart => s.restart(0, owner()),
                    Step::Ask(from, below) => {
                        let next = s.nodes[0].proto.next_own_slot;
                        let CatchUpReply::Runs { from: from_slot, below: upto, runs: cmds } =
                            answer(&mut s, from, below)
                        else {
                            unreachable!("a log without a checkpoint serves runs")
                        };
                        prop_assert_eq!(from_slot, from, "a log without a checkpoint reaches slot 0");
                        prop_assert_eq!(upto, below.min(next), "no promise past the next own slot");
                        let got: Vec<(u64, u64)> =
                            cmds.iter().map(|(slot, c)| (*slot, c.id.seq)).collect();
                        let want: Vec<(u64, u64)> = if from < upto {
                            proposed.range(from..upto).map(|(&slot, &q)| (slot, q)).collect()
                        } else {
                            Vec::new()
                        };
                        prop_assert_eq!(got, want);
                    }
                }
            }
        }
    }

    #[test]
    fn compacted_out_hole_fetches_a_checkpoint_instead_of_stalling() {
        // r1 stays down while r0 proposes, resolves and compacts its log
        // past r1's holes. On rejoin, r1 asks the owner of its hole, and
        // the owner — whose log no longer reaches back there — answers
        // with a snapshot instead of a wrong "permanently empty" answer
        // or silence. A second request, from above the snapshot, gets the
        // owner's runs.
        let mut s = Script::new(vec![
            MenciusBcast::new(r(0), Membership::uniform(3))
                .with_checkpoints(CheckpointPolicy::every(2)),
            MenciusBcast::new(r(1), Membership::uniform(3)),
        ]);
        for seq in 0..8 {
            s.on(0, |owner, ctx| {
                owner.on_client_batch(Batch::single(cmd(seq)), ctx)
            });
        }
        // Majority watermarks + skip promises resolve everything at the
        // owner: its own 8 slots commit, everyone else's skip.
        ack(&mut s, 0, r(1), 21, 22);
        ack(&mut s, 0, r(2), 21, 23);
        ack(&mut s, 0, r(0), 21, 24);
        assert_eq!(
            s.nodes[0].proto.exec_cursor, 22,
            "owner resolved its whole prefix"
        );
        // Two more own proposals stay unresolved above the watermark.
        for seq in 8..10 {
            s.on(0, |owner, ctx| {
                owner.on_client_batch(Batch::single(cmd(seq)), ctx)
            });
        }
        let log = &s.nodes[0].log;
        assert!(
            matches!(&log[0], MenciusLogRec::Checkpoint(cp) if cp.applied == 22),
            "the compacted log leads with the checkpoint"
        );
        let own_accepts = log
            .iter()
            .filter(|l| matches!(l, MenciusLogRec::Accept { first, .. } if *first < 22))
            .count();
        assert_eq!(own_accepts, 0, "compaction dropped the resolved proposals");

        // r1 recovers from a long outage with an empty log and hears the
        // owner's promise: the hole at slot 0 asks the owner for
        // everything from there.
        s.on(1, |m, ctx| m.on_recover(&[], ctx));
        ack(&mut s, 1, r(0), 27, 30);
        assert_eq!(requests(&s, 1), [(r(0), 0, u64::MAX)], "the owner is asked");
        assert_eq!(
            s.nodes[1].proto.exec_cursor, 0,
            "the hole at slot 0 must not resolve as a skip"
        );
        // Further owner traffic does not repeat the request in flight.
        ack(&mut s, 1, r(0), 27, 30);
        assert_eq!(
            requests(&s, 1).len(),
            1,
            "in-flight request is not repeated"
        );

        // The owner's log starts at 22: it answers with a snapshot, and
        // installing it converges r1 on the owner's exact state.
        let reply = answer(&mut s, 0, u64::MAX);
        assert!(
            matches!(&reply, CatchUpReply::Snapshot(cp) if cp.applied == 22),
            "below the owner's compacted log: a snapshot, got {reply:?}"
        );
        s.receive(1, r(0), MenciusMsg::CatchUpReply(reply));
        assert_eq!(
            s.nodes[1].proto.exec_cursor, 22,
            "hole covered by the snapshot"
        );
        assert_eq!(
            s.applied(1),
            s.applied(0),
            "recovered replica reaches the owner's exact state"
        );
        assert!(
            !s.nodes[1].proto.recv_synced[0],
            "a snapshot does not resync"
        );

        // The owner's next proposal moves r1's cursor to replica 2's slot
        // 23, which blocks it: replica 2 is asked, and the owner again,
        // both from the new cursor.
        s.on(0, |owner, ctx| {
            owner.on_client_batch(Batch::single(cmd(10)), ctx)
        });
        let propose = s[0].sent.iter().find_map(|(to, msg)| match msg {
            MenciusMsg::Propose { .. } if *to == r(1) => Some(msg.clone()),
            _ => None,
        });
        s.receive(1, r(0), propose.expect("the owner proposes to r1"));
        assert_eq!(
            requests(&s, 1)[1..],
            [(r(2), 23, u64::MAX), (r(0), 23, u64::MAX)],
            "from the cursor, to each owner"
        );
        let reply = answer(&mut s, 23, u64::MAX);
        let CatchUpReply::Runs { from, below, runs } = &reply else {
            panic!("above the owner's checkpoint: runs, got {reply:?}");
        };
        assert_eq!((*from, *below), (23, 33), "up to the owner's frontier");
        let held: Vec<(u64, u64)> = runs.iter().map(|(slot, c)| (*slot, c.id.seq)).collect();
        assert_eq!(
            held,
            [(24, 8), (27, 9), (30, 10)],
            "the log's own proposals"
        );
        s.receive(1, r(0), MenciusMsg::CatchUpReply(reply));
        let m = &s.nodes[1].proto;
        assert!(m.slots.contains_key(&24) && m.slots.contains_key(&27));
        assert!(
            m.recv_synced[0],
            "runs from the cursor resync r1 with the owner"
        );
        // And it can keep proposing above everything resolved.
        s.on(1, |m, ctx| m.on_client_batch(Batch::single(cmd(99)), ctx));
        assert!(s.nodes[1].proto.next_own_slot > 22);
    }

    #[test]
    fn checkpoints_compact_the_log_and_recovery_restores_them() {
        let mut s = Script::new(vec![MenciusBcast::new(r(0), Membership::uniform(3))
            .with_checkpoints(CheckpointPolicy::every(2))]);
        for seq in 0..6 {
            s.on(0, |m, ctx| m.on_client_batch(Batch::single(cmd(seq)), ctx));
        }
        ack(&mut s, 0, r(1), 15, 16);
        ack(&mut s, 0, r(2), 15, 17);
        ack(&mut s, 0, r(0), 15, 18);
        let resolved = s.nodes[0].proto.exec_cursor;
        assert_eq!(resolved, 16, "all six own slots + skips resolved");
        // Compaction keeps the log at the checkpoint plus the unresolved
        // slots — none here — far below the 6 accepts + 16 commit/skip
        // marks the log held before it.
        let log = &s.nodes[0].log;
        assert!(
            matches!(&log[..], [MenciusLogRec::Checkpoint(cp)] if cp.applied == 16),
            "log holds exactly the newest checkpoint, got {log:?}"
        );
        // Recovery from the compacted log reproduces the full state.
        let applied = s.applied(0);
        s.restart(0, MenciusBcast::new(r(0), Membership::uniform(3)));
        assert_eq!(s.applied(0), applied);
        let m2 = &s.nodes[0].proto;
        assert_eq!(m2.exec_cursor, 16, "cursor resumes at the watermark");
        assert!(m2.next_own_slot >= m2.exec_cursor, "own slots never reused");
        // Own proposals below the watermark left the log with the
        // compaction: a catch-up from below it gets a snapshot, one from
        // the watermark the (empty) runs above it.
        let reply = answer(&mut s, 0, 18);
        assert!(
            matches!(&reply, CatchUpReply::Snapshot(cp) if cp.applied == 16),
            "snapshot below the watermark, got {reply:?}"
        );
        let reply = answer(&mut s, 16, 18);
        assert_eq!(
            reply,
            CatchUpReply::Runs {
                from: 16,
                below: 18,
                runs: Vec::new()
            }
        );
    }

    /// Recovery replay feeds the checkpoint trigger like live execution:
    /// a replica that crashes every 2 commits — more often than its
    /// 5-commit interval — still checkpoints, instead of restarting the
    /// count from zero on every recovery and replaying an ever-growing
    /// log. (A single-replica group: every slot is its own, so each
    /// command resolves on its self-ack.)
    #[test]
    fn crashing_more_often_than_the_interval_still_checkpoints() {
        let replica = || {
            MenciusBcast::new(r(0), Membership::uniform(1))
                .with_checkpoints(CheckpointPolicy::every(5))
        };
        let mut s = Script::new(vec![replica()]);
        for life in 0..4u64 {
            // A crash loses the replica and its state machine; the log
            // stays.
            s.restart(0, replica());
            for slot in 2 * life..2 * life + 2 {
                s.on(0, |m, ctx| m.on_client_batch(Batch::single(cmd(slot)), ctx));
                ack(&mut s, 0, r(0), slot, slot + 1);
            }
            assert_eq!(s.nodes[0].proto.exec_cursor, 2 * life + 2);
        }
        assert_eq!(s.applied(0), (0..8).collect::<Vec<u64>>());
        let checkpoints: Vec<u64> = s.nodes[0]
            .log
            .iter()
            .filter_map(|l| match l {
                MenciusLogRec::Checkpoint(cp) => Some(cp.applied),
                _ => None,
            })
            .collect();
        assert_eq!(
            checkpoints,
            vec![5],
            "4 replayed + 1 live commit reach the interval in the third life"
        );
    }

    #[test]
    fn recovery_replays_resolved_prefix() {
        let mut s = Script::new(vec![MenciusBcast::new(r(0), Membership::uniform(3))]);
        let log = vec![
            MenciusLogRec::Accept {
                first: 0,
                cmds: Batch::single(cmd(1)),
                origin: r(0),
            },
            MenciusLogRec::Commit { slot: 0 },
            MenciusLogRec::Skip { slot: 1 },
            MenciusLogRec::Skip { slot: 2 },
            MenciusLogRec::Accept {
                first: 3,
                cmds: Batch::single(cmd(2)),
                origin: r(0),
            },
        ];
        s.on(0, |m, ctx| m.on_recover(&log, ctx));
        assert_eq!(s[0].executed.len(), 1);
        assert_eq!(s.nodes[0].proto.exec_cursor, 3);
        // Own slots never reused below what the log shows.
        assert!(s.nodes[0].proto.next_own_slot > 3);
        assert_eq!(s.nodes[0].proto.next_own_slot % 3, 0);
    }

    /// A checkpoint lands inside a logged run: compaction keeps only the
    /// run's unresolved slots, which rebuild the slot table on replay. A
    /// catch-up from below the checkpoint gets a snapshot, one from above
    /// it the rest of the run.
    #[test]
    fn replay_of_a_run_straddling_the_checkpoint() {
        let mut s = Script::new(vec![MenciusBcast::new(r(0), Membership::uniform(3))
            .with_checkpoints(CheckpointPolicy::every(2))]);
        // Own slots 0, 3, 6, 9; the peers skip below 5 and ack slot 3.
        let batch = Batch::new((1..=4).map(cmd).collect());
        s.on(0, |m, ctx| m.on_client_batch(batch, ctx));
        ack(&mut s, 0, r(1), 3, 5);
        ack(&mut s, 0, r(2), 3, 5);
        assert_eq!(s.applied(0), vec![1, 2]);
        let log = &s.nodes[0].log;
        assert!(
            matches!(&log[0], MenciusLogRec::Checkpoint(cp) if cp.applied == 5),
            "the checkpoint heads the log, got {log:?}"
        );

        let resolved = s.nodes[0].proto.exec_cursor;
        s.restart(0, MenciusBcast::new(r(0), Membership::uniform(3)));
        assert_eq!(s.applied(0), vec![1, 2]);
        let m2 = &s.nodes[0].proto;
        assert_eq!(m2.exec_cursor, resolved);
        let live: Vec<u64> = m2.slots.keys().copied().collect();
        assert_eq!(live, [6, 9], "only the unresolved suffix is pending");
        assert_eq!(m2.next_own_slot, 12, "no slot of the run is reused");
        let reply = answer(&mut s, 0, 12);
        assert!(
            matches!(&reply, CatchUpReply::Snapshot(cp) if cp.applied == 5),
            "snapshot below the checkpoint, got {reply:?}"
        );
        let CatchUpReply::Runs { runs: cmds, .. } = answer(&mut s, 6, 12) else {
            unreachable!("runs from above the checkpoint")
        };
        let own: Vec<u64> = cmds.iter().map(|(slot, _)| *slot).collect();
        assert_eq!(own, [6, 9], "the rest of the run stays answerable");
    }

    #[test]
    fn recovery_never_reuses_slot_zero() {
        // An uncommitted Accept for slot 0 must push replica 0 past it:
        // peers may have logged or committed the original proposal, so
        // re-proposing slot 0 with a new command would fork the log.
        let log = vec![MenciusLogRec::Accept {
            first: 0,
            cmds: Batch::single(cmd(1)),
            origin: r(0),
        }];
        let recovered = |i: u16, log: &[MenciusLogRec]| {
            let mut s = Script::new(vec![MenciusBcast::new(r(i), Membership::uniform(3))]);
            s.on(0, |m, ctx| m.on_recover(log, ctx));
            s.nodes[0].proto.next_own_slot
        };
        assert_eq!(recovered(0, &log), 3, "slot 0 was seen; next own slot is 3");
        // A genuinely empty log is a fresh start from the replica's own
        // first slot — for every replica id, not just 0.
        for i in 0..3 {
            assert_eq!(recovered(i, &[]), i as u64);
        }
    }
    fn read(seq: u64) -> Command {
        Command::read(
            CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq),
            Bytes::from_static(b"get"),
        )
    }

    #[test]
    fn read_probes_a_majority_and_parks_on_the_max_mark() {
        let mut s = Script::new(vec![MenciusBcast::new(r(0), Membership::uniform(3))]);
        // Slot 1 (owned by r1) is logged here but unresolved.
        propose(&mut s, 0, 1, cmd(11), r(1));
        s[0].sent.clear();
        s.on(0, |m, ctx| m.on_client_read(read(5), ctx));
        assert!(s[0].replies.is_empty(), "reads never serve eagerly");
        assert_eq!(
            s[0].sent
                .iter()
                .filter(|(_, msg)| matches!(msg, MenciusMsg::ReadProbe(_)))
                .count(),
            2,
            "probe goes to both peers"
        );
        // One answer + self = majority of 3. The peer's own-slot bound
        // (owner 1, bound 4) constrains the read: its largest owner-1
        // slot below 4 is slot 1, so the read parks at cursor mark 2.
        s.receive(
            0,
            r(1),
            MenciusMsg::ReadMark {
                reply: ReadReply { seq: 1, mark: 4 },
                owner_marks: vec![0, 4, 0],
            },
        );
        assert_eq!(
            s.nodes[0].proto.exec.pending_reads(),
            1,
            "parked until slots 0..2 resolve"
        );
        assert!(s[0].replies.is_empty());
        // Resolve slots 0..4: acks give slot 1 a majority, and the skip
        // promises cover the empty slots of every owner.
        ack(&mut s, 0, r(1), 1, 7);
        ack(&mut s, 0, r(2), 1, 8);
        s.on(0, |m, ctx| m.on_client_batch(Batch::single(cmd(1)), ctx)); // fills own slot 3... (slot 0 skipped by own floor)
        ack(&mut s, 0, r(1), 3, 7);
        ack(&mut s, 0, r(2), 3, 8);
        assert!(
            s.nodes[0].proto.exec_cursor >= 4,
            "slots below the mark resolved: {}",
            s.nodes[0].proto.exec_cursor
        );
        assert_eq!(s[0].replies.len(), 1);
        assert_eq!(s[0].replies[0].id.seq, 5);
        assert_eq!(s.nodes[0].proto.exec.pending_reads(), 0);
    }

    #[test]
    fn any_replica_answers_read_probes_with_its_log_top() {
        let mut s = Script::new(vec![MenciusBcast::new(r(2), Membership::uniform(3))]);
        propose(&mut s, 0, 4, cmd(9), r(1));
        s[0].sent.clear();
        s.receive(0, r(0), MenciusMsg::ReadProbe(ReadRequest { seq: 7 }));
        match &s[0].sent[..] {
            [(to, MenciusMsg::ReadMark { reply, owner_marks })] => {
                assert_eq!(*to, r(0));
                assert_eq!(reply.seq, 7);
                assert_eq!(reply.mark, 5, "scalar mark covers the whole slot table");
                assert_eq!(
                    owner_marks,
                    &vec![0, 5, 0],
                    "per-owner: only owner 1's logged slot 4 constrains; \
                     the responder's own entry is its execution cursor"
                );
            }
            other => panic!("expected one ReadMark, got {other:?}"),
        }
    }

    #[test]
    fn in_flight_proposals_do_not_block_probed_reads() {
        // Replica 1 has an own proposal in flight (logged at the reader,
        // unacked, uncommitted — no client has seen its result). Under
        // the old scalar logged-top mark the read would park above it
        // and wait out the proposal's full commit round; per-owner marks
        // let the owner's answer exclude it.
        let mut s = Script::new(vec![MenciusBcast::new(r(0), Membership::uniform(3))]);
        propose(&mut s, 0, 1, cmd(11), r(1));
        s[0].sent.clear();
        s.on(0, |m, ctx| m.on_client_read(read(9), ctx));
        assert!(s[0].replies.is_empty(), "waiting on the probe quorum");
        // Owner 1 answers: its execution cursor is still 0, so its own
        // entry excludes the in-flight slot 1 even though its scalar
        // logged-top mark (2) covers it.
        s.receive(
            0,
            r(1),
            MenciusMsg::ReadMark {
                reply: ReadReply { seq: 1, mark: 2 },
                owner_marks: vec![0, 0, 0],
            },
        );
        assert_eq!(
            s[0].replies.len(),
            1,
            "read served without waiting for the in-flight proposal"
        );
        assert_eq!(s[0].replies[0].id.seq, 9);
        assert_eq!(s.nodes[0].proto.exec.pending_reads(), 0);
    }

    #[test]
    fn read_falls_back_to_replication_without_sm_access() {
        let mut s = Script::new(vec![MenciusBcast::new(r(0), Membership::uniform(3))]);
        s.nodes[0].sm = Box::new(ApplyOnly::default());
        s.on(0, |m, ctx| m.on_client_read(read(4), ctx));
        s.receive(
            0,
            r(1),
            MenciusMsg::ReadMark {
                reply: ReadReply { seq: 1, mark: 0 },
                owner_marks: vec![0, 0, 0],
            },
        );
        assert!(s[0].replies.is_empty());
        assert!(
            s[0].sent
                .iter()
                .any(|(_, msg)| matches!(msg, MenciusMsg::Propose { .. })),
            "unserveable read must be replicated as an ordinary command"
        );
    }

    #[test]
    fn mencius_reports_commit_watermark_read_path() {
        let m = MenciusBcast::new(r(0), Membership::uniform(3));
        assert_eq!(m.read_path(), ReadPath::CommitWatermark);
    }
}
