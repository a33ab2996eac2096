//! Model-based test of the shared execution pipeline
//! ([`rsm_core::exec::Executor`]): a generated op sequence — execute a
//! fresh write / a same-id retry / a stale id / a read-only command,
//! `checkpoint_if_due`, park and release reads, and a twin that installs
//! a transferred checkpoint mid-sequence — checked step by step against a
//! small reference (applied-id list + newest-reply map + counter); the
//! catch-up exchange's answer rule and request pacing; and recovery from
//! the checkpoint-headed log the executor writes, against replay of the
//! whole log.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use bytes::Bytes;
use proptest::prelude::*;
use rsm_core::checkpoint::{
    log_head, CatchUp, CatchUpReply, Checkpoint, CheckpointPolicy, CheckpointRecord,
};
use rsm_core::exec::{Executor, ReadFront, TRANSFER_RETRY_US};
use rsm_core::protocol::{Context, Protocol, TimerToken};
use rsm_core::{Batch, ClientId, Command, CommandId, Committed, Epoch, Micros, ReplicaId, Reply};

/// The protocol the contexts are keyed by: it owns the executor under
/// test, releases parked reads at a cursor the test sets, and keeps the
/// reads the front hands back for replication. Never otherwise driven.
struct Nop {
    exec: Executor<u64>,
    cursor: u64,
    replicated: Vec<Command>,
}

/// A record of the model replica's log: a command it ordered at a
/// coordinate, the mark that executed the command at one, or the
/// checkpoint at the log's head.
#[derive(Debug, Clone)]
enum Rec {
    Accept(u64, Command, ReplicaId),
    Commit(u64),
    Checkpoint(Checkpoint<u64>),
}

impl CheckpointRecord<u64> for Rec {
    fn from_checkpoint(cp: Checkpoint<u64>) -> Self {
        Rec::Checkpoint(cp)
    }
    fn as_checkpoint(&self) -> Option<&Checkpoint<u64>> {
        match self {
            Rec::Checkpoint(cp) => Some(cp),
            _ => None,
        }
    }
}

impl Protocol for Nop {
    type Msg = ();
    type LogRec = Rec;
    fn id(&self) -> ReplicaId {
        ME
    }
    fn on_start(&mut self, _: &mut dyn Context<Self>) {}
    fn on_client_batch(&mut self, batch: Batch, _: &mut dyn Context<Self>) {
        self.replicated.extend(batch);
    }
    fn on_message(&mut self, _: ReplicaId, _: (), _: &mut dyn Context<Self>) {}
    fn on_timer(&mut self, _: TimerToken, _: &mut dyn Context<Self>) {}
    fn on_recover(&mut self, _: &[Rec], _: &mut dyn Context<Self>) {}
}

impl ReadFront for Nop {
    type Mark = u64;
    type Probe = u64;
    fn executor(&mut self) -> &mut Executor<u64> {
        &mut self.exec
    }
    fn send_probe(&mut self, _: u64, _: &mut dyn Context<Self>) -> u64 {
        unreachable!("the model parks its reads directly")
    }
    fn probe_quorum(&self) -> usize {
        0
    }
    fn park_mark(&self, mark: &u64, _: &Command) -> u64 {
        *mark
    }
    fn read_cursor(&self) -> Option<u64> {
        Some(self.cursor)
    }
}

const ME: ReplicaId = ReplicaId::new(0);
const ELSEWHERE: ReplicaId = ReplicaId::new(1);

/// A driver whose state machine is the list of applied ids; a command's
/// result is how many commands the state held when it ran, so a reply
/// re-served from the cache is distinguishable from a re-execution.
#[derive(Default)]
struct Sm {
    state: Vec<CommandId>,
    replies: Vec<Reply>,
    now: Micros,
    sent: Vec<ReplicaId>,
    log: Vec<Rec>,
}

fn count(n: usize) -> Bytes {
    Bytes::from((n as u64).to_be_bytes().to_vec())
}

impl Context<Nop> for Sm {
    fn clock(&mut self) -> Micros {
        self.now
    }
    fn send(&mut self, to: ReplicaId, _: ()) {
        self.sent.push(to);
    }
    fn log_append(&mut self, rec: Rec) {
        self.log.push(rec);
    }
    fn log_rewrite(&mut self, recs: Vec<Rec>) {
        self.log = recs;
    }
    fn stable_log(&self) -> &[Rec] {
        &self.log
    }
    fn commit(&mut self, c: Committed) -> Bytes {
        self.state.push(c.cmd.id);
        count(self.state.len())
    }
    fn set_timer(&mut self, _: Micros, _: TimerToken) {}
    fn sm_snapshot(&mut self) -> Bytes {
        let ids = self.state.iter();
        Bytes::from(
            ids.flat_map(|id| [id.client.number() as u64, id.seq])
                .flat_map(u64::to_be_bytes)
                .collect::<Vec<u8>>(),
        )
    }
    fn sm_install(&mut self, snapshot: Bytes) -> bool {
        let words: Vec<u64> = snapshot
            .chunks(8)
            .map(|c| u64::from_be_bytes(c.try_into().expect("8-byte words")))
            .collect();
        self.state = words
            .chunks(2)
            .map(|w| CommandId::new(ClientId::new(ME, w[0] as u32), w[1]))
            .collect();
        true
    }
    fn sm_read(&mut self, cmd: &Command) -> Option<Bytes> {
        cmd.read_only.then(|| count(self.state.len()))
    }
    fn send_reply(&mut self, reply: Reply) {
        self.replies.push(reply);
    }
}

/// The reference: what was applied, each client's newest applied seq with
/// its reply, the applied commands since the last checkpoint, and the
/// parked reads.
#[derive(Default)]
struct Model {
    applied: Vec<CommandId>,
    newest: HashMap<u32, (u64, Bytes)>,
    since_checkpoint: u64,
    replies: Vec<Reply>,
    parked: Vec<(u64, Command)>,
}

impl Model {
    /// Returns whether the command applies.
    fn execute(&mut self, cmd: &Command, origin: ReplicaId) -> bool {
        let client = cmd.id.client.number();
        let newest = self.newest.get(&client);
        let fresh = cmd.read_only || newest.is_none_or(|(seq, _)| cmd.id.seq > *seq);
        if fresh {
            self.applied.push(cmd.id);
            self.since_checkpoint += 1;
            if !cmd.read_only {
                let result = count(self.applied.len());
                self.newest.insert(client, (cmd.id.seq, result));
            }
        } else if let Some((_, result)) = newest.filter(|(seq, _)| cmd.id.seq == *seq) {
            if origin == ME {
                self.replies.push(Reply::new(cmd.id, result.clone()));
            }
        }
        fresh
    }

    /// Answers the servable reads at or below `up_to`, in mark order
    /// (park order within a mark); returns the unservable ones.
    fn release(&mut self, up_to: u64) -> Vec<Command> {
        let (mut ready, rest): (Vec<_>, Vec<_>) =
            self.parked.drain(..).partition(|(mark, _)| *mark <= up_to);
        self.parked = rest;
        ready.sort_by_key(|(mark, _)| *mark);
        let (served, unserved): (Vec<_>, Vec<_>) =
            ready.into_iter().partition(|(_, cmd)| cmd.read_only);
        let result = count(self.applied.len());
        let answer = |(_, cmd): (u64, Command)| Reply::new(cmd.id, result.clone());
        self.replies.extend(served.into_iter().map(answer));
        unserved.into_iter().map(|(_, cmd)| cmd).collect()
    }
}

fn id(client: u32, seq: u64) -> CommandId {
    CommandId::new(ClientId::new(ME, client), seq)
}

/// What the answer rule sends a requester missing everything from
/// `from` on, when the responder holds runs from `held` and executed
/// the prefix below `applied`. Runs are modelled as the `from` they
/// were built for.
fn answer(
    exec: &Executor<u64>,
    from: u64,
    held: Option<u64>,
    applied: u64,
    sm: &mut Sm,
) -> Option<CatchUpReply<u64, u64>> {
    let config = [ME, ELSEWHERE];
    let runs = |_: &mut dyn Context<Nop>| CatchUpReply::Runs {
        from,
        below: from + 1,
        runs: from,
    };
    exec.answer_catch_up(from, held, applied, Epoch::ZERO, &config, sm, runs)
}

/// The snapshot the answer rule serves a requester at `from`.
fn snapshot(exec: &Executor<u64>, from: u64, applied: u64, sm: &mut Sm) -> Option<Checkpoint<u64>> {
    match answer(exec, from, None, applied, sm)? {
        CatchUpReply::Snapshot(cp) => Some(cp),
        CatchUpReply::Runs { .. } => unreachable!("no runs held"),
    }
}

#[test]
fn the_answer_rule_serves_runs_from_the_held_coordinate_and_a_snapshot_below() {
    let exec: Executor<u64> = Executor::new(ME, CheckpointPolicy::DISABLED, 64);
    let mut sm = Sm::default();
    let is_runs = |a: &Option<CatchUpReply<u64, u64>>| matches!(a, Some(CatchUpReply::Runs { .. }));
    let is_snapshot = |a: &Option<CatchUpReply<u64, u64>>, at: u64| match a {
        Some(CatchUpReply::Snapshot(cp)) => cp.applied == at,
        _ => false,
    };
    // Runs held from 5, prefix executed below 8.
    assert!(
        is_runs(&answer(&exec, 5, Some(5), 8, &mut sm)),
        "at the held coordinate"
    );
    assert!(
        is_runs(&answer(&exec, 9, Some(5), 8, &mut sm)),
        "above the executed prefix"
    );
    assert!(
        is_snapshot(&answer(&exec, 4, Some(5), 8, &mut sm), 8),
        "below it"
    );
    assert!(
        is_snapshot(&answer(&exec, 7, None, 8, &mut sm), 8),
        "no runs held"
    );
    // Nothing the requester lacks: silence, not an empty snapshot.
    assert!(answer(&exec, 8, None, 8, &mut sm).is_none());
    assert!(answer(&exec, 3, Some(5), 3, &mut sm).is_none());
}

#[test]
fn catch_up_requests_are_paced_per_lane_and_rotate_without_a_target() {
    const THIRD: ReplicaId = ReplicaId::new(2);
    let config = [ME, ELSEWHERE, THIRD];
    let mut exec: Executor<u64> = Executor::new(ME, CheckpointPolicy::DISABLED, 64);
    let mut sm = Sm::default();
    let mut ask = |to: Option<ReplicaId>, from: u64, now: Micros, sm: &mut Sm| {
        sm.now = now;
        exec.request_catch_up(
            to,
            CatchUp {
                from,
                below: from + 4,
            },
            &config,
            sm,
            |_| (),
        );
    };
    ask(Some(THIRD), 3, 0, &mut sm);
    ask(Some(THIRD), 3, TRANSFER_RETRY_US - 1, &mut sm);
    assert_eq!(sm.sent, [THIRD], "a request in flight is not repeated");
    ask(Some(THIRD), 4, 1, &mut sm);
    assert_eq!(sm.sent, [THIRD, THIRD], "a new hole asks at once");
    ask(None, 4, 2, &mut sm);
    ask(None, 4, 3, &mut sm);
    assert_eq!(
        sm.sent,
        [THIRD, THIRD, ELSEWHERE],
        "the rotation is a lane of its own"
    );
    ask(None, 4, 2 + TRANSFER_RETRY_US, &mut sm);
    ask(Some(THIRD), 4, 1 + TRANSFER_RETRY_US, &mut sm);
    assert_eq!(
        sm.sent,
        [THIRD, THIRD, ELSEWHERE, THIRD, THIRD],
        "retries rotate past ourselves; a named target is asked again"
    );
}

/// A replica of a small ordering protocol over the executor: it orders
/// commands at consecutive coordinates as they arrive, executes them once
/// its commit point passes them, and logs both. Under a checkpoint policy
/// the executor compacts that log to its checkpoint and the commands
/// still unexecuted; recovery restores the log's head and replays the
/// marks above it, as the protocols do.
struct Replica {
    exec: Executor<u64>,
    sm: Sm,
    policy: CheckpointPolicy,
    /// Ordered but not yet executed, by coordinate.
    accepted: BTreeMap<u64, (Command, ReplicaId)>,
    next: u64,
    cursor: u64,
}

impl Replica {
    fn new(policy: CheckpointPolicy) -> Self {
        Replica {
            exec: Executor::new(ME, policy, 64),
            sm: Sm::default(),
            policy,
            accepted: BTreeMap::new(),
            next: 0,
            cursor: 0,
        }
    }

    fn accept(&mut self, cmd: Command, origin: ReplicaId) {
        self.sm
            .log
            .push(Rec::Accept(self.next, cmd.clone(), origin));
        self.accepted.insert(self.next, (cmd, origin));
        self.next += 1;
    }

    /// Executes up to `n` more ordered commands, checkpointing after each
    /// one when due.
    fn commit(&mut self, n: u64) {
        for _ in 0..n.min(self.next - self.cursor) {
            let c = self.cursor;
            let Some((cmd, origin)) = self.accepted.remove(&c) else {
                break; // the log lost the command ordered here
            };
            self.sm.log.push(Rec::Commit(c));
            self.cursor += 1;
            self.exec.execute(cmd, origin, c, &mut self.sm);
            let live = self.accepted.range(self.cursor..);
            let live = live.map(|(&at, (cmd, origin))| Rec::Accept(at, cmd.clone(), *origin));
            self.exec
                .checkpoint_if_due(self.cursor, Epoch::ZERO, &[ME], &mut self.sm, live);
        }
    }

    /// Crashes and recovers from the stable log alone.
    fn restart(&mut self) {
        let log = std::mem::take(&mut self.sm.log);
        let mut fresh = Replica::new(self.policy);
        fresh.sm.log = log.clone();
        let base = fresh
            .exec
            .recover(&log, &mut fresh.sm)
            .map_or(0, |cp| cp.applied);
        let mut marks = BTreeSet::new();
        for rec in &log {
            match rec {
                Rec::Accept(at, cmd, origin) if *at >= base => {
                    fresh.accepted.insert(*at, (cmd.clone(), *origin));
                }
                Rec::Commit(at) if *at >= base => {
                    marks.insert(*at);
                }
                _ => {}
            }
        }
        fresh.cursor = base;
        while marks.remove(&fresh.cursor) {
            let Some((cmd, origin)) = fresh.accepted.remove(&fresh.cursor) else {
                break; // a mark without its command: the log lost it
            };
            fresh.exec.execute(cmd, origin, fresh.cursor, &mut fresh.sm);
            fresh.cursor += 1;
        }
        fresh.next = fresh
            .accepted
            .keys()
            .next_back()
            .map_or(base, |&at| at + 1)
            .max(fresh.cursor);
        *self = fresh;
    }

    /// The applied sequence, and a snapshot of the state machine and the
    /// session window at the commit point.
    fn observed(&mut self) -> (Vec<CommandId>, Option<Checkpoint<u64>>) {
        let at = self.cursor + 1;
        let cp = snapshot(&self.exec, 0, at, &mut self.sm);
        (self.sm.state.clone(), cp)
    }
}

proptest! {
    #[test]
    fn executor_matches_the_reference_model(
        ops in proptest::collection::vec((0u8..9, 0u32..4, 0u64..12), 1..160),
        every in 1u64..7,
        transfer_at in 0usize..160,
    ) {
        let policy = CheckpointPolicy::every(every);
        let config = [ME, ELSEWHERE];
        let mut nop = Nop { exec: Executor::new(ME, policy, 64), cursor: 0, replicated: Vec::new() };
        let (mut sm, mut model) = (Sm::default(), Model::default());
        // The twin installs `exec`'s checkpoint at `transfer_at` and then
        // executes the same suffix.
        let mut twin: Executor<u64> = Executor::new(ME, policy, 64);
        let (mut twin_sm, mut twin_live) = (Sm::default(), false);
        let mut issued = [0u64; 4];
        let mut read_seq = 0u64;

        for (step, &(kind, client, arg)) in ops.iter().enumerate() {
            if step == transfer_at.min(ops.len() - 1) {
                let at = model.applied.len() as u64;
                let cp = snapshot(&nop.exec, 0, at + 1, &mut sm).expect("a snapshot answers");
                prop_assert_eq!(cp.applied, at + 1);
                prop_assert!(snapshot(&nop.exec, at + 1, at + 1, &mut sm).is_none());
                prop_assert!(twin.install_caught_up(cp.clone(), &mut twin_sm, []));
                prop_assert_eq!(log_head(&twin_sm.log), Some(&cp), "the install heads the log");
                twin_live = true;
            }
            let origin = if arg % 2 == 0 { ME } else { ELSEWHERE };
            let slot = &mut issued[client as usize];
            let cmd = match kind {
                // A fresh write: the client's next sequence number.
                0..=2 => {
                    *slot += 1;
                    Some(Command::new(id(client, *slot), Bytes::from_static(b"w")))
                }
                // A same-id retry of the client's newest write.
                3 if *slot > 0 => Some(Command::new(id(client, *slot), Bytes::from_static(b"w"))),
                // A stale id, below the newest applied one.
                4 if *slot > 1 => Some(Command::new(id(client, *slot - 1), Bytes::from_static(b"w"))),
                // A replicated read-only command: bypasses the window.
                5 => {
                    read_seq += 1;
                    Some(Command::read(id(100 + client, read_seq), Bytes::from_static(b"r")))
                }
                _ => None,
            };
            if let Some(cmd) = cmd {
                let expect = model.execute(&cmd, origin);
                let hint = model.applied.len() as u64;
                prop_assert_eq!(nop.exec.execute(cmd.clone(), origin, hint, &mut sm), expect);
                if twin_live {
                    prop_assert_eq!(twin.execute(cmd, origin, hint, &mut twin_sm), expect);
                }
            }
            match kind {
                6 => {
                    let due = model.since_checkpoint >= every;
                    let at = model.applied.len() as u64;
                    let live = [Rec::Commit(at)];
                    let taken = nop.exec.checkpoint_if_due(at, Epoch(3), &config, &mut sm, live);
                    prop_assert_eq!(taken, due, "checkpoint exactly when the policy says");
                    if taken {
                        model.since_checkpoint = 0;
                        let snapshot = sm.sm_snapshot();
                        let Some(cp) = log_head(&sm.log) else {
                            panic!("the checkpoint heads the log");
                        };
                        prop_assert_eq!((cp.applied, cp.epoch, &cp.config[..]), (at, Epoch(3), &config[..]));
                        prop_assert_eq!(&cp.snapshot, &snapshot);
                        prop_assert!(matches!(sm.log[1..], [Rec::Commit(c)] if c == at), "then what is live");
                    }
                }
                7 => {
                    // Every third parked command is not read-only, so the
                    // driver cannot serve it and it must come back.
                    read_seq += 1;
                    let rid = id(200 + client, read_seq);
                    let cmd = if read_seq.is_multiple_of(3) {
                        Command::new(rid, Bytes::from_static(b"r"))
                    } else {
                        Command::read(rid, Bytes::from_static(b"r"))
                    };
                    model.parked.push((arg, cmd.clone()));
                    nop.exec.park_read(arg, cmd);
                }
                8 => {
                    nop.cursor = arg;
                    nop.release_reads(&mut sm);
                    prop_assert_eq!(std::mem::take(&mut nop.replicated), model.release(arg));
                }
                _ => {}
            }
            prop_assert_eq!(&sm.state, &model.applied, "applied exactly the fresh commands, in order");
            prop_assert_eq!(&sm.replies, &model.replies, "replies re-sent only at the origin");
            prop_assert_eq!(nop.exec.pending_reads(), model.parked.len());
        }

        // Install + the same suffix is indistinguishable from having
        // executed the whole sequence: identical snapshot and dedup
        // window, byte for byte.
        let end = model.applied.len() as u64 + 1;
        let ours = snapshot(&nop.exec, 0, end, &mut sm).expect("snapshot");
        let theirs = snapshot(&twin, 0, end, &mut twin_sm).expect("snapshot");
        prop_assert_eq!(ours.snapshot, theirs.snapshot);
        prop_assert_eq!(ours.sessions, theirs.sessions);
    }

    /// Compaction followed by replay equals replay alone: over random
    /// checkpoint intervals and crash points, a replica recovered from
    /// the executor-written `[checkpoint] ++ live` log applies the same
    /// sequence, and holds the same snapshot and session window, as the
    /// same run that never checkpoints and replays its whole log.
    #[test]
    fn recovery_from_a_compacted_log_equals_replay_of_the_whole_log(
        ops in proptest::collection::vec((0u8..5, 0u32..4, 0u64..12), 1..120),
        every in 1u64..6,
    ) {
        let mut compacted = Replica::new(CheckpointPolicy::every(every));
        let mut whole = Replica::new(CheckpointPolicy::DISABLED);
        let mut issued = [0u64; 4];
        for &(kind, client, arg) in &ops {
            let origin = if arg % 2 == 0 { ME } else { ELSEWHERE };
            let slot = &mut issued[client as usize];
            match kind {
                // A fresh write, or a same-id retry of the client's newest.
                0..=2 => {
                    if kind < 2 || *slot == 0 {
                        *slot += 1;
                    }
                    let cmd = Command::new(id(client, *slot), Bytes::from_static(b"w"));
                    compacted.accept(cmd.clone(), origin);
                    whole.accept(cmd, origin);
                }
                3 => {
                    compacted.commit(arg % 5);
                    whole.commit(arg % 5);
                }
                _ => {
                    compacted.restart();
                    whole.restart();
                }
            }
            prop_assert!(log_head(&whole.sm.log).is_none());
            prop_assert_eq!(compacted.observed(), whole.observed());
        }
    }
}
