//! One replica under any driver, and the workspace's one driver-side
//! [`Context`] implementation.
//!
//! A [`Node`] is what a replica *is*, whichever scheduler runs it: the
//! protocol, its state machine, its stable log, how many commands it has
//! executed, and its observability sinks. Three drivers are schedulers
//! around it — `simnet`'s virtual time, `rsm-runtime`'s replica threads,
//! and [`Script`], the hand-stepped driver of the protocol tests: each
//! decides *when* a callback runs and hands [`Node::with`] a [`Driver`]
//! covering only what differs between them (the clock, the network,
//! timers, and where an executed command's reply goes). Applying a
//! command, counting it, logging, snapshots, local reads and every
//! `obs_*` hook are implemented once, here, so a protocol's unit tests
//! run the same context code as a simulation or a live cluster. So is
//! the rule that cuts a replica's inbox into client batches, reads and
//! peer messages, [`intake`]: the simulator batches as the runtime does.

use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

use bytes::Bytes;
use rsm_obs::{NodeObs, Tracer};

use crate::batch::{Batch, BatchPolicy};
use crate::command::{Command, CommandId, Committed, Reply};
use crate::id::ReplicaId;
use crate::obs::{names, span_key, TraceStage};
use crate::protocol::{Context, Protocol, TimerToken};
use crate::sm::StateMachine;
use crate::time::Micros;

/// What a scheduler supplies to a [`Node`]'s context: the part of
/// [`Context`] that differs between virtual time and the wall clock.
pub trait Driver<P: Protocol> {
    /// Reads the replica's physical clock ([`Context::clock`]).
    fn clock(&mut self) -> Micros;

    /// Now, on the trace timeline: one timeline for every replica of the
    /// deployment, never the replica's own (possibly skewed) clock.
    fn trace_now(&self) -> u64;

    /// Sends `msg` to replica `to` ([`Context::send`]).
    fn send(&mut self, to: ReplicaId, msg: P::Msg);

    /// Arms a one-shot timer ([`Context::set_timer`]).
    fn set_timer(&mut self, after: Micros, token: TimerToken);

    /// The state machine executed `committed`, producing `result`; the
    /// node has already counted it. Replying to the client, if this
    /// replica is its origin, is the driver's business.
    fn executed(&mut self, committed: Committed, result: &Bytes, tracer: Option<&Tracer>);

    /// A locally served read is answered with `reply`
    /// ([`Context::send_reply`]).
    fn answered(&mut self, reply: Reply, tracer: Option<&Tracer>);

    /// A snapshot install jumped the state machine over commands this
    /// replica never executed one by one.
    fn installed(&mut self) {}
}

/// One replica: its protocol and everything the protocol's context
/// reaches that is the same under every driver.
pub struct Node<P: Protocol> {
    /// The replication protocol.
    pub proto: P,
    /// The replicated state machine.
    pub sm: Box<dyn StateMachine>,
    /// The stable log: survives a crash, replayed on recovery.
    pub log: Vec<P::LogRec>,
    /// Commands the state machine has executed, replays included.
    pub executed: u64,
    /// Metrics sink, when observing.
    pub obs: Option<NodeObs>,
    /// Span collector, when observing.
    pub tracer: Option<Tracer>,
}

impl<P: Protocol> Node<P> {
    /// A replica with an empty log that has executed nothing.
    pub fn new(
        proto: P,
        sm: Box<dyn StateMachine>,
        obs: Option<NodeObs>,
        tracer: Option<Tracer>,
    ) -> Self {
        Node {
            proto,
            sm,
            log: Vec::new(),
            executed: 0,
            obs,
            tracer,
        }
    }

    /// Runs `f` — one protocol callback, or a driver's whole drain of
    /// them — against this node's context over `driver`.
    pub fn with<D: Driver<P>, R>(
        &mut self,
        driver: &mut D,
        f: impl FnOnce(&mut P, &mut dyn Context<P>) -> R,
    ) -> R {
        let Node {
            proto,
            sm,
            log,
            executed,
            obs,
            tracer,
        } = self;
        let mut ctx = NodeCtx {
            sm: sm.as_mut(),
            log,
            executed,
            obs: obs.as_mut(),
            tracer: tracer.as_ref(),
            driver,
        };
        f(proto, &mut ctx)
    }
}

/// Hands `proto` one client batch of `cmds`, as a scheduler does once it
/// has cut a run of queued writes, and counts the batch and its commands
/// when observing.
pub fn propose<P: Protocol>(proto: &mut P, ctx: &mut dyn Context<P>, cmds: Vec<Command>) {
    ctx.obs_count(names::CLIENT_BATCHES, 1);
    ctx.obs_count(names::BATCHED_COMMANDS, cmds.len() as u64);
    proto.on_client_batch(Batch::new(cmds), ctx);
}

/// One input a scheduler took for a replica, in arrival order. `M` is the
/// peer message as the scheduler carries it; [`intake`] never looks
/// inside.
#[derive(Debug)]
pub enum Input<M> {
    /// A message from peer replica `.0`.
    Msg(ReplicaId, M),
    /// A client write.
    Write(Command),
    /// A client read ([`Command::read_only`]).
    Read(Command),
}

impl<M> Input<M> {
    /// A client command: a read if it is read-only, a write otherwise.
    pub fn request(cmd: Command) -> Self {
        if cmd.read_only {
            Input::Read(cmd)
        } else {
            Input::Write(cmd)
        }
    }
}

/// What a scheduler hands its protocol next: a client batch (to
/// [`propose`]), a read (to [`Protocol::on_client_read`]) or a peer
/// message (to [`Protocol::on_message`]).
#[derive(Debug)]
pub enum Action<M> {
    /// A run of writes, in arrival order; never empty.
    Batch(Vec<Command>),
    /// A client read.
    Read(Command),
    /// A message from peer replica `.0`.
    Msg(ReplicaId, M),
}

/// The intake rule: turns the input `first`, and the inputs `next` yields
/// behind it, into the actions it appends to `out`. Both schedulers cut
/// an inbox with it, simnet's inbox step and the runtime's node loop.
///
/// A message or a read is one action of its own. A write opens a
/// **run**: the writes `next` yields join its batch, never waiting for
/// more; a peer message met on the way is set aside and does not end the
/// run; a read, the `policy` cap or the end of input (`next` yields
/// `None`) does. The batch goes first, then the set-aside messages in
/// arrival order, then the read that ended the run. So writes keep their
/// order among themselves and with reads, each link keeps its order, and
/// a message handled after newer writes is only a message on a slower
/// link, which every protocol tolerates. `next` is called only while a
/// run is open and below the cap, so a scheduler that pulls lazily takes
/// nothing the step does not use.
pub fn intake<M>(
    policy: BatchPolicy,
    first: Input<M>,
    mut next: impl FnMut() -> Option<Input<M>>,
    out: &mut VecDeque<Action<M>>,
) {
    let write = match first {
        Input::Write(cmd) => cmd,
        Input::Read(cmd) => return out.push_back(Action::Read(cmd)),
        Input::Msg(from, m) => return out.push_back(Action::Msg(from, m)),
    };
    let at = out.len();
    let mut run = vec![write];
    let mut ended_by = None;
    while policy.fits(run.len()) {
        match next() {
            Some(Input::Write(cmd)) => run.push(cmd),
            Some(Input::Msg(from, m)) => out.push_back(Action::Msg(from, m)),
            Some(Input::Read(cmd)) => {
                ended_by = Some(Action::Read(cmd));
                break;
            }
            None => break,
        }
    }
    out.insert(at, Action::Batch(run));
    out.extend(ended_by);
}

struct NodeCtx<'a, P: Protocol, D> {
    sm: &'a mut dyn StateMachine,
    log: &'a mut Vec<P::LogRec>,
    executed: &'a mut u64,
    obs: Option<&'a mut NodeObs>,
    tracer: Option<&'a Tracer>,
    driver: &'a mut D,
}

impl<P: Protocol, D: Driver<P>> Context<P> for NodeCtx<'_, P, D> {
    fn clock(&mut self) -> Micros {
        self.driver.clock()
    }

    fn send(&mut self, to: ReplicaId, msg: P::Msg) {
        self.driver.send(to, msg);
    }

    fn log_append(&mut self, rec: P::LogRec) {
        self.log.push(rec);
    }

    fn log_rewrite(&mut self, recs: Vec<P::LogRec>) {
        *self.log = recs;
    }

    fn stable_log(&self) -> &[P::LogRec] {
        self.log
    }

    fn commit(&mut self, committed: Committed) -> Bytes {
        let result = self.sm.apply(&committed.cmd);
        *self.executed += 1;
        self.obs_count(names::EXECUTED, 1);
        self.driver.executed(committed, &result, self.tracer);
        result
    }

    fn set_timer(&mut self, after: Micros, token: TimerToken) {
        self.driver.set_timer(after, token);
    }

    fn sm_snapshot(&mut self) -> Bytes {
        self.sm.snapshot()
    }

    fn sm_install(&mut self, snapshot: Bytes) -> bool {
        let ok = self.sm.restore(&snapshot);
        if ok {
            self.driver.installed();
        }
        ok
    }

    fn sm_read(&mut self, cmd: &Command) -> Option<Bytes> {
        self.sm.query(cmd)
    }

    fn send_reply(&mut self, reply: Reply) {
        self.driver.answered(reply, self.tracer);
    }

    fn obs_active(&self) -> bool {
        self.obs.is_some()
    }

    fn obs_count(&mut self, name: &'static str, delta: u64) {
        if let Some(o) = &mut self.obs {
            o.count(name, delta);
        }
    }

    fn obs_gauge(&mut self, name: &'static str, value: i64) {
        if let Some(o) = &mut self.obs {
            o.gauge(name, value);
        }
    }

    fn obs_gauge_idx(&mut self, name: &'static str, idx: ReplicaId, value: i64) {
        if let Some(o) = &mut self.obs {
            o.gauge_idx(name, idx.as_u16(), value);
        }
    }

    fn trace(&mut self, id: CommandId, stage: TraceStage) {
        if let Some(t) = self.tracer {
            t.record(span_key(id), stage.index(), self.driver.trace_now());
        }
    }
}

/// A hand-stepped driver for tests and explorers: real [`Node`]s over one
/// fake clock each, where the caller decides which callback runs next —
/// a client request, the head of one link, one timer, a crash.
///
/// Replica `i` sits at position `i`. A test of one replica calls
/// [`on`](Script::on) and reads what it [`sent`](Scripted::sent); a
/// schedule [`flush`](Script::flush)es sends onto per-link FIFO queues
/// and [`deliver`](Script::deliver)s them one head at a time, so every
/// interleaving it reaches respects the channel contract of
/// [`protocol`](crate::protocol). Indexing a script gives a replica's
/// [`Scripted`] record.
pub struct Script<P: Protocol> {
    /// The replicas, replica `i` at position `i`.
    pub nodes: Vec<Node<P>>,
    drivers: Vec<Scripted<P>>,
}

/// One replica's side of a [`Script`]: its clock and every effect its
/// callbacks produced.
pub struct Scripted<P: Protocol> {
    /// The physical clock: each read first advances it by `clock_step`.
    pub clock: Micros,
    /// How far one clock read advances the clock (0 freezes it).
    pub clock_step: Micros,
    /// Sends not yet flushed onto the links, in send order.
    pub sent: Vec<(ReplicaId, P::Msg)>,
    /// Armed timers not yet fired, in arming order.
    pub timers: Vec<(Micros, TimerToken)>,
    /// Every command the state machine executed, replays included.
    pub executed: Vec<Committed>,
    /// Locally served read replies.
    pub replies: Vec<Reply>,
    /// Flushed sends in flight to each destination, oldest first.
    pub links: Vec<VecDeque<P::Msg>>,
}

impl<P: Protocol> Driver<P> for Scripted<P> {
    fn clock(&mut self) -> Micros {
        self.clock += self.clock_step;
        self.clock
    }

    fn trace_now(&self) -> u64 {
        self.clock
    }

    fn send(&mut self, to: ReplicaId, msg: P::Msg) {
        self.sent.push((to, msg));
    }

    fn set_timer(&mut self, after: Micros, token: TimerToken) {
        self.timers.push((after, token));
    }

    fn executed(&mut self, committed: Committed, _result: &Bytes, _tracer: Option<&Tracer>) {
        self.executed.push(committed);
    }

    fn answered(&mut self, reply: Reply, _tracer: Option<&Tracer>) {
        self.replies.push(reply);
    }
}

impl<P: Protocol> Script<P> {
    /// One replica per protocol, each over a fresh [`Recorder`] and a
    /// clock at 0 that steps 1 µs per read.
    pub fn new(protos: Vec<P>) -> Self {
        let n = protos.len();
        let nodes = protos
            .into_iter()
            .map(|p| Node::new(p, Box::new(Recorder::default()), None, None))
            .collect();
        let drivers = (0..n)
            .map(|_| Scripted {
                clock: 0,
                clock_step: 1,
                sent: Vec::new(),
                timers: Vec::new(),
                executed: Vec::new(),
                replies: Vec::new(),
                links: (0..n).map(|_| VecDeque::new()).collect(),
            })
            .collect();
        Script { nodes, drivers }
    }

    /// Runs one callback at replica `r` against its production context,
    /// returning what the callback returns.
    pub fn on<R>(&mut self, r: usize, f: impl FnOnce(&mut P, &mut dyn Context<P>) -> R) -> R {
        self.nodes[r].with(&mut self.drivers[r], f)
    }

    /// Hands replica `r` a message from `from` that no link carried: a
    /// test's stand-in for a peer it does not run.
    pub fn receive(&mut self, r: usize, from: ReplicaId, msg: P::Msg) {
        self.on(r, |p, ctx| p.on_message(from, msg, ctx));
    }

    /// Moves replica `r`'s sends onto the tails of its outgoing links.
    pub fn flush(&mut self, r: usize) {
        let d = &mut self.drivers[r];
        for (to, msg) in std::mem::take(&mut d.sent) {
            d.links[to.index()].push_back(msg);
        }
    }

    /// Delivers the head of link `from → to`, if any, and flushes what
    /// `to` sent in response. Returns whether a message was delivered.
    pub fn deliver(&mut self, from: usize, to: usize) -> bool {
        let Some(msg) = self.drivers[from].links[to].pop_front() else {
            return false;
        };
        self.receive(to, ReplicaId::new(from as u16), msg);
        self.flush(to);
        true
    }

    /// Fires replica `r`'s most recently armed timer, if any (see
    /// [`fire`](Script::fire)). Returns whether one fired.
    pub fn fire_timer(&mut self, r: usize) -> bool {
        let Some(last) = self.drivers[r].timers.len().checked_sub(1) else {
            return false;
        };
        self.fire(r, last);
        true
    }

    /// Fires replica `r`'s `i`-th pending timer: the clock first advances
    /// by the timer's delay, then the callback runs and its sends are
    /// flushed.
    pub fn fire(&mut self, r: usize, i: usize) {
        let (after, token) = self.drivers[r].timers.remove(i);
        self.drivers[r].clock += after;
        self.on(r, |p, ctx| p.on_timer(token, ctx));
        self.flush(r);
    }

    /// Delivers every link in turn, then fires every timer, until nothing
    /// is left to do. A protocol that re-arms a timer on every firing
    /// never drains.
    pub fn drain(&mut self) {
        let n = self.nodes.len();
        loop {
            let mut progressed = false;
            for from in 0..n {
                for to in 0..n {
                    while self.deliver(from, to) {
                        progressed = true;
                    }
                }
            }
            for r in 0..n {
                while self.fire_timer(r) {
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// Crashes replica `r` and restarts it as `proto`, as simnet does: the
    /// stable log survives, the state machine is reset, the crashed
    /// incarnation's unflushed sends, timers, executions and replies are
    /// dropped, and the new one replays the log (`on_recover`) and starts
    /// (`on_start`). Links are left as they are.
    pub fn restart(&mut self, r: usize, proto: P) {
        let node = &mut self.nodes[r];
        node.proto = proto;
        node.sm.reset();
        let log = node.log.clone();
        let d = &mut self.drivers[r];
        d.sent.clear();
        d.timers.clear();
        d.executed.clear();
        d.replies.clear();
        self.on(r, |p, ctx| p.on_recover(&log, ctx));
        self.on(r, |p, ctx| p.on_start(ctx));
    }

    /// The sequence numbers replica `r`'s state machine holds, read from
    /// its snapshot: what it applied, or what an install jumped it to.
    ///
    /// # Panics
    ///
    /// Panics if the state machine's snapshot is not a [`Recorder`]'s.
    pub fn applied(&self, r: usize) -> Vec<u64> {
        Recorder::decode(&self.nodes[r].sm.snapshot()).expect("a Recorder snapshot")
    }
}

impl<P: Protocol> Index<usize> for Script<P> {
    type Output = Scripted<P>;

    fn index(&self, r: usize) -> &Scripted<P> {
        &self.drivers[r]
    }
}

impl<P: Protocol> IndexMut<usize> for Script<P> {
    fn index_mut(&mut self, r: usize) -> &mut Scripted<P> {
        &mut self.drivers[r]
    }
}

/// The state machine of the protocol tests: it records the sequence
/// number of every command it applies and answers with the command's
/// payload. Its snapshot is those sequence numbers, 8 big-endian bytes
/// each; it restores any snapshot of that shape and answers read-only
/// commands locally.
#[derive(Debug, Default)]
pub struct Recorder {
    applied: Vec<u64>,
}

impl Recorder {
    /// The sequence numbers in `snapshot`, or `None` if its length is
    /// not a multiple of 8.
    fn decode(snapshot: &[u8]) -> Option<Vec<u64>> {
        let words = snapshot.chunks_exact(8);
        let whole = words.remainder().is_empty();
        whole.then(|| {
            let word = |w: &[u8]| u64::from_be_bytes(w.try_into().expect("8 bytes"));
            words.map(word).collect()
        })
    }
}

impl StateMachine for Recorder {
    fn apply(&mut self, cmd: &Command) -> Bytes {
        self.applied.push(cmd.id.seq);
        cmd.payload.clone()
    }

    fn snapshot(&self) -> Bytes {
        let bytes: Vec<u8> = self.applied.iter().flat_map(|s| s.to_be_bytes()).collect();
        Bytes::from(bytes)
    }

    fn reset(&mut self) {
        self.applied.clear();
    }

    fn restore(&mut self, snapshot: &[u8]) -> bool {
        let Some(applied) = Recorder::decode(snapshot) else {
            return false;
        };
        self.applied = applied;
        true
    }

    fn query(&self, cmd: &Command) -> Option<Bytes> {
        cmd.read_only.then(|| cmd.payload.clone())
    }
}

/// A [`Recorder`] that refuses every snapshot and keeps
/// [`StateMachine`]'s default `query`: a state machine that can neither
/// restore a checkpoint nor serve a local read, so reads are replicated
/// like writes and a replica whose log starts with a checkpoint refuses
/// to recover.
#[derive(Debug, Default)]
pub struct ApplyOnly(Recorder);

impl StateMachine for ApplyOnly {
    fn apply(&mut self, cmd: &Command) -> Bytes {
        self.0.apply(cmd)
    }

    fn snapshot(&self) -> Bytes {
        self.0.snapshot()
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn restore(&mut self, _snapshot: &[u8]) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ClientId;
    use crate::protocol::tests::Echo;

    fn r(i: u16) -> ReplicaId {
        ReplicaId::new(i)
    }

    fn cmd(seq: u64) -> Command {
        Command::new(
            CommandId::new(ClientId::new(r(0), 0), seq),
            Bytes::from_static(b"x"),
        )
    }

    fn echoes(n: u16) -> Script<Echo> {
        Script::new((0..n).map(|i| Echo::new(r(i))).collect())
    }

    fn write(seq: u64) -> Input<u32> {
        Input::Write(cmd(seq))
    }

    fn read(seq: u64) -> Input<u32> {
        Input::Read(Command::read(cmd(seq).id, Bytes::from_static(b"r")))
    }

    fn msg(from: u16, payload: u32) -> Input<u32> {
        Input::Msg(r(from), payload)
    }

    /// An action, by the sequence numbers of its commands.
    #[derive(Debug, PartialEq)]
    enum Step {
        Batch(Vec<u64>),
        Read(u64),
        Msg(u16, u32),
    }

    /// The actions a scheduler takes for `inputs` under a cap of `cap`,
    /// one intake step after another until the input runs out, as
    /// simnet's inbox step does.
    fn cut(cap: usize, inputs: Vec<Input<u32>>) -> Vec<Step> {
        let mut inputs = inputs.into_iter();
        let mut out = VecDeque::new();
        while let Some(first) = inputs.next() {
            intake(BatchPolicy::max(cap), first, || inputs.next(), &mut out);
        }
        let step = |action| match action {
            Action::Batch(cmds) => Step::Batch(cmds.iter().map(|c| c.id.seq).collect()),
            Action::Read(c) => Step::Read(c.id.seq),
            Action::Msg(from, payload) => Step::Msg(from.as_u16(), payload),
        };
        out.into_iter().map(step).collect()
    }

    #[test]
    fn reads_end_a_write_run_and_messages_wait_behind_it() {
        use Step::{Batch, Msg, Read};
        let inputs = vec![write(1), write(2), read(3), write(4), msg(1, 7), write(5)];
        assert_eq!(
            cut(8, inputs),
            [Batch(vec![1, 2]), Read(3), Batch(vec![4, 5]), Msg(1, 7)]
        );
        // Writes and reads arriving together, interleaved: a read neither
        // joins a batch nor overtakes the write before it.
        let (mut inputs, mut want) = (Vec::new(), Vec::new());
        for seq in 0..10u64 {
            if seq.is_multiple_of(2) {
                inputs.push(write(seq));
                want.push(Batch(vec![seq]));
            } else {
                inputs.push(read(seq));
                want.push(Read(seq));
            }
        }
        assert_eq!(cut(64, inputs), want);
        // The read that ends a run follows the messages the run set aside.
        assert_eq!(
            cut(8, vec![write(1), msg(2, 0), read(2)]),
            [Batch(vec![1]), Msg(2, 0), Read(2)]
        );
    }

    #[test]
    fn messages_inside_a_write_run_wait_for_its_batch() {
        use Step::{Batch, Msg};
        // Five writes with the messages of two links between them: one
        // batch, then the messages in arrival order.
        let inputs = vec![
            write(1),
            msg(1, 0),
            write(2),
            msg(2, 0),
            write(3),
            msg(1, 1),
            write(4),
            msg(2, 1),
            write(5),
        ];
        let after = [Msg(1, 0), Msg(2, 0), Msg(1, 1), Msg(2, 1)];
        let mut want = vec![Batch(vec![1, 2, 3, 4, 5])];
        want.extend(after);
        assert_eq!(cut(8, inputs), want);
        // Outside a run a message is handled at once.
        assert_eq!(
            cut(8, vec![msg(1, 0), write(1), msg(1, 1)]),
            [Msg(1, 0), Batch(vec![1]), Msg(1, 1)]
        );
    }

    #[test]
    fn a_deep_write_queue_splits_at_the_cap() {
        let sizes = |cap, n| -> Vec<usize> {
            let steps = cut(cap, (1..=n).map(write).collect());
            let size = |s: &Step| match s {
                Step::Batch(seqs) => seqs.len(),
                other => panic!("not a batch: {other:?}"),
            };
            steps.iter().map(size).collect()
        };
        assert_eq!(sizes(1, 10), [1; 10], "a cap of 1 batches nothing");
        assert_eq!(sizes(4, 10), [4, 4, 2]);
        assert_eq!(sizes(8, 20), [8, 8, 4]);
        assert_eq!(sizes(64, 10), [10]);
        // The cap ends a run as a read does: the messages it set aside
        // follow its batch, ahead of the next run.
        use Step::{Batch, Msg};
        assert_eq!(
            cut(2, vec![write(1), msg(1, 0), write(2), write(3)]),
            [Batch(vec![1, 2]), Msg(1, 0), Batch(vec![3])]
        );
    }

    #[test]
    fn intake_pulls_only_what_the_step_uses() {
        let mut out = VecDeque::new();
        let mut pulls = 0;
        let mut pull = || {
            pulls += 1;
            Some(write(pulls))
        };
        intake(BatchPolicy::max(3), msg(1, 0), &mut pull, &mut out);
        intake(BatchPolicy::max(3), read(9), &mut pull, &mut out);
        intake(BatchPolicy::max(3), write(0), &mut pull, &mut out);
        assert_eq!(
            pulls, 2,
            "a lone input pulls nothing; a run stops at its cap"
        );
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn a_link_is_fifo_and_links_interleave_freely() {
        let mut s = echoes(3);
        s.on(0, |_, ctx| {
            ctx.send(r(1), cmd(1));
            ctx.send(r(2), cmd(2));
            ctx.send(r(1), cmd(3));
        });
        s.on(2, |_, ctx| ctx.send(r(1), cmd(4)));
        assert_eq!(s[0].sent.len(), 3, "nothing moves before a flush");
        assert!(!s.deliver(0, 1));
        s.flush(0);
        s.flush(2);
        assert!(s[0].sent.is_empty());
        // Link 2 → 1 overtakes link 0 → 1; within link 0 → 1 the later
        // send never overtakes the earlier one.
        assert!(s.deliver(2, 1));
        assert!(s.deliver(0, 1));
        assert!(s.deliver(0, 2));
        assert!(s.deliver(0, 1));
        assert!(!s.deliver(0, 1));
        let seqs = |s: &Script<Echo>, i: usize| -> Vec<(ReplicaId, u64)> {
            let received = &s.nodes[i].proto.received;
            received.iter().map(|(from, c)| (*from, c.id.seq)).collect()
        };
        assert_eq!(seqs(&s, 1), [(r(2), 4), (r(0), 1), (r(0), 3)]);
        assert_eq!(seqs(&s, 2), [(r(0), 2)]);
    }

    #[test]
    fn restart_replays_the_log_to_the_same_prefix_and_snapshot() {
        let mut s = echoes(1);
        s.on(0, |p, ctx| p.on_start(ctx));
        for seq in 1..=3 {
            s.on(0, |p, ctx| p.on_client_batch(Batch::single(cmd(seq)), ctx));
        }
        let order = |s: &Script<Echo>| -> Vec<(u64, u64)> {
            let executed = s[0].executed.iter();
            executed.map(|c| (c.cmd.id.seq, c.order_hint)).collect()
        };
        let executed = order(&s);
        let snapshot = s.nodes[0].sm.snapshot();
        assert_eq!(s.applied(0), [1, 2, 3]);

        s.restart(0, Echo::new(r(0)));
        assert_eq!(order(&s), executed, "replay re-executes the prefix");
        assert_eq!(s.nodes[0].sm.snapshot(), snapshot);
        assert_eq!(s.nodes[0].executed, 6, "replays count as executions");
        assert_eq!(s[0].timers, [(5, TimerToken(1))], "old timers died");

        // A timer fire advances the clock by its delay.
        let before = s[0].clock;
        assert!(s.fire_timer(0));
        assert_eq!(s[0].clock, before + 5);
        assert!(!s.fire_timer(0));
    }

    #[test]
    fn the_context_reads_back_the_log_it_wrote() {
        let mut s = echoes(1);
        let seqs = |log: &[Command]| log.iter().map(|c| c.id.seq).collect::<Vec<_>>();
        let read = s.on(0, |_, ctx| {
            ctx.log_append(cmd(1));
            ctx.log_append(cmd(2));
            let before = seqs(ctx.stable_log());
            ctx.log_rewrite(vec![cmd(7)]);
            ctx.log_append(cmd(8));
            (before, seqs(ctx.stable_log()))
        });
        assert_eq!(read, (vec![1, 2], vec![7, 8]));
        assert_eq!(seqs(&s.nodes[0].log), [7, 8], "it is the node's log");
    }

    #[test]
    fn recorder_round_trips_its_snapshot_and_refuses_a_torn_one() {
        let mut sm = Recorder::default();
        for seq in [4, 9, 2] {
            assert_eq!(sm.apply(&cmd(seq)), Bytes::from_static(b"x"));
        }
        let snapshot = sm.snapshot();
        let mut copy = Recorder::default();
        assert!(copy.restore(&snapshot));
        assert_eq!(copy.applied, [4, 9, 2]);
        assert!(!copy.restore(&snapshot[..7]), "7 bytes is no snapshot");
        assert_eq!(copy.snapshot(), snapshot, "a refused restore is a no-op");

        let read = Command::read(cmd(5).id, Bytes::from_static(b"get"));
        assert_eq!(sm.query(&read), Some(Bytes::from_static(b"get")));
        assert_eq!(sm.query(&cmd(5)), None, "writes are not queries");
        let mut bare = ApplyOnly::default();
        bare.apply(&cmd(1));
        assert!(!bare.restore(&bare.snapshot()));
        assert_eq!(bare.query(&read), None);
    }
}
