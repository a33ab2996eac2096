//! The per-replica node thread.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};

use rsm_core::batch::{Batch, BatchPolicy};
use rsm_core::command::{Command, CommandId, Committed, Reply};
use rsm_core::id::ReplicaId;
use rsm_core::obs::{names, span_key, TraceStage};
use rsm_core::protocol::{Context, Protocol, TimerToken};
use rsm_core::sm::StateMachine;
use rsm_core::time::{Micros, MonotonicStamper};

use rsm_obs::{NodeObs, Tracer};
use rsm_transport::MsgSink;

use crate::net::{NetInput, Wire};

/// Where a node's outbound peer messages go — decided once at cluster
/// spawn by the configured [`ClusterTransport`](crate::ClusterTransport).
pub(crate) enum Outbound<P: Protocol> {
    /// In-process transport: every message is a channel send to the
    /// WAN-emulator thread, which routes it to the destination inbox
    /// after the emulated delay.
    Wan(Sender<NetInput<P::Msg>>),
    /// Socket transport: messages are encoded once and framed onto
    /// per-peer TCP/UDS links by an `rsm_transport::Hub` (which also
    /// short-circuits self-sends back into this node's inbox).
    Socket(Box<dyn MsgSink<P::Msg>>),
}

/// Input to a node thread.
pub(crate) enum NodeInput<P: Protocol> {
    /// A peer message delivered by the network thread.
    Msg(Wire<P::Msg>),
    /// A client request routed to this (local) replica.
    Request(Command),
    /// Graceful shutdown; the thread answers with its final report.
    Stop,
}

/// What a node reports when it stops.
#[derive(Debug)]
pub struct NodeReport {
    /// The replica.
    pub id: ReplicaId,
    /// Commands executed over the node's lifetime.
    pub commit_count: u64,
    /// Final state machine snapshot.
    pub snapshot: Bytes,
    /// Number of stable log records written.
    pub log_len: usize,
}

/// A batch of replies to co-located clients, shipped as **one** channel
/// send per drained protocol callback instead of one send per reply —
/// the reply-path analogue of request batching.
pub(crate) type ReplyBatch = Vec<(CommandId, Reply)>;

pub(crate) struct NodeHarness<P: Protocol> {
    pub id: ReplicaId,
    pub proto: P,
    pub sm: Box<dyn StateMachine>,
    pub log: Vec<P::LogRec>,
    pub inbox: Receiver<NodeInput<P>>,
    pub outbound: Outbound<P>,
    pub reply_tx: Sender<ReplyBatch>,
    pub epoch: Instant,
    pub clock_offset_us: i64,
    pub batch: BatchPolicy,
    /// Metrics sink when the cluster observes (`ClusterConfig::observe`).
    pub obs: Option<NodeObs>,
    /// Span collector when the cluster observes. Trace stamps carry
    /// **monotonic microseconds since the cluster epoch** — the shared
    /// cross-node timeline — never the per-node skewed protocol clock.
    pub tracer: Option<Tracer>,
    /// How often `Protocol::obs_poll` runs (from `ObsConfig`); `None`
    /// when not observing.
    pub poll_every: Option<Duration>,
}

struct NodeCtx<'a, P: Protocol> {
    id: ReplicaId,
    epoch: Instant,
    clock_offset_us: i64,
    stamper: &'a mut MonotonicStamper,
    log: &'a mut Vec<P::LogRec>,
    sm: &'a mut dyn StateMachine,
    outbound: &'a mut Outbound<P>,
    /// Replies buffered during one protocol callback; the harness
    /// flushes them as one [`ReplyBatch`] when the callback returns.
    replies: &'a mut ReplyBatch,
    timers: &'a mut BinaryHeap<Reverse<(Instant, u64, TimerToken)>>,
    timer_seq: &'a mut u64,
    commit_count: &'a mut u64,
    suppress_replies: bool,
    obs: Option<&'a mut NodeObs>,
    tracer: Option<&'a Tracer>,
}

impl<'a, P: Protocol> NodeCtx<'a, P> {
    fn raw_clock(&self) -> Micros {
        let elapsed = self.epoch.elapsed().as_micros() as i64;
        (elapsed + self.clock_offset_us).max(0) as Micros
    }

    /// Monotonic micros since the cluster epoch — the trace-stamp
    /// timeline. Unlike [`raw_clock`](NodeCtx::raw_clock) it carries no
    /// per-node offset, so stamps from different replicas are
    /// comparable.
    fn mono_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

impl<'a, P: Protocol> Context<P> for NodeCtx<'a, P> {
    fn clock(&mut self) -> Micros {
        let raw = self.raw_clock();
        self.stamper.stamp(raw)
    }

    fn send(&mut self, to: ReplicaId, msg: P::Msg) {
        match &mut *self.outbound {
            Outbound::Wan(tx) => {
                let _ = tx.send(NetInput::Send(Wire {
                    from: self.id,
                    to,
                    msg,
                }));
            }
            Outbound::Socket(sink) => sink.send_msg(to, msg),
        }
    }

    fn log_append(&mut self, rec: P::LogRec) {
        self.log.push(rec);
    }

    fn log_rewrite(&mut self, recs: Vec<P::LogRec>) {
        *self.log = recs;
    }

    fn commit(&mut self, committed: Committed) -> Bytes {
        let result = self.sm.apply(&committed.cmd);
        *self.commit_count += 1;
        if let Some(o) = &mut self.obs {
            o.count(names::EXECUTED, 1);
        }
        if committed.origin == self.id && !self.suppress_replies {
            let id = committed.cmd.id;
            if let Some(t) = self.tracer {
                // Commit and execution are one synchronous step in this
                // runtime: the protocol decided the command and the state
                // machine applied it just above.
                let (key, at, me) = (span_key(id), self.mono_us(), self.id.as_u16());
                t.record_at_origin(key, me, TraceStage::Committed.index(), at);
                t.record_at_origin(key, me, TraceStage::Executed.index(), at);
            }
            self.replies.push((id, Reply::new(id, result.clone())));
        }
        result
    }

    fn set_timer(&mut self, after: Micros, token: TimerToken) {
        *self.timer_seq += 1;
        let due = Instant::now() + Duration::from_micros(after);
        self.timers.push(Reverse((due, *self.timer_seq, token)));
    }

    fn sm_snapshot(&mut self) -> Option<Bytes> {
        Some(self.sm.snapshot())
    }

    fn sm_install(&mut self, snapshot: Bytes) -> bool {
        self.sm.restore(&snapshot)
    }

    fn sm_read(&mut self, cmd: &Command) -> Option<Bytes> {
        self.sm.query(cmd)
    }

    fn send_reply(&mut self, reply: Reply) {
        if !self.suppress_replies {
            self.replies.push((reply.id, reply));
        }
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
            t.record(span_key(id), stage.index(), self.mono_us());
        }
    }
}

impl<P: Protocol> NodeHarness<P> {
    /// The node thread body: dispatch messages, requests, and timers until
    /// asked to stop.
    pub(crate) fn run(mut self) -> NodeReport {
        let mut stamper = MonotonicStamper::new();
        let mut timers: BinaryHeap<Reverse<(Instant, u64, TimerToken)>> = BinaryHeap::new();
        let mut timer_seq = 0u64;
        let mut commit_count = 0u64;
        let mut replies: ReplyBatch = Vec::new();

        // Run one protocol callback, then flush every reply it produced
        // as ONE channel send (reply batching: co-located clients cost
        // one send per drained batch, not one per reply).
        macro_rules! dispatch {
            (|$c:ident| $body:expr) => {{
                {
                    let mut $c = NodeCtx {
                        id: self.id,
                        epoch: self.epoch,
                        clock_offset_us: self.clock_offset_us,
                        stamper: &mut stamper,
                        log: &mut self.log,
                        sm: self.sm.as_mut(),
                        outbound: &mut self.outbound,
                        replies: &mut replies,
                        timers: &mut timers,
                        timer_seq: &mut timer_seq,
                        commit_count: &mut commit_count,
                        suppress_replies: false,
                        obs: self.obs.as_mut(),
                        tracer: self.tracer.as_ref(),
                    };
                    $body;
                }
                if !replies.is_empty() {
                    let _ = self.reply_tx.send(std::mem::take(&mut replies));
                }
            }};
        }

        dispatch!(|c| self.proto.on_start(&mut c));

        // First sweep fires immediately so every gauge series exists
        // from node start (a short-lived cluster would otherwise
        // snapshot before the first interval elapses).
        let mut next_poll = self.poll_every.map(|_| Instant::now());

        loop {
            // Fire due timers first.
            let now = Instant::now();
            while timers
                .peek()
                .is_some_and(|Reverse((due, _, _))| *due <= now)
            {
                let Reverse((_, _, token)) = timers.pop().expect("peeked");
                dispatch!(|c| self.proto.on_timer(token, &mut c));
            }

            // Periodic gauge poll (observing clusters only): ask the
            // protocol for its instantaneous state — stable-timestamp
            // lag, per-peer LatestTV staleness, ballot.
            if let (Some(every), Some(np)) = (self.poll_every, next_poll) {
                if now >= np {
                    dispatch!(|c| self.proto.obs_poll(&mut c));
                    next_poll = Some(Instant::now() + every);
                }
            }

            // Sleep until the next timer or gauge poll, whichever is
            // sooner (forever when neither is pending).
            let timer_due = timers.peek().map(|Reverse((due, _, _))| *due);
            let deadline = match (timer_due, next_poll) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let input = match deadline {
                Some(due) => {
                    let timeout = due.saturating_duration_since(Instant::now());
                    match self.inbox.recv_timeout(timeout) {
                        Ok(i) => i,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
                None => match self.inbox.recv() {
                    Ok(i) => i,
                    Err(_) => break,
                },
            };

            match input {
                NodeInput::Msg(wire) => {
                    dispatch!(|c| self.proto.on_message(wire.from, wire.msg, &mut c));
                }
                NodeInput::Request(cmd) if cmd.read_only => {
                    // Reads bypass the batching pipeline entirely: a
                    // `Get` must never wait behind a write batch.
                    // Straight to the protocol's read path.
                    dispatch!(|c| self.proto.on_client_read(cmd, &mut c));
                }
                NodeInput::Request(cmd) => {
                    // Coalesce opportunistically: take whatever requests
                    // are already queued (up to the policy cap) into one
                    // batch, never waiting for more. A non-request input
                    // ends the run and is handled right after, preserving
                    // arrival order.
                    let mut cmds = vec![cmd];
                    let mut interrupt: Option<NodeInput<P>> = None;
                    while self.batch.fits(cmds.len()) {
                        match self.inbox.try_recv() {
                            Ok(NodeInput::Request(c)) if !c.read_only => cmds.push(c),
                            Ok(other) => {
                                // A read or a message ends the run (and
                                // is handled right after, preserving
                                // arrival order): reads never join
                                // batches.
                                interrupt = Some(other);
                                break;
                            }
                            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => break,
                        }
                    }
                    if let Some(t) = &self.tracer {
                        // Span origin: this node (the command's local
                        // replica). Reads never reach here — they skip
                        // the ordering pipeline the span describes.
                        let at = self.epoch.elapsed().as_micros() as u64;
                        for c in &cmds {
                            t.begin(span_key(c.id), self.id.as_u16(), at);
                        }
                    }
                    dispatch!(|c| self.proto.on_client_batch(Batch::new(cmds), &mut c));
                    match interrupt {
                        None => {}
                        Some(NodeInput::Msg(wire)) => {
                            dispatch!(|c| self.proto.on_message(wire.from, wire.msg, &mut c));
                        }
                        Some(NodeInput::Request(read)) => {
                            debug_assert!(read.read_only, "only reads interrupt a run");
                            dispatch!(|c| self.proto.on_client_read(read, &mut c));
                        }
                        Some(NodeInput::Stop) => break,
                    }
                }
                NodeInput::Stop => break,
            }
        }

        NodeReport {
            id: self.id,
            commit_count,
            snapshot: self.sm.snapshot(),
            log_len: self.log.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use kvstore::KvStore;
    use rsm_core::id::ClientId;
    use std::sync::{Arc, Mutex};

    #[derive(Debug, PartialEq)]
    enum Call {
        Batch(usize),
        Read,
        Message,
    }

    /// Records which driver callback ran, in order; commits nothing.
    struct Recorder {
        calls: Arc<Mutex<Vec<Call>>>,
    }

    impl Recorder {
        fn push(&self, call: Call) {
            self.calls.lock().expect("recorder lock").push(call);
        }
    }

    impl Protocol for Recorder {
        type Msg = ();
        type LogRec = ();
        fn id(&self) -> ReplicaId {
            ReplicaId::new(0)
        }
        fn on_start(&mut self, _: &mut dyn Context<Self>) {}
        fn on_client_request(&mut self, _: Command, _: &mut dyn Context<Self>) {
            unreachable!("the node loop only calls the batch and read entry points");
        }
        fn on_client_batch(&mut self, batch: Batch, _: &mut dyn Context<Self>) {
            self.push(Call::Batch(batch.len()));
        }
        fn on_client_read(&mut self, _: Command, _: &mut dyn Context<Self>) {
            self.push(Call::Read);
        }
        fn on_message(&mut self, _: ReplicaId, _: (), _: &mut dyn Context<Self>) {
            self.push(Call::Message);
        }
        fn on_timer(&mut self, _: TimerToken, _: &mut dyn Context<Self>) {}
        fn on_recover(&mut self, _: &[()], _: &mut dyn Context<Self>) {}
    }

    /// Runs a node over a fully pre-loaded inbox (nothing races the
    /// drain) that ends in `Stop`, and returns the callback sequence.
    fn drain(policy: BatchPolicy, inputs: Vec<NodeInput<Recorder>>) -> Vec<Call> {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let (inbox_tx, inbox) = unbounded();
        for input in inputs {
            inbox_tx.send(input).expect("inbox open");
        }
        inbox_tx.send(NodeInput::Stop).expect("inbox open");
        let (net_tx, _net_rx) = unbounded();
        let (reply_tx, _reply_rx) = unbounded();
        let harness = NodeHarness {
            id: ReplicaId::new(0),
            proto: Recorder {
                calls: Arc::clone(&calls),
            },
            sm: Box::new(KvStore::new()),
            log: Vec::new(),
            inbox,
            outbound: Outbound::Wan(net_tx),
            reply_tx,
            epoch: Instant::now(),
            clock_offset_us: 0,
            batch: policy,
            obs: None,
            tracer: None,
            poll_every: None,
        };
        harness.run();
        let mut calls = calls.lock().expect("recorder lock");
        std::mem::take(&mut *calls)
    }

    fn id(seq: u64) -> CommandId {
        CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq)
    }

    fn write(seq: u64) -> NodeInput<Recorder> {
        NodeInput::Request(Command::new(id(seq), Bytes::from_static(b"w")))
    }

    #[test]
    fn reads_and_messages_end_a_write_run_and_keep_arrival_order() {
        let msg = NodeInput::Msg(Wire {
            from: ReplicaId::new(1),
            to: ReplicaId::new(0),
            msg: (),
        });
        let read = NodeInput::Request(Command::read(id(3), Bytes::from_static(b"r")));
        let inputs = vec![write(1), write(2), read, write(4), msg, write(5)];
        assert_eq!(
            drain(BatchPolicy::max(8), inputs),
            [
                Call::Batch(2),
                Call::Read,
                Call::Batch(1),
                Call::Message,
                Call::Batch(1), // its run is ended by `Stop`
            ]
        );
    }

    #[test]
    fn a_deep_write_queue_splits_at_the_cap() {
        let inputs = (1..=20).map(write).collect();
        assert_eq!(
            drain(BatchPolicy::max(8), inputs),
            [Call::Batch(8), Call::Batch(8), Call::Batch(4)]
        );
    }
}
