//! The per-replica node thread.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};

use rsm_core::batch::BatchPolicy;
use rsm_core::command::{Command, CommandId, Committed, Reply};
use rsm_core::id::ReplicaId;
use rsm_core::node::{intake, propose, Action, Driver, Input, Node};
use rsm_core::obs::{span_key, TraceStage};
use rsm_core::protocol::{Protocol, TimerToken};
use rsm_core::time::{Micros, MonotonicStamper};

use rsm_obs::Tracer;
use rsm_transport::{recv_until, MsgSink};

/// Where a node's outbound peer messages go — decided once at cluster
/// spawn by the configured [`ClusterTransport`](crate::ClusterTransport).
pub(crate) enum Outbound<P: Protocol> {
    /// In-process transport: one `(inbox, scaled one-way delay)` pair per
    /// destination, indexed by replica (self included). A send stamps the
    /// message `due = now + delay` and pushes it straight into the
    /// destination's inbox; the receiving node holds it by the hold rule
    /// (`rsm_transport::recv_until`): never dispatched before `due`,
    /// released within `rsm_transport::EARLY` of it.
    InProcess(Vec<(Sender<NodeInput<P>>, Duration)>),
    /// Socket transport: messages are encoded once and framed onto
    /// per-peer TCP/UDS links by an `rsm_transport::Hub` (which also
    /// short-circuits self-sends back into this node's inbox). Each link
    /// writer holds a frame for the link delay, by the same hold rule,
    /// before it hits the socket, so these messages are due on arrival.
    Socket(Box<dyn MsgSink<P::Msg>>),
}

/// Input to a node thread.
pub(crate) enum NodeInput<P: Protocol> {
    /// A peer message. `due` is when the emulated link delivers it:
    /// `Some` on the in-process plane (the node holds the message until
    /// then — never dispatched earlier, and released within
    /// `rsm_transport::EARLY` of it), `None` when the plane already
    /// applied the delay.
    Msg {
        from: ReplicaId,
        msg: P::Msg,
        due: Option<Instant>,
    },
    /// A client request routed to this (local) replica, with the waiter
    /// of the blocking call behind it — `None` for a fire-and-forget
    /// submit, whose reply nobody reads.
    Request(Command, Option<Waiter>),
    /// Graceful shutdown; the thread answers with its final report.
    Stop,
}

/// A blocking caller's end of one command: where its reply goes.
pub(crate) struct Waiter {
    /// A channel of capacity one that this waiter alone sends on, once.
    pub tx: Sender<Reply>,
    /// When the caller stops listening.
    pub expires: Instant,
}

/// The table is swept for expired waiters whenever a registration finds
/// it at least this large, bounding the leak from callers that gave up:
/// their command was lost with a crashed peer, or is answered late.
const WAITER_SWEEP_MIN: usize = 1024;

/// The callers blocked on commands this replica took from its clients.
/// Owned by the node thread alone: a request registers its waiter before
/// the protocol sees the command, and the callback that executes the
/// command (or answers it from a cache) removes it and sends the reply.
#[derive(Default)]
struct Waiters(HashMap<CommandId, Waiter>);

impl Waiters {
    /// Registers the waiter for `id`, if the request has one, replacing —
    /// and so disconnecting — an earlier one: a retry resubmits the same
    /// id.
    fn register(&mut self, id: CommandId, waiter: Option<Waiter>) {
        let Some(waiter) = waiter else { return };
        if self.0.len() >= WAITER_SWEEP_MIN {
            let now = Instant::now();
            self.0.retain(|_, w| w.expires > now);
        }
        self.0.insert(id, waiter);
    }

    /// The intake's view of an inbox input, registering a request's
    /// waiter on the way; `None` for `Stop`.
    fn admit<P: Protocol>(&mut self, input: NodeInput<P>) -> Option<Input<Held<P::Msg>>> {
        Some(match input {
            NodeInput::Msg { from, msg, due } => Input::Msg(from, (msg, due)),
            NodeInput::Request(cmd, waiter) => {
                self.register(cmd.id, waiter);
                Input::request(cmd)
            }
            NodeInput::Stop => return None,
        })
    }

    /// Removes and returns the reply channel for `id`. A command is
    /// answered at most once per registration, so the send that follows
    /// finds room and the node thread never blocks on a caller.
    fn take(&mut self, id: CommandId) -> Option<Sender<Reply>> {
        self.0.remove(&id).map(|w| w.tx)
    }
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

/// A peer message as the node loop carries it through the intake: the
/// message and when its link delivers it (`NodeInput::Msg`'s `due`).
type Held<M> = (M, Option<Instant>);

/// A received peer message that is not due yet, ordered by
/// `(due, arrival seq)`.
struct InFlight<M> {
    due: Instant,
    seq: u64,
    from: ReplicaId,
    msg: M,
}

impl<M> PartialEq for InFlight<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for InFlight<M> {}
impl<M> PartialOrd for InFlight<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for InFlight<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

pub(crate) struct NodeHarness<P: Protocol> {
    pub node: Node<P>,
    pub inbox: Receiver<NodeInput<P>>,
    pub wall: Wall<P>,
    pub batch: BatchPolicy,
    /// How often `Protocol::obs_poll` runs (from `ObsConfig`); `None`
    /// when not observing.
    pub poll_every: Option<Duration>,
}

/// The wall-clock [`Driver`]: a replica thread's clock, its outbound
/// messages, its timers, and the callers blocked on its commands. An
/// executed command is answered inline, by the thread that executed it.
pub(crate) struct Wall<P: Protocol> {
    id: ReplicaId,
    /// The cluster epoch. Trace stamps carry **monotonic microseconds
    /// since it** — the shared cross-node timeline — never the per-node
    /// skewed protocol clock.
    epoch: Instant,
    clock_offset_us: i64,
    stamper: MonotonicStamper,
    outbound: Outbound<P>,
    waiters: Waiters,
    timers: BinaryHeap<Reverse<(Instant, u64, TimerToken)>>,
    timer_seq: u64,
}

impl<P: Protocol> Wall<P> {
    pub(crate) fn new(
        id: ReplicaId,
        epoch: Instant,
        clock_offset_us: i64,
        outbound: Outbound<P>,
    ) -> Self {
        Wall {
            id,
            epoch,
            clock_offset_us,
            stamper: MonotonicStamper::new(),
            outbound,
            waiters: Waiters::default(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
        }
    }

    /// The command `id` is answered now: stamps the span's terminal
    /// stage and returns the caller to send the reply to, if one waits.
    /// A reply nobody waits for (a fire-and-forget submit, or a caller
    /// that timed out) still completes its span — the command's pipeline
    /// ran in full — and is never built. Completing is a no-op for reads,
    /// which are untraced.
    fn answer(&mut self, id: CommandId, tracer: Option<&Tracer>) -> Option<Sender<Reply>> {
        if let Some(t) = tracer {
            t.complete(span_key(id), TraceStage::Replied.index(), self.trace_now());
        }
        self.waiters.take(id)
    }
}

impl<P: Protocol> Driver<P> for Wall<P> {
    fn clock(&mut self) -> Micros {
        let elapsed = self.epoch.elapsed().as_micros() as i64;
        let raw = (elapsed + self.clock_offset_us).max(0) as Micros;
        self.stamper.stamp(raw)
    }

    fn trace_now(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn send(&mut self, to: ReplicaId, msg: P::Msg) {
        match &mut self.outbound {
            Outbound::InProcess(links) => {
                let (inbox, delay) = &links[to.index()];
                // A dropped inbox means the node stopped; ignore.
                let _ = inbox.send(NodeInput::Msg {
                    from: self.id,
                    msg,
                    due: Some(Instant::now() + *delay),
                });
            }
            Outbound::Socket(sink) => sink.send_msg(to, msg),
        }
    }

    fn set_timer(&mut self, after: Micros, token: TimerToken) {
        self.timer_seq += 1;
        let due = Instant::now() + Duration::from_micros(after);
        self.timers.push(Reverse((due, self.timer_seq, token)));
    }

    fn executed(&mut self, committed: Committed, result: &Bytes, tracer: Option<&Tracer>) {
        if committed.origin != self.id {
            return;
        }
        let id = committed.cmd.id;
        if let Some(t) = tracer {
            // Commit and execution are one synchronous step in this
            // runtime: the protocol decided the command and the state
            // machine applied it just before this call.
            let (key, at, me) = (span_key(id), self.trace_now(), self.id.as_u16());
            t.record_at_origin(key, me, TraceStage::Committed.index(), at);
            t.record_at_origin(key, me, TraceStage::Executed.index(), at);
        }
        if let Some(tx) = self.answer(id, tracer) {
            let _ = tx.send(Reply::new(id, result.clone()));
        }
    }

    fn answered(&mut self, reply: Reply, tracer: Option<&Tracer>) {
        if let Some(tx) = self.answer(reply.id, tracer) {
            let _ = tx.send(reply);
        }
    }
}

impl<P: Protocol> NodeHarness<P> {
    /// The node thread body: dispatch messages, requests, and timers until
    /// asked to stop.
    ///
    /// The inbox is cut by the one intake rule, `rsm_core::node::intake`,
    /// the simulator's too: a write opens a **run** that takes the writes
    /// already queued behind it into one batch, up to the policy cap,
    /// never waiting for more; a peer message met on the way is set aside
    /// and handled right after the batch; a read, the cap, an empty inbox
    /// or `Stop` ends the run. The intake pulls from the inbox only while
    /// a run is open, so timers and held messages fire between inputs as
    /// they did between runs.
    ///
    /// On the in-process plane this loop is also the emulated WAN: a peer
    /// message arrives stamped with its `due` time and waits in
    /// `in_flight` until then. The loop waits for the heap's head by the
    /// hold rule, `rsm_transport::recv_until`: it parks until
    /// `rsm_transport::EARLY` before `due`, then polls the inbox, yielding
    /// the core, so the message is never dispatched early and is released
    /// within `EARLY` of its due instant rather than a timer slack after
    /// it; timers and the gauge poll just park. Per-link FIFO holds
    /// because one thread stamps a link's messages with a monotonic clock
    /// plus a constant, the inbox is FIFO, and equal `due`s break by
    /// arrival sequence — so a message may skip the heap only when the
    /// heap is **empty**, never merely because its own `due` has passed.
    /// Links with different delays share the heap, not a queue: a slow
    /// link cannot hold back a fast one.
    pub(crate) fn run(self) -> NodeReport {
        let NodeHarness {
            mut node,
            inbox,
            mut wall,
            batch,
            poll_every,
        } = self;
        let mut in_flight: BinaryHeap<Reverse<InFlight<P::Msg>>> = BinaryHeap::new();
        let mut arrival_seq = 0u64;
        // One intake step's actions, in order; empty between steps.
        let mut actions: VecDeque<Action<Held<P::Msg>>> = VecDeque::new();
        let mut stopping = false;

        node.with(&mut wall, |p, c| p.on_start(c));

        // First sweep fires immediately so every gauge series exists
        // from node start (a short-lived cluster would otherwise
        // snapshot before the first interval elapses).
        let mut next_poll = poll_every.map(|_| Instant::now());

        while !stopping {
            // Fire due timers first, then deliver every due message.
            let now = Instant::now();
            while wall
                .timers
                .peek()
                .is_some_and(|Reverse((due, _, _))| *due <= now)
            {
                let Reverse((_, _, token)) = wall.timers.pop().expect("peeked");
                node.with(&mut wall, |p, c| p.on_timer(token, c));
            }
            while in_flight.peek().is_some_and(|Reverse(f)| f.due <= now) {
                let Reverse(f) = in_flight.pop().expect("peeked");
                node.with(&mut wall, |p, c| p.on_message(f.from, f.msg, c));
            }

            // Periodic gauge poll (observing clusters only): ask the
            // protocol for its instantaneous state — stable-timestamp
            // lag, per-peer LatestTV staleness, ballot.
            if let (Some(every), Some(np)) = (poll_every, next_poll) {
                if now >= np {
                    node.with(&mut wall, |p, c| p.obs_poll(c));
                    next_poll = Some(Instant::now() + every);
                }
            }

            // Wait for the next input until the next timer, held message
            // or gauge poll, whichever is sooner (forever when none is
            // pending). A held message is released by the hold rule, at
            // its due instant; a timer or poll gains nothing from that
            // precision, so the thread just parks for it.
            let parked = [
                wall.timers.peek().map(|Reverse((due, _, _))| *due),
                next_poll,
            ]
            .into_iter()
            .flatten()
            .min();
            let got = match (in_flight.peek().map(|Reverse(f)| f.due), parked) {
                (Some(held), p) if p.is_none_or(|p| held <= p) => recv_until(&inbox, held),
                (_, Some(due)) => inbox.recv_timeout(due.saturating_duration_since(Instant::now())),
                (_, None) => inbox.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            let input = match got {
                Ok(i) => i,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            let Some(first) = wall.waiters.admit(input) else {
                break;
            };
            let waiters = &mut wall.waiters;
            let pull = || match inbox.try_recv() {
                Ok(input) => {
                    let admitted = waiters.admit(input);
                    stopping = admitted.is_none();
                    admitted
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
            };
            intake(batch, first, pull, &mut actions);

            for action in actions.drain(..) {
                match action {
                    Action::Msg(from, (msg, due)) => match due {
                        Some(due) if !in_flight.is_empty() || due > Instant::now() => {
                            arrival_seq += 1;
                            in_flight.push(Reverse(InFlight {
                                due,
                                seq: arrival_seq,
                                from,
                                msg,
                            }));
                        }
                        _ => node.with(&mut wall, |p, c| p.on_message(from, msg, c)),
                    },
                    // Reads never join batches: a `Get` goes straight to
                    // the protocol's read path.
                    Action::Read(cmd) => node.with(&mut wall, |p, c| p.on_client_read(cmd, c)),
                    Action::Batch(cmds) => {
                        if let Some(t) = &node.tracer {
                            // Span origin: this node (the command's local
                            // replica). Reads never reach here — they skip
                            // the ordering pipeline the span describes.
                            let at = wall.trace_now();
                            for c in &cmds {
                                t.begin(span_key(c.id), wall.id.as_u16(), at);
                            }
                        }
                        node.with(&mut wall, |p, c| propose(p, c, cmds));
                    }
                }
            }
        }

        NodeReport {
            id: wall.id,
            commit_count: node.executed,
            snapshot: node.sm.snapshot(),
            log_len: node.log.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use kvstore::KvStore;
    use rsm_core::batch::Batch;
    use rsm_core::id::ClientId;
    use rsm_core::protocol::Context;
    use std::sync::{Arc, Mutex};

    #[derive(Debug, PartialEq)]
    enum Call {
        Batch(usize),
        Read,
        Message { from: u16, payload: u32 },
    }

    /// Callbacks in the order they ran, with when each did.
    type Log = Vec<(Call, Instant)>;
    type Calls = Arc<Mutex<Log>>;

    /// The test protocol's peer message: a number to tell sends apart.
    #[derive(Clone, Debug)]
    struct Payload(u32);

    impl rsm_core::wire::WireSize for Payload {
        fn wire_size(&self) -> usize {
            4
        }
    }

    /// Records which driver callback ran and when, in order; commits
    /// nothing.
    #[derive(Default)]
    struct Recorder {
        calls: Calls,
        /// A read makes the node send payloads `0..burst` to replica 1.
        burst: u32,
        /// How long a write batch keeps the node thread busy.
        stall: Duration,
    }

    impl Recorder {
        fn push(&self, call: Call) {
            let at = Instant::now();
            self.calls.lock().expect("recorder lock").push((call, at));
        }
    }

    impl Protocol for Recorder {
        type Msg = Payload;
        type LogRec = ();
        fn id(&self) -> ReplicaId {
            ReplicaId::new(0)
        }
        fn on_start(&mut self, _: &mut dyn Context<Self>) {}
        fn on_client_batch(&mut self, batch: Batch, _: &mut dyn Context<Self>) {
            self.push(Call::Batch(batch.len()));
            std::thread::sleep(self.stall);
        }
        fn on_client_read(&mut self, _: Command, ctx: &mut dyn Context<Self>) {
            self.push(Call::Read);
            for payload in 0..self.burst {
                ctx.send(ReplicaId::new(1), Payload(payload));
            }
        }
        fn on_message(&mut self, from: ReplicaId, msg: Payload, _: &mut dyn Context<Self>) {
            let (from, payload) = (from.as_u16(), msg.0);
            self.push(Call::Message { from, payload });
        }
        fn on_timer(&mut self, _: TimerToken, _: &mut dyn Context<Self>) {}
        fn on_recover(&mut self, _: &[()], _: &mut dyn Context<Self>) {}
    }

    fn harness(
        proto: Recorder,
        inbox: Receiver<NodeInput<Recorder>>,
        links: Vec<(Sender<NodeInput<Recorder>>, Duration)>,
    ) -> NodeHarness<Recorder> {
        NodeHarness {
            wall: Wall::new(proto.id(), Instant::now(), 0, Outbound::InProcess(links)),
            node: Node::new(proto, Box::new(KvStore::new()), None, None),
            inbox,
            batch: BatchPolicy::max(8),
            poll_every: None,
        }
    }

    /// Blocks until `want` callbacks have been recorded. A delivery that
    /// never happens fails here, under a watchdog, instead of hanging.
    fn wait_for(calls: &Calls, want: usize) {
        let watchdog = Instant::now() + Duration::from_secs(10);
        while calls.lock().expect("recorder lock").len() < want {
            assert!(Instant::now() < watchdog, "fewer than {want} callbacks ran");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Runs a node on its own thread over `inputs`, keeps its inbox open
    /// until `want` callbacks have run, stops it, and returns the
    /// callbacks with their dispatch times.
    fn run_until(proto: Recorder, inputs: Vec<NodeInput<Recorder>>, want: usize) -> Log {
        let calls = Arc::clone(&proto.calls);
        let (inbox_tx, inbox) = unbounded();
        for input in inputs {
            inbox_tx.send(input).expect("inbox open");
        }
        let node = harness(proto, inbox, Vec::new());
        let handle = std::thread::spawn(move || node.run());
        wait_for(&calls, want);
        inbox_tx.send(NodeInput::Stop).expect("inbox open");
        handle.join().expect("node thread");
        let mut calls = calls.lock().expect("recorder lock");
        std::mem::take(&mut *calls)
    }

    fn id(seq: u64) -> CommandId {
        CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq)
    }

    fn write(seq: u64) -> NodeInput<Recorder> {
        NodeInput::Request(Command::new(id(seq), Bytes::from_static(b"w")), None)
    }

    fn read(seq: u64) -> NodeInput<Recorder> {
        NodeInput::Request(Command::read(id(seq), Bytes::from_static(b"r")), None)
    }

    /// A peer message as the in-process plane's `send` stamps it.
    fn msg(from: u16, payload: u32, due: Instant) -> NodeInput<Recorder> {
        NodeInput::Msg {
            from: ReplicaId::new(from),
            msg: Payload(payload),
            due: Some(due),
        }
    }

    fn message(from: u16, payload: u32) -> Call {
        Call::Message { from, payload }
    }

    /// Two nodes wired as the cluster wires them: each read node 0 takes
    /// makes it send `burst` messages down its `delay` link to node 1
    /// through the real `Context::send`, which stamps them. Sends node 0
    /// `reads` reads, each once node 1 has dispatched all that came
    /// before, and returns node 0's read callbacks and node 1's
    /// dispatches, in order. A read is recorded just before its sends, so
    /// `read + delay` is at most the due instant of each message it sent.
    fn over_one_link(burst: u32, reads: usize, delay: Duration) -> (Log, Log) {
        let (tx0, inbox0) = unbounded();
        let (tx1, inbox1) = unbounded();
        let sender = Recorder {
            burst,
            ..Recorder::default()
        };
        let sent = Arc::clone(&sender.calls);
        let links = vec![(tx0.clone(), Duration::ZERO), (tx1.clone(), delay)];
        let node0 = harness(sender, inbox0, links);
        let receiver = Recorder::default();
        let calls = Arc::clone(&receiver.calls);
        let node1 = harness(receiver, inbox1, Vec::new());
        let h0 = std::thread::spawn(move || node0.run());
        let h1 = std::thread::spawn(move || node1.run());
        for seq in 0..reads {
            tx0.send(read(seq as u64)).expect("inbox open");
            wait_for(&calls, (seq + 1) * burst as usize);
        }
        for tx in [tx0, tx1] {
            tx.send(NodeInput::Stop).expect("inbox open");
        }
        h0.join().expect("node 0");
        h1.join().expect("node 1");
        let take = |calls: Calls| std::mem::take(&mut *calls.lock().expect("recorder lock"));
        (take(sent), take(calls))
    }

    #[test]
    fn one_link_delivers_in_send_order_and_never_early() {
        const DELAY: Duration = Duration::from_millis(2);
        let (reads, calls) = over_one_link(5, 1, DELAY);
        let due = reads[0].1 + DELAY;
        for (payload, (call, at)) in calls.iter().enumerate() {
            assert_eq!(*call, message(0, payload as u32), "FIFO per link");
            assert!(*at >= due, "{call:?} dispatched early");
        }
        assert_eq!(calls.len(), 5);
    }

    #[test]
    fn a_held_message_is_released_at_its_due_instant() {
        // One message per read, each alone in node 1's heap.
        const DELAY: Duration = Duration::from_micros(250);
        const SENDS: usize = 200;
        let (reads, calls) = over_one_link(1, SENDS, DELAY);
        assert_eq!(calls.len(), SENDS);
        let mut late: Vec<Duration> = reads
            .iter()
            .zip(&calls)
            .map(|((_, read_at), (call, at))| {
                let due = *read_at + DELAY;
                assert!(*at >= due, "{call:?} dispatched early");
                *at - due
            })
            .collect();
        late.sort();
        // A timed park alone wakes ~70 µs late at the median.
        let median = late[SENDS / 2];
        assert!(
            median < Duration::from_micros(40),
            "median lateness {median:?}, p90 {:?}",
            late[SENDS * 9 / 10]
        );
    }

    #[test]
    fn a_slow_link_does_not_hold_back_a_fast_one() {
        let t0 = Instant::now();
        let slow = t0 + Duration::from_millis(40);
        let fast = t0 + Duration::from_millis(1);
        // The slow link's message is queued FIRST.
        let inputs = vec![msg(1, 40, slow), msg(2, 1, fast)];
        let calls = run_until(Recorder::default(), inputs, 2);
        assert_eq!(calls[0].0, message(2, 1), "fast link first");
        assert_eq!(calls[1].0, message(1, 40));
        assert!(calls[0].1 >= fast, "fast: not before its due");
        assert!(calls[1].1 >= slow, "slow: not before its due");
    }

    #[test]
    fn a_due_message_does_not_overtake_its_link_predecessor_in_the_heap() {
        // One link, two messages. The first is received early and held;
        // the write behind it keeps the node busy past both due times,
        // and its run sets the second message aside — which is thus
        // handed back already due, right after the batch, with the first
        // still in the heap. "Due already, dispatch directly" would
        // reorder the link here.
        let t0 = Instant::now();
        let first = msg(1, 1, t0 + Duration::from_millis(20));
        let second = msg(1, 2, t0 + Duration::from_millis(21));
        let busy = Recorder {
            stall: Duration::from_millis(40),
            ..Recorder::default()
        };
        let calls = run_until(busy, vec![first, write(1), second], 3);
        let order: Vec<Call> = calls.into_iter().map(|(call, _)| call).collect();
        assert_eq!(order, [Call::Batch(1), message(1, 1), message(1, 2)]);
    }

    #[test]
    fn stop_with_messages_still_held_exits_promptly_and_reports() {
        // What `Cluster::crash` relies on: a stopping node does not wait
        // out (or deliver) what it holds.
        let held = Instant::now() + Duration::from_secs(30);
        let (inbox_tx, inbox) = unbounded();
        for payload in 0..3 {
            inbox_tx.send(msg(1, payload, held)).expect("inbox open");
        }
        inbox_tx.send(NodeInput::Stop).expect("inbox open");
        let proto = Recorder::default();
        let calls = Arc::clone(&proto.calls);
        let started = Instant::now();
        let report = harness(proto, inbox, Vec::new()).run();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "waited for the heap"
        );
        assert_eq!((report.id, report.commit_count), (ReplicaId::new(0), 0));
        assert!(calls.lock().expect("recorder lock").is_empty());
    }

    /// A waiter expiring `expires_in` from now, and the caller's end.
    fn waiter(expires_in: Duration) -> (Option<Waiter>, Receiver<Reply>) {
        let (tx, rx) = crossbeam::channel::bounded(1);
        let expires = Instant::now() + expires_in;
        (Some(Waiter { tx, expires }), rx)
    }

    fn reply(seq: u64) -> Reply {
        Reply::new(id(seq), Bytes::from_static(b"ok"))
    }

    #[test]
    fn a_reply_reaches_the_latest_waiter_of_its_id_exactly_once() {
        let mut waiters = Waiters::default();
        let (first, first_rx) = waiter(Duration::from_secs(60));
        let (retry, retry_rx) = waiter(Duration::from_secs(60));
        waiters.register(id(1), first);
        waiters.register(id(1), retry);
        waiters.register(id(2), None);
        assert_eq!(
            waiters.0.len(),
            1,
            "a retry replaces, a submit adds nothing"
        );
        // The replaced caller is cut off, not left to a second value.
        assert_eq!(first_rx.try_recv(), Err(TryRecvError::Disconnected));

        let tx = waiters.take(id(1)).expect("the retry waits");
        tx.send(reply(1)).expect("caller listening");
        assert_eq!(retry_rx.try_recv(), Ok(reply(1)));
        // The dedup path answers the id again from its cache: nobody is
        // left to hear it, so nothing can be sent into the full channel.
        assert!(waiters.take(id(1)).is_none());
        assert!(waiters.take(id(2)).is_none());
    }

    #[test]
    fn expired_waiters_are_swept_once_the_table_is_large() {
        let mut waiters = Waiters::default();
        let (live, live_rx) = waiter(Duration::from_secs(60));
        waiters.register(id(0), live);
        // Below the threshold nothing is swept, expired or not.
        for seq in 1..WAITER_SWEEP_MIN as u64 {
            waiters.register(id(seq), waiter(Duration::ZERO).0);
        }
        assert_eq!(waiters.0.len(), WAITER_SWEEP_MIN);
        let (newcomer, _newcomer_rx) = waiter(Duration::from_secs(60));
        waiters.register(id(u64::MAX), newcomer);
        assert_eq!(waiters.0.len(), 2, "every expired waiter swept");
        assert!(waiters.take(id(u64::MAX)).is_some());
        let tx = waiters
            .take(id(0))
            .expect("a live waiter survives the sweep");
        tx.send(reply(0)).expect("caller listening");
        assert_eq!(live_rx.try_recv(), Ok(reply(0)));
    }
}
