//! One replica under any driver, and the workspace's one driver-side
//! [`Context`] implementation.
//!
//! A [`Node`] is what a replica *is*, whichever scheduler runs it: the
//! protocol, its state machine, its stable log, how many commands it has
//! executed, and its observability sinks. The two drivers — `simnet`'s
//! virtual time and `rsm-runtime`'s replica threads — are schedulers
//! around it: each decides *when* a callback runs and hands
//! [`Node::with`] a [`Driver`] covering only what differs between them
//! (the clock, the network, timers, and where an executed command's
//! reply goes). Applying a command, counting it, logging, snapshots,
//! local reads and every `obs_*` hook are implemented once, here.

use bytes::Bytes;
use rsm_obs::{NodeObs, Tracer};

use crate::batch::Batch;
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
    pub fn with<D: Driver<P>>(
        &mut self,
        driver: &mut D,
        f: impl FnOnce(&mut P, &mut dyn Context<P>),
    ) {
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

    fn sm_snapshot(&mut self) -> Option<Bytes> {
        Some(self.sm.snapshot())
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
