//! The simulation driver: virtual time, network, nodes, and fault injection.

use std::collections::{HashMap, HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rsm_core::batch::BatchPolicy;
use rsm_core::command::{Command, Committed, Reply};
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::matrix::LatencyMatrix;
use rsm_core::node::{intake, propose, Action, Driver, Input, Node};
use rsm_core::obs::{names, span_key, TraceStage};
use rsm_core::protocol::{Context, Protocol, TimerToken};
use rsm_core::sm::StateMachine;
use rsm_core::time::Micros;
use rsm_core::wire::{WireEncode, WireSize};
use rsm_core::CommandId;
use rsm_obs::{MetricsSnapshot, NodeObs, ObsConfig, Registry, Tracer};

use crate::clock::{ClockModel, PhysicalClock};
use crate::cpu::CpuModel;
use crate::sched::EventQueue;

/// One-way latency between a client and its local replica: 0.3 ms (the
/// paper reports ~0.6 ms intra-DC RTT).
const LOCAL_DELIVERY_US: Micros = 300;

/// Static configuration of a simulation run.
///
/// Built with a fluent API; see the crate-level example.
#[derive(Debug, Clone)]
pub struct SimConfig {
    latency: LatencyMatrix,
    jitter_us: Micros,
    seed: u64,
    clock_model: ClockModel,
    clock_overrides: Vec<(usize, ClockModel)>,
    cpu: Option<CpuModel>,
    batch: BatchPolicy,
    record_history: bool,
    observe: Option<ObsConfig>,
}

impl SimConfig {
    /// Creates a configuration for the given wide-area latency matrix with
    /// paper-faithful defaults: no jitter, 0.3 ms client↔replica latency
    /// (the paper reports ~0.6 ms intra-DC RTT), perfect clocks, no CPU
    /// model, history recording on.
    pub fn new(latency: LatencyMatrix) -> Self {
        SimConfig {
            latency,
            jitter_us: 0,
            seed: 0,
            clock_model: ClockModel::perfect(),
            clock_overrides: Vec::new(),
            cpu: None,
            batch: BatchPolicy::DISABLED,
            record_history: true,
            observe: None,
        }
    }

    /// Sets the RNG seed controlling jitter, clock offsets, and any
    /// application randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the maximum uniform per-message jitter, in microseconds.
    /// Per-link FIFO order is preserved regardless.
    pub fn jitter_us(mut self, jitter: Micros) -> Self {
        self.jitter_us = jitter;
        self
    }

    /// Sets the default clock model for all replicas. When the model has a
    /// non-zero sync bound, each replica receives a deterministic random
    /// initial offset within ±bound.
    pub fn clock_model(mut self, m: ClockModel) -> Self {
        self.clock_model = m;
        self
    }

    /// Overrides the clock model of one replica.
    pub fn clock_override(mut self, replica: usize, m: ClockModel) -> Self {
        self.clock_overrides.push((replica, m));
        self
    }

    /// Enables the CPU cost model (throughput experiments).
    pub fn cpu_model(mut self, cpu: CpuModel) -> Self {
        self.cpu = Some(cpu);
        self
    }

    /// Sets the request-coalescing policy: the client writes queued at a
    /// replica when it gets scheduled are handed to the protocol as one
    /// [`Batch`](rsm_core::batch::Batch) of up to `max_batch` commands
    /// (never waiting intentionally), cut by the runtime's intake rule,
    /// [`rsm_core::node::intake`]. The default is
    /// [`BatchPolicy::DISABLED`], which reproduces per-command behaviour
    /// exactly.
    pub fn batch_policy(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Disables per-commit history recording (for long throughput runs).
    pub fn record_history(mut self, on: bool) -> Self {
        self.record_history = on;
        self
    }

    /// Enables observability: a metrics [`Registry`] fed by every
    /// replica (protocol counters/gauges plus driver-side execution
    /// counters), per-command trace [`Span`](rsm_obs::Span)s stamped in
    /// **virtual time**, and a periodic
    /// [`obs_poll`](rsm_core::protocol::Protocol::obs_poll) sweep every
    /// [`ObsConfig::poll_interval`] microseconds. Off by default —
    /// uninstrumented runs pay only a `None` check per hook.
    ///
    /// **Observation does not change the run**: instrumentation
    /// consumes no virtual time and each `obs_poll` reads a throwaway
    /// copy of its node's clock (the monotonic stamper would otherwise
    /// record the read and shift later timestamps), so one seed commits
    /// the same sequence at the same virtual times with or without
    /// `observe` — `tests/obs_determinism.rs` holds every protocol to
    /// it. The threaded runtime is exempt: a wall-clock run has no
    /// reproducible history to perturb.
    pub fn observe(mut self, obs: ObsConfig) -> Self {
        self.observe = Some(obs);
        self
    }

    /// Number of replicas in the topology.
    pub fn num_replicas(&self) -> usize {
        self.latency.len()
    }

    /// The latency matrix of this configuration.
    pub fn latency(&self) -> &LatencyMatrix {
        &self.latency
    }
}

/// One committed command as observed at one replica, for test assertions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// Virtual time of execution at this replica.
    pub at: Micros,
    /// Protocol ordering coordinate (timestamp / instance / slot).
    pub order_hint: u64,
    /// Originating replica of the command.
    pub origin: ReplicaId,
    /// Identity of the command.
    pub cmd_id: CommandId,
}

/// The application driving a simulation: submits client commands, receives
/// replies, and observes commits. Workload generators and fault scripts in
/// the `harness` crate implement this.
pub trait Application<P: Protocol> {
    /// Called once at simulation start; schedule initial work here.
    fn on_init(&mut self, api: &mut SimApi<'_, P>);

    /// A reply reached the issuing client.
    fn on_reply(&mut self, client: ClientId, reply: Reply, api: &mut SimApi<'_, P>);

    /// An event scheduled via [`SimApi::schedule`] fired.
    fn on_event(&mut self, key: u64, api: &mut SimApi<'_, P>);

    /// A replica executed a command (observability hook; default no-op).
    fn on_commit(&mut self, _replica: ReplicaId, _committed: &Committed, _at: Micros) {}
}

/// An application that does nothing; useful when a test drives replicas
/// by scheduling events directly.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullApplication;

impl<P: Protocol> Application<P> for NullApplication {
    fn on_init(&mut self, _api: &mut SimApi<'_, P>) {}
    fn on_reply(&mut self, _client: ClientId, _reply: Reply, _api: &mut SimApi<'_, P>) {}
    fn on_event(&mut self, _key: u64, _api: &mut SimApi<'_, P>) {}
}

/// Capabilities the simulator exposes to the application.
pub struct SimApi<'a, P: Protocol> {
    now: Micros,
    latency: &'a LatencyMatrix,
    nodes: &'a [SimNode<P>],
    queue: &'a mut EventQueue<Event<P>>,
    rng: &'a mut StdRng,
    stop: &'a mut bool,
}

impl<'a, P: Protocol> SimApi<'a, P> {
    /// Current virtual time, microseconds.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// Submits a client command to replica `to`; it arrives after the
    /// local client↔replica latency.
    pub fn submit(&mut self, to: ReplicaId, cmd: Command) {
        self.queue
            .push(self.now + LOCAL_DELIVERY_US, Event::Request { to, cmd });
    }

    /// Submits a client command from a client at site `from` to replica
    /// `to`. Same-site submission costs the local delivery hop; a
    /// cross-site submission pays the configured one-way WAN latency —
    /// client-side routing to a remote lease holder is not free, and an
    /// honest model must charge it.
    pub fn submit_from(&mut self, from: ReplicaId, to: ReplicaId, cmd: Command) {
        let delay = if from == to {
            LOCAL_DELIVERY_US
        } else {
            self.latency.one_way(from, to)
        };
        self.queue
            .push(self.now + delay, Event::Request { to, cmd });
    }

    /// Where a client at `site` should send a **read-only** command:
    /// the site replica's [`lease_holder_hint`], or the site itself when
    /// the protocol's reads are local/symmetric. This models a client
    /// caching the leader hint its local replica advertises — the hint
    /// may be stale across a fail-over, in which case the read is lost
    /// at the dead leader and retried like any lost command.
    ///
    /// [`lease_holder_hint`]: rsm_core::protocol::Protocol::lease_holder_hint
    pub fn read_target(&self, site: ReplicaId) -> ReplicaId {
        read_target(self.nodes, site)
    }

    /// Schedules an application event `after` microseconds from now.
    pub fn schedule(&mut self, after: Micros, key: u64) {
        self.queue.push(self.now + after, Event::App { key });
    }

    /// Crashes a replica `after` microseconds from now: it stops processing
    /// and loses volatile state, keeping its stable log.
    pub fn crash(&mut self, node: ReplicaId, after: Micros) {
        self.queue.push(self.now + after, Event::Crash { node });
    }

    /// Restarts a crashed replica `after` microseconds from now: it runs
    /// protocol recovery from its stable log.
    pub fn recover(&mut self, node: ReplicaId, after: Micros) {
        self.queue.push(self.now + after, Event::Recover { node });
    }

    /// Cuts the link between `a` and `b` (both directions) `after`
    /// microseconds from now; messages park and deliver on heal, modelling
    /// TCP retransmission.
    pub fn partition(&mut self, a: ReplicaId, b: ReplicaId, after: Micros) {
        self.queue.push(self.now + after, Event::Partition { a, b });
    }

    /// Heals the link between `a` and `b` `after` microseconds from now.
    pub fn heal(&mut self, a: ReplicaId, b: ReplicaId, after: Micros) {
        self.queue.push(self.now + after, Event::Heal { a, b });
    }

    /// Steps a replica's physical clock by `delta_us` (positive or
    /// negative) `after` microseconds from now. Reads stay monotonic; a
    /// backwards step simply freezes the observed clock until true time
    /// catches up.
    pub fn clock_jump(&mut self, node: ReplicaId, delta_us: i64, after: Micros) {
        self.queue
            .push(self.now + after, Event::ClockJump { node, delta_us });
    }

    /// Freezes a replica's physical clock for `dur_us` of virtual time,
    /// starting `after` microseconds from now — a VM pause. The clock
    /// resumes from the pinned value, permanently behind by the freeze.
    pub fn clock_freeze(&mut self, node: ReplicaId, dur_us: Micros, after: Micros) {
        self.queue
            .push(self.now + after, Event::ClockFreeze { node, dur_us });
    }

    /// Adds `ppm` of drift to a replica's clock for `dur_us` of virtual
    /// time, starting `after` microseconds from now. The offset the burst
    /// accumulates persists after it ends.
    pub fn clock_drift_burst(&mut self, node: ReplicaId, ppm: f64, dur_us: Micros, after: Micros) {
        self.queue
            .push(self.now + after, Event::ClockDrift { node, ppm, dur_us });
    }

    /// Sets an extra fixed one-way delay on the link between `a` and `b`
    /// (both directions), starting `after` microseconds from now. Zero
    /// clears it. Per-link FIFO order is preserved; relative to other
    /// links, messages reorder — cross-link reordering is the only kind
    /// the drivers' per-link FIFO contract permits.
    pub fn link_delay(&mut self, a: ReplicaId, b: ReplicaId, extra_us: Micros, after: Micros) {
        self.queue
            .push(self.now + after, Event::LinkDelay { a, b, extra_us });
    }

    /// Sets extra uniform per-message jitter on the link between `a` and
    /// `b` (both directions), starting `after` microseconds from now. Zero
    /// clears it. Per-link FIFO order is preserved regardless.
    pub fn link_jitter(&mut self, a: ReplicaId, b: ReplicaId, jitter_us: Micros, after: Micros) {
        self.queue
            .push(self.now + after, Event::LinkJitter { a, b, jitter_us });
    }

    /// The deterministic RNG shared with the simulator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Requests the simulation to stop after the current event.
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

enum Event<P: Protocol> {
    Deliver {
        from: ReplicaId,
        to: ReplicaId,
        msg: P::Msg,
    },
    Timer {
        node: ReplicaId,
        incarnation: u64,
        token: TimerToken,
    },
    Request {
        to: ReplicaId,
        cmd: Command,
    },
    ReplyArrive {
        client: ClientId,
        reply: Reply,
    },
    App {
        key: u64,
    },
    Crash {
        node: ReplicaId,
    },
    Recover {
        node: ReplicaId,
    },
    Partition {
        a: ReplicaId,
        b: ReplicaId,
    },
    Heal {
        a: ReplicaId,
        b: ReplicaId,
    },
    ClockJump {
        node: ReplicaId,
        delta_us: i64,
    },
    ClockFreeze {
        node: ReplicaId,
        dur_us: Micros,
    },
    ClockDrift {
        node: ReplicaId,
        ppm: f64,
        dur_us: Micros,
    },
    LinkDelay {
        a: ReplicaId,
        b: ReplicaId,
        extra_us: Micros,
    },
    LinkJitter {
        a: ReplicaId,
        b: ReplicaId,
        jitter_us: Micros,
    },
    ProcessInbox {
        node: ReplicaId,
        incarnation: u64,
    },
    /// Periodic observability sweep: run every live protocol's
    /// `obs_poll` and re-arm. Only ever scheduled when observing.
    ObsPoll,
}

/// One simulated replica: the node core plus what only simnet models
/// around it.
struct SimNode<P: Protocol> {
    node: Node<P>,
    clock: PhysicalClock,
    up: bool,
    incarnation: u64,
    commits: Vec<CommitRecord>,
    inbox: VecDeque<Input<P::Msg>>,
    inbox_scheduled: bool,
    cpu_free: Micros,
}

/// What one callback (or one inbox drain) produced, applied after it
/// returns: the CPU model prices the sends and replies, and execution
/// feeds the history, the replies and [`Application::on_commit`].
#[derive(Debug)]
struct Effects<P: Protocol> {
    sends: Vec<(ReplicaId, P::Msg)>,
    /// Committed commands with the result the state machine produced
    /// (applied inline, so snapshots taken mid-callback are accurate).
    commits: Vec<(Committed, bytes::Bytes)>,
    timers: Vec<(Micros, TimerToken)>,
    /// Replies to locally served reads (`Context::send_reply`): routed
    /// to the issuing client without a commit.
    read_replies: Vec<Reply>,
    /// A snapshot was installed during the callback: the state machine
    /// jumped over commands this node never executed one by one.
    installed: bool,
}

/// The virtual-time [`Driver`]: reads the replica's simulated clock at
/// the current instant and buffers everything else into [`Effects`].
/// Trace stamps carry **virtual time**, never the replica's (possibly
/// skewed) physical clock, so breakdown terms across replicas share one
/// timeline.
struct SimDriver<'a, P: Protocol> {
    now: Micros,
    clock: &'a mut PhysicalClock,
    eff: Effects<P>,
}

impl<'a, P: Protocol> SimDriver<'a, P> {
    fn new(now: Micros, clock: &'a mut PhysicalClock) -> Self {
        let eff = Effects {
            sends: Vec::new(),
            commits: Vec::new(),
            timers: Vec::new(),
            read_replies: Vec::new(),
            installed: false,
        };
        SimDriver { now, clock, eff }
    }
}

impl<P: Protocol> Driver<P> for SimDriver<'_, P> {
    fn clock(&mut self) -> Micros {
        self.clock.read(self.now)
    }
    fn trace_now(&self) -> u64 {
        self.now
    }
    fn send(&mut self, to: ReplicaId, msg: P::Msg) {
        self.eff.sends.push((to, msg));
    }
    fn set_timer(&mut self, after: Micros, token: TimerToken) {
        self.eff.timers.push((after, token));
    }
    fn executed(&mut self, committed: Committed, result: &bytes::Bytes, _: Option<&Tracer>) {
        self.eff.commits.push((committed, result.clone()));
    }
    fn answered(&mut self, reply: Reply, _: Option<&Tracer>) {
        self.eff.read_replies.push(reply);
    }
    fn installed(&mut self) {
        self.eff.installed = true;
    }
}

/// A deterministic discrete-event simulation of `P`-replicas on a wide-area
/// network, driven by an [`Application`].
///
/// See the crate docs for the model; see `harness` for ready-made
/// workloads.
pub struct Simulation<P: Protocol, A: Application<P>> {
    cfg: SimConfig,
    now: Micros,
    queue: EventQueue<Event<P>>,
    nodes: Vec<SimNode<P>>,
    factory: Box<dyn FnMut(ReplicaId) -> P>,
    app: A,
    rng: StdRng,
    fifo_floor: Vec<Vec<Micros>>,
    partitioned: HashSet<(usize, usize)>,
    /// Per-link chaos: `(extra fixed delay, extra jitter bound)` applied to
    /// cross-node sends on that (unordered) link. FIFO floors still apply,
    /// so within-link order is preserved; only cross-link reordering occurs.
    link_chaos: HashMap<(usize, usize), (Micros, Micros)>,
    parked: ParkedLinks<P::Msg>,
    stop: bool,
    /// The shared metrics registry (populated only when observing).
    registry: Registry,
    /// The span collector, when observing.
    tracer: Option<Tracer>,
}

/// Messages held on a cut link, in order: `(from, to, msg)`.
type ParkedQueue<M> = VecDeque<(ReplicaId, ReplicaId, M)>;

/// Parked queues keyed by the (unordered) link they wait on.
type ParkedLinks<M> = Vec<((usize, usize), ParkedQueue<M>)>;

impl<P: Protocol, A: Application<P>> Simulation<P, A> {
    /// Builds a simulation: one replica per row of the latency matrix,
    /// protocols created by `factory`, state machines by `sm_factory`.
    /// Calls every protocol's `on_start` and the application's `on_init`.
    pub fn new(
        cfg: SimConfig,
        mut factory: impl FnMut(ReplicaId) -> P + 'static,
        sm_factory: impl Fn() -> Box<dyn StateMachine>,
        app: A,
    ) -> Self {
        let n = cfg.num_replicas();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let registry = Registry::new();
        let tracer = cfg.observe.map(Tracer::new);
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let id = ReplicaId::new(i as u16);
            let mut model = cfg.clock_model;
            // Spread initial offsets within the sync bound, deterministically.
            if model.sync_bound_us > 0 && model.offset_us == 0 {
                let b = model.sync_bound_us as i64;
                model.offset_us = rng.gen_range(-b..=b);
            }
            if let Some((_, m)) = cfg.clock_overrides.iter().find(|(r, _)| *r == i) {
                model = *m;
            }
            let obs = cfg
                .observe
                .map(|_| NodeObs::new(registry.clone(), i as u16));
            nodes.push(SimNode {
                node: Node::new(factory(id), sm_factory(), obs, tracer.clone()),
                clock: PhysicalClock::new(model),
                up: true,
                incarnation: 0,
                commits: Vec::new(),
                inbox: VecDeque::new(),
                inbox_scheduled: false,
                cpu_free: 0,
            });
        }
        let mut sim = Simulation {
            fifo_floor: vec![vec![0; n]; n],
            partitioned: HashSet::new(),
            link_chaos: HashMap::new(),
            parked: Vec::new(),
            queue: EventQueue::new(),
            nodes,
            factory: Box::new(factory),
            app,
            rng,
            now: 0,
            stop: false,
            registry,
            tracer,
            cfg,
        };
        if let Some(obs) = sim.cfg.observe {
            sim.queue.push(obs.poll_interval, Event::ObsPoll);
        }
        for i in 0..n {
            sim.invoke(i, false, |p, ctx| p.on_start(ctx));
        }
        sim.with_api(|app, api| app.on_init(api));
        sim
    }

    /// Runs `f` with the application and the capabilities the
    /// simulator exposes to it, at the current instant. This is also how
    /// code outside the application (a sharded router coordinating
    /// several simulations, a test) submits commands and schedules
    /// faults.
    pub fn with_api<R>(&mut self, f: impl FnOnce(&mut A, &mut SimApi<'_, P>) -> R) -> R {
        let Simulation {
            queue,
            rng,
            app,
            stop,
            cfg,
            now,
            nodes,
            ..
        } = self;
        let mut api = SimApi {
            now: *now,
            latency: &cfg.latency,
            nodes,
            queue,
            rng,
            stop,
        };
        f(app, &mut api)
    }

    /// Current virtual time.
    pub fn now(&self) -> Micros {
        self.now
    }

    /// The driving application.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Mutable access to the driving application.
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.app
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Commit history of a replica (empty unless history recording is on;
    /// cleared when the replica recovers and replays).
    pub fn commits(&self, r: ReplicaId) -> &[CommitRecord] {
        &self.nodes[r.index()].commits
    }

    /// Total number of commands a replica has executed (monotonic across
    /// recoveries).
    pub fn commit_count(&self, r: ReplicaId) -> u64 {
        self.nodes[r.index()].node.executed
    }

    /// Snapshot of a replica's state machine.
    pub fn snapshot(&self, r: ReplicaId) -> bytes::Bytes {
        self.nodes[r.index()].node.sm.snapshot()
    }

    /// The stable log of a replica (test observability).
    pub fn log(&self, r: ReplicaId) -> &[P::LogRec] {
        &self.nodes[r.index()].node.log
    }

    /// Whether a replica is currently up.
    pub fn is_up(&self, r: ReplicaId) -> bool {
        self.nodes[r.index()].up
    }

    /// Immutable access to a replica's protocol instance.
    pub fn protocol(&self, r: ReplicaId) -> &P {
        &self.nodes[r.index()].node.proto
    }

    /// A deterministic snapshot of every metric, or `None` when
    /// [`SimConfig::observe`] was not set. Two runs of the same seed and
    /// schedule produce `==`-equal snapshots.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.cfg.observe.map(|_| self.registry.snapshot())
    }

    /// The span collector, when observing. Stage stamps are virtual
    /// time; completed spans are in completion order (deterministic).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Runs until the queue drains, `until` is reached or a stop is
    /// requested. Returns the virtual time.
    pub fn run_until(&mut self, until: Micros) -> Micros {
        while !self.stop {
            match self.queue.peek_time() {
                Some(t) if t <= until => {
                    self.step();
                }
                _ => break,
            }
        }
        self.now = self
            .now
            .max(until.min(self.queue.peek_time().unwrap_or(until)));
        self.now
    }

    /// Processes a single event; returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.dispatch(ev);
        true
    }

    fn dispatch(&mut self, ev: Event<P>) {
        match ev {
            Event::Deliver { from, to, msg } => self.handle_deliver(from, to, msg),
            Event::Timer {
                node,
                incarnation,
                token,
            } => {
                let idx = node.index();
                if self.nodes[idx].up && self.nodes[idx].incarnation == incarnation {
                    self.invoke(idx, false, |p, ctx| p.on_timer(token, ctx));
                }
            }
            Event::Request { to, cmd } => {
                let idx = to.index();
                if !self.nodes[idx].up {
                    return; // site down: client request lost
                }
                // Open (or re-enter, for a retry of the same command id)
                // the command's trace span at the replica that will
                // answer the client. Reads are untraced: they skip the
                // ordering pipeline the span stages describe.
                if !cmd.read_only {
                    if let Some(t) = &self.tracer {
                        t.begin(span_key(cmd.id), to.as_u16(), self.now);
                    }
                }
                // Requests pass through the node's inbox when that buys
                // something: a CPU model prices the processing step, and
                // a batch policy coalesces same-instant writes. Reads go
                // the same way, so none overtakes an earlier write. With
                // neither (the default for latency experiments) the hop
                // only doubles event-queue traffic, so invoke directly.
                if self.cfg.cpu.is_some() || self.cfg.batch.coalesces() {
                    self.enqueue_input(idx, Input::request(cmd));
                } else if cmd.read_only {
                    self.invoke(idx, false, |p, ctx| p.on_client_read(cmd, ctx));
                } else {
                    self.invoke(idx, false, |p, ctx| propose(p, ctx, vec![cmd]));
                }
            }
            Event::ReplyArrive { client, reply } => {
                // Terminal stamp: the reply reached the issuing client.
                // No-op for reads (never begun) and unsampled keys.
                if let Some(t) = &self.tracer {
                    t.complete(span_key(reply.id), TraceStage::Replied.index(), self.now);
                }
                self.with_api(|app, api| app.on_reply(client, reply, api));
            }
            Event::App { key } => self.with_api(|app, api| app.on_event(key, api)),
            Event::Crash { node } => {
                let n = &mut self.nodes[node.index()];
                if n.up {
                    n.up = false;
                    n.incarnation += 1;
                    n.inbox.clear();
                    n.inbox_scheduled = false;
                }
            }
            Event::Recover { node } => self.handle_recover(node),
            Event::Partition { a, b } => {
                self.partitioned.insert(link_key(a, b));
            }
            Event::Heal { a, b } => self.handle_heal(a, b),
            Event::ClockJump { node, delta_us } => {
                self.nodes[node.index()].clock.jump(delta_us);
            }
            Event::ClockFreeze { node, dur_us } => {
                let now = self.now;
                self.nodes[node.index()].clock.freeze(now, dur_us);
            }
            Event::ClockDrift { node, ppm, dur_us } => {
                let now = self.now;
                self.nodes[node.index()].clock.drift_burst(now, ppm, dur_us);
            }
            Event::LinkDelay { a, b, extra_us } => {
                let e = self.link_chaos.entry(link_key(a, b)).or_insert((0, 0));
                e.0 = extra_us;
                if *e == (0, 0) {
                    self.link_chaos.remove(&link_key(a, b));
                }
            }
            Event::LinkJitter { a, b, jitter_us } => {
                let e = self.link_chaos.entry(link_key(a, b)).or_insert((0, 0));
                e.1 = jitter_us;
                if *e == (0, 0) {
                    self.link_chaos.remove(&link_key(a, b));
                }
            }
            Event::ProcessInbox { node, incarnation } => {
                self.handle_process_inbox(node, incarnation)
            }
            Event::ObsPoll => {
                // Observation must not change the run, but `Context::clock`
                // is a mutating read: the monotonic stamper records every
                // value it hands out, so a poll reading the node's real
                // clock would push later timestamps forward a microsecond
                // and, through the CLOCKTIME cadence, shift the schedule.
                // Each poll reads a throwaway copy instead (saved before,
                // restored after), for every protocol. The threaded
                // runtime polls its live clock: a wall-clock run has no
                // reproducible history to keep.
                for i in 0..self.nodes.len() {
                    if self.nodes[i].up {
                        let clock = self.nodes[i].clock.clone();
                        self.invoke(i, false, |p, ctx| p.obs_poll(ctx));
                        self.nodes[i].clock = clock;
                    }
                }
                if let Some(obs) = self.cfg.observe {
                    self.queue
                        .push(self.now + obs.poll_interval, Event::ObsPoll);
                }
            }
        }
    }

    fn handle_deliver(&mut self, from: ReplicaId, to: ReplicaId, msg: P::Msg) {
        if from != to && self.partitioned.contains(&link_key(from, to)) {
            // Park until heal: models TCP retransmission after repair.
            let key = link_key(from, to);
            match self.parked.iter_mut().find(|(k, _)| *k == key) {
                Some((_, q)) => q.push_back((from, to, msg)),
                None => {
                    let mut q = VecDeque::new();
                    q.push_back((from, to, msg));
                    self.parked.push((key, q));
                }
            }
            return;
        }
        let idx = to.index();
        if !self.nodes[idx].up {
            return; // destination crashed: message lost
        }
        if self.cfg.cpu.is_some() {
            self.enqueue_input(idx, Input::Msg(from, msg));
        } else {
            self.invoke(idx, false, |p, ctx| p.on_message(from, msg, ctx));
        }
    }

    fn handle_recover(&mut self, node: ReplicaId) {
        let idx = node.index();
        if self.nodes[idx].up {
            return;
        }
        let n = &mut self.nodes[idx];
        n.up = true;
        n.incarnation += 1;
        n.node.proto = (self.factory)(node);
        n.node.sm.reset();
        n.commits.clear();
        n.cpu_free = self.now;
        let log = n.node.log.clone();
        // Replaying the log re-commits executed commands into the fresh
        // state machine; replies are suppressed (clients saw them already).
        self.invoke(idx, true, |p, ctx| p.on_recover(&log, ctx));
        self.invoke(idx, false, |p, ctx| p.on_start(ctx));
    }

    fn handle_heal(&mut self, a: ReplicaId, b: ReplicaId) {
        let key = link_key(a, b);
        self.partitioned.remove(&key);
        if let Some(pos) = self.parked.iter().position(|(k, _)| *k == key) {
            let (_, q) = self.parked.remove(pos);
            // Deliver the backlog synchronously at the heal instant, in
            // park order, AHEAD of any same-link message already queued
            // for this or a later instant. Spreading the flush over
            // future ticks (or re-queueing it) would let a later-sent
            // in-flight message overtake the backlog — a per-link FIFO
            // violation, and FIFO is a driver contract the protocols'
            // cumulative acknowledgements rely on for safety.
            for (from, to, msg) in q {
                self.handle_deliver(from, to, msg);
            }
        }
    }

    fn enqueue_input(&mut self, idx: usize, input: Input<P::Msg>) {
        let (at, incarnation) = {
            let n = &mut self.nodes[idx];
            n.inbox.push_back(input);
            if n.inbox_scheduled {
                return;
            }
            n.inbox_scheduled = true;
            (n.cpu_free.max(self.now), n.incarnation)
        };
        self.queue.push(
            at,
            Event::ProcessInbox {
                node: ReplicaId::new(idx as u16),
                incarnation,
            },
        );
    }

    /// Inbox processing step: drain the inbox as one receive batch, hand
    /// it to the protocol as the intake rule cuts it
    /// ([`rsm_core::node::intake`], the runtime's rule: runs of queued
    /// writes become capped batches, a peer message inside a run waits
    /// for its batch, a read ends the run), then ship all produced
    /// messages as per-destination send batches. With a CPU model the
    /// node is busy for the step's total cost and outgoing messages hit
    /// the network when it completes; without one the step is free and
    /// instantaneous (pure coalescing).
    fn handle_process_inbox(&mut self, node: ReplicaId, incarnation: u64) {
        let idx = node.index();
        // Same staleness guard as Timer: a crash (and the subsequent
        // recovery) bumps the incarnation, so an event scheduled before
        // the crash must not drain the recovered node's inbox — it would
        // process input at the pre-crash instant and regress cpu_free
        // below work the recovery already planned.
        if self.nodes[idx].incarnation != incarnation {
            return;
        }
        let cpu = self.cfg.cpu;
        let inputs: Vec<Input<P::Msg>> = {
            let n = &mut self.nodes[idx];
            n.inbox_scheduled = false;
            if !n.up || n.inbox.is_empty() {
                n.inbox.clear();
                return;
            }
            n.inbox.drain(..).collect()
        };
        let recv_cost = match cpu {
            Some(cpu) => {
                let recv_bytes: usize = inputs
                    .iter()
                    .map(|i| match i {
                        Input::Msg(_, m) => m.wire_size(),
                        Input::Write(c) | Input::Read(c) => c.encoded_len(),
                    })
                    .sum();
                cpu.batch_cost(inputs.len(), recv_bytes)
            }
            None => 0,
        };

        // Run the protocol over every input, accumulating effects.
        let batch = self.cfg.batch;
        let n = &mut self.nodes[idx];
        let mut driver = SimDriver::new(self.now, &mut n.clock);
        n.node.with(&mut driver, |proto, ctx| {
            let mut inputs = inputs.into_iter();
            let mut actions = VecDeque::new();
            while let Some(first) = inputs.next() {
                intake(batch, first, || inputs.next(), &mut actions);
                for action in actions.drain(..) {
                    match action {
                        Action::Batch(cmds) => propose(proto, ctx, cmds),
                        Action::Read(cmd) => proto.on_client_read(cmd, ctx),
                        Action::Msg(from, m) => proto.on_message(from, m, ctx),
                    }
                }
            }
        });
        let eff = driver.eff;

        // Send batches: group by destination (order-preserving).
        let mut send_cost: Micros = 0;
        if let Some(cpu) = cpu {
            let mut dests: Vec<ReplicaId> = Vec::new();
            for (to, _) in &eff.sends {
                if !dests.contains(to) {
                    dests.push(*to);
                }
            }
            for d in &dests {
                let (k, bytes) = eff
                    .sends
                    .iter()
                    .filter(|(to, _)| to == d)
                    .fold((0usize, 0usize), |(k, b), (_, m)| {
                        (k + 1, b + m.wire_size())
                    });
                send_cost += cpu.batch_cost(k, bytes);
            }
            // Replies to local clients, for committed writes and served
            // reads alike, are one more small send batch.
            let reply_count = eff.commits.iter().filter(|(c, _)| c.origin == node).count()
                + eff.read_replies.len();
            if reply_count > 0 {
                send_cost += cpu.batch_cost(reply_count, reply_count * 16);
            }
        }

        let done = self.now + recv_cost + send_cost;
        self.nodes[idx].cpu_free = done;
        self.apply_effects(idx, eff, done, false);

        // More input may have queued while this step was being planned.
        let n = &mut self.nodes[idx];
        if !n.inbox.is_empty() && !n.inbox_scheduled {
            n.inbox_scheduled = true;
            let incarnation = n.incarnation;
            self.queue
                .push(done, Event::ProcessInbox { node, incarnation });
        }
    }

    /// Runs `f` against node `idx`'s protocol with a fresh effect buffer,
    /// then applies the effects at the current instant.
    fn invoke(&mut self, idx: usize, replaying: bool, f: impl FnOnce(&mut P, &mut dyn Context<P>)) {
        let n = &mut self.nodes[idx];
        let mut driver = SimDriver::new(self.now, &mut n.clock);
        n.node.with(&mut driver, f);
        let eff = driver.eff;
        self.apply_effects(idx, eff, self.now, replaying);
    }

    /// Applies buffered effects produced by node `idx`: schedules message
    /// deliveries (with latency, jitter, and per-link FIFO floors), arms
    /// timers, executes commits on the state machine, and routes replies.
    fn apply_effects(&mut self, idx: usize, eff: Effects<P>, at: Micros, replaying: bool) {
        let from = ReplicaId::new(idx as u16);
        if let Some(o) = &mut self.nodes[idx].node.obs {
            o.count(names::MSGS_SENT, eff.sends.len() as u64);
        }
        for (to, msg) in eff.sends {
            // Link chaos (extra delay + jitter set by the fuzzer) applies
            // only to cross-node links; the FIFO floor below keeps each
            // link in order regardless, so chaos reorders across links
            // only — the one kind the drivers' FIFO contract permits.
            let (chaos_delay, chaos_jitter) = if to != from {
                self.link_chaos
                    .get(&link_key(from, to))
                    .copied()
                    .unwrap_or((0, 0))
            } else {
                (0, 0)
            };
            let base = if to == from {
                0
            } else {
                self.cfg.latency.one_way(from, to) + chaos_delay
            };
            let jitter_bound = if to != from {
                self.cfg.jitter_us + chaos_jitter
            } else {
                0
            };
            let jitter = if jitter_bound > 0 {
                self.rng.gen_range(0..=jitter_bound)
            } else {
                0
            };
            let floor = self.fifo_floor[idx][to.index()];
            let deliver_at = (at + base + jitter).max(floor);
            self.fifo_floor[idx][to.index()] = deliver_at;
            self.queue
                .push(deliver_at, Event::Deliver { from, to, msg });
        }
        for (after, token) in eff.timers {
            let incarnation = self.nodes[idx].incarnation;
            self.queue.push(
                at + after,
                Event::Timer {
                    node: from,
                    incarnation,
                    token,
                },
            );
        }
        if eff.installed {
            // A snapshot install jumped the state machine over commands
            // this node never executed individually, so its recorded
            // history would have a hole mid-stream. Restart the history
            // at the install (exactly like crash-recovery restarts it):
            // the total-order checker aligns mid-stream starts, but it
            // cannot align across interior gaps. The cumulative
            // commit_count is deliberately left alone.
            self.nodes[idx].commits.clear();
        }
        // Locally served reads: route straight back to the issuing
        // client — no commit, no history record, one delivery hop
        // (local, or the WAN hop home when the client routed the read
        // to a remote replica).
        if !replaying {
            for reply in eff.read_replies {
                let client = reply.id.client;
                self.queue.push(
                    at + self.reply_delay(from, client),
                    Event::ReplyArrive { client, reply },
                );
            }
        }
        // Executing a flushed batch is not instantaneous: under a CPU
        // model, the k-th commit of one callback finishes (and its
        // reply departs) k executions later than the first. Without the
        // spread, every reply of a saturating flush lands at one
        // instant and the sampled latency distribution collapses to a
        // point (p99 == p50) under heavy batched load.
        let per_exec_us = self.cfg.cpu.as_ref().map(|c| c.per_msg_us).unwrap_or(0);
        for (k, (committed, result)) in eff.commits.into_iter().enumerate() {
            let done_at = at + per_exec_us * k as Micros;
            // Commit/execute stamps stay on the origin replica (the
            // client's pipeline); recovery replays re-execute old
            // commands and must not re-stamp still-open spans.
            if !replaying && committed.origin == from {
                if let Some(t) = &self.tracer {
                    let key = span_key(committed.cmd.id);
                    let r = from.as_u16();
                    t.record_at_origin(key, r, TraceStage::Committed.index(), at);
                    t.record_at_origin(key, r, TraceStage::Executed.index(), done_at);
                }
            }
            if self.cfg.record_history {
                self.nodes[idx].commits.push(CommitRecord {
                    at,
                    order_hint: committed.order_hint,
                    origin: committed.origin,
                    cmd_id: committed.cmd.id,
                });
            }
            self.app.on_commit(from, &committed, at);
            if committed.origin == from && !replaying {
                let client = committed.cmd.id.client;
                let reply = Reply::new(committed.cmd.id, result);
                self.queue.push(
                    done_at + self.reply_delay(from, client),
                    Event::ReplyArrive { client, reply },
                );
            }
        }
    }

    /// Delay for a reply travelling from the replica that produced it
    /// back to the issuing client: the local hop when the client is
    /// co-located, the one-way WAN latency otherwise (a client that
    /// routed its request to a remote replica pays the trip home too).
    fn reply_delay(&self, from: ReplicaId, client: ClientId) -> Micros {
        if client.site() == from {
            LOCAL_DELIVERY_US
        } else {
            self.cfg.latency.one_way(from, client.site())
        }
    }
}

/// Where a client at `site` should send a read-only command: the site
/// replica's [`lease_holder_hint`], or the site itself.
///
/// [`lease_holder_hint`]: rsm_core::protocol::Protocol::lease_holder_hint
fn read_target<P: Protocol>(nodes: &[SimNode<P>], site: ReplicaId) -> ReplicaId {
    nodes
        .get(site.index())
        .and_then(|n| n.node.proto.lease_holder_hint())
        .unwrap_or(site)
}

fn link_key(a: ReplicaId, b: ReplicaId) -> (usize, usize) {
    let (x, y) = (a.index(), b.index());
    if x <= y {
        (x, y)
    } else {
        (y, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rsm_core::command::CommandId;

    /// A toy protocol: the origin broadcasts a command; every replica
    /// commits on receipt (no coordination). Exercises delivery, FIFO,
    /// commits, replies, crash/recover, and CPU batching paths.
    struct Flood {
        id: ReplicaId,
        n: u16,
        delivered: u64,
    }

    #[derive(Clone, Debug)]
    struct FloodMsg(Command, ReplicaId);

    impl WireSize for FloodMsg {
        fn wire_size(&self) -> usize {
            32 + self.0.payload.len()
        }
    }

    impl Protocol for Flood {
        type Msg = FloodMsg;
        type LogRec = Command;

        fn id(&self) -> ReplicaId {
            self.id
        }
        fn on_start(&mut self, _ctx: &mut dyn Context<Self>) {}
        fn on_client_batch(&mut self, batch: rsm_core::Batch, ctx: &mut dyn Context<Self>) {
            for cmd in batch {
                for i in 0..self.n {
                    ctx.send(ReplicaId::new(i), FloodMsg(cmd.clone(), self.id));
                }
            }
        }
        fn on_message(&mut self, _from: ReplicaId, msg: FloodMsg, ctx: &mut dyn Context<Self>) {
            ctx.log_append(msg.0.clone());
            self.delivered += 1;
            ctx.commit(Committed {
                cmd: msg.0,
                origin: msg.1,
                order_hint: self.delivered,
            });
        }
        fn on_timer(&mut self, _t: TimerToken, _ctx: &mut dyn Context<Self>) {}
        fn on_recover(&mut self, log: &[Command], ctx: &mut dyn Context<Self>) {
            for cmd in log {
                self.delivered += 1;
                ctx.commit(Committed {
                    cmd: cmd.clone(),
                    origin: self.id,
                    order_hint: self.delivered,
                });
            }
        }
    }

    struct CollectApp {
        replies: Vec<(Micros, CommandId)>,
        submitted: bool,
    }

    impl Application<Flood> for CollectApp {
        fn on_init(&mut self, api: &mut SimApi<'_, Flood>) {
            api.schedule(1_000, 0);
        }
        fn on_event(&mut self, _key: u64, api: &mut SimApi<'_, Flood>) {
            if !self.submitted {
                self.submitted = true;
                let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), 1);
                api.submit(
                    ReplicaId::new(0),
                    Command::new(id, Bytes::from_static(b"x")),
                );
            }
        }
        fn on_reply(&mut self, _c: ClientId, reply: Reply, api: &mut SimApi<'_, Flood>) {
            self.replies.push((api.now(), reply.id));
        }
    }

    fn sm() -> Box<dyn StateMachine> {
        #[derive(Default)]
        struct Count(u64);
        impl StateMachine for Count {
            fn apply(&mut self, _cmd: &Command) -> Bytes {
                self.0 += 1;
                Bytes::copy_from_slice(&self.0.to_be_bytes())
            }
            fn snapshot(&self) -> Bytes {
                Bytes::copy_from_slice(&self.0.to_be_bytes())
            }
            fn reset(&mut self) {
                self.0 = 0;
            }
            fn restore(&mut self, snapshot: &[u8]) -> bool {
                let Ok(bytes) = snapshot.try_into() else {
                    return false;
                };
                self.0 = u64::from_be_bytes(bytes);
                true
            }
        }
        Box::new(Count::default())
    }

    fn flood_sim(cfg: SimConfig) -> Simulation<Flood, CollectApp> {
        let n = cfg.num_replicas() as u16;
        Simulation::new(
            cfg,
            move |id| Flood {
                id,
                n,
                delivered: 0,
            },
            sm,
            CollectApp {
                replies: Vec::new(),
                submitted: false,
            },
        )
    }

    #[test]
    fn command_floods_and_reply_arrives() {
        let cfg = SimConfig::new(LatencyMatrix::uniform(3, 10_000));
        let mut sim = flood_sim(cfg);
        sim.run_until(1_000_000);
        // Reply path: 1ms sched + 0.3ms to replica + self deliver(0) + 0.3ms back.
        assert_eq!(sim.app().replies.len(), 1);
        let (at, _) = sim.app().replies[0];
        assert_eq!(at, 1_000 + 300 + 300);
        // All three replicas committed the command.
        for r in 0..3 {
            assert_eq!(sim.commit_count(ReplicaId::new(r)), 1);
        }
    }

    #[test]
    fn remote_delivery_takes_one_way_latency() {
        let cfg = SimConfig::new(LatencyMatrix::uniform(3, 10_000));
        let mut sim = flood_sim(cfg);
        sim.run_until(1_000_000);
        let far = sim.commits(ReplicaId::new(1));
        assert_eq!(far.len(), 1);
        assert_eq!(far[0].at, 1_000 + 300 + 10_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let cfg = SimConfig::new(LatencyMatrix::uniform(5, 20_000))
                .seed(seed)
                .jitter_us(2_000);
            let mut sim = flood_sim(cfg);
            sim.run_until(1_000_000);
            sim.commits(ReplicaId::new(3)).to_vec()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn jitter_preserves_per_link_fifo() {
        // Two requests back-to-back; with huge jitter the two PREPAREs from
        // r0 to r1 must still arrive in order.
        struct TwoApp;
        impl Application<Flood> for TwoApp {
            fn on_init(&mut self, api: &mut SimApi<'_, Flood>) {
                for seq in 0..20 {
                    let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq);
                    api.submit(
                        ReplicaId::new(0),
                        Command::new(id, Bytes::from_static(b"y")),
                    );
                }
            }
            fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, Flood>) {}
            fn on_event(&mut self, _: u64, _: &mut SimApi<'_, Flood>) {}
        }
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 10_000))
            .seed(9)
            .jitter_us(9_000);
        let mut sim = Simulation::new(
            cfg,
            |id| Flood {
                id,
                n: 2,
                delivered: 0,
            },
            sm,
            TwoApp,
        );
        sim.run_until(10_000_000);
        let seqs: Vec<u64> = sim
            .commits(ReplicaId::new(1))
            .iter()
            .map(|c| c.cmd_id.seq)
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "FIFO violated: {seqs:?}");
    }

    #[test]
    fn crash_drops_messages_and_recovery_replays_log() {
        let cfg = SimConfig::new(LatencyMatrix::uniform(3, 10_000));
        let mut sim = flood_sim(cfg);
        // Crash r1 before the command reaches it (in flight at 1.3ms+10ms).
        sim.app_mut();
        {
            // Schedule crash at t=5ms (message in flight), recover at 50ms.
            let Simulation { queue, .. } = &mut sim;
            queue.push(
                5_000,
                Event::Crash {
                    node: ReplicaId::new(1),
                },
            );
            queue.push(
                50_000,
                Event::Recover {
                    node: ReplicaId::new(1),
                },
            );
        }
        sim.run_until(1_000_000);
        // r1 lost the in-flight message and its log is empty: zero commits.
        assert_eq!(sim.commit_count(ReplicaId::new(1)), 0);
        assert!(sim.is_up(ReplicaId::new(1)));
        // Other replicas unaffected.
        assert_eq!(sim.commit_count(ReplicaId::new(0)), 1);
        assert_eq!(sim.commit_count(ReplicaId::new(2)), 1);
    }

    #[test]
    fn stale_process_inbox_from_previous_incarnation_is_ignored() {
        // A ProcessInbox event scheduled while the node was busy, then
        // orphaned by a crash + recovery, must not fire against the new
        // incarnation: it would drain the recovered inbox early and
        // regress cpu_free below work the recovery already planned.
        struct NullApp;
        impl Application<Flood> for NullApp {
            fn on_init(&mut self, _: &mut SimApi<'_, Flood>) {}
            fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, Flood>) {}
            fn on_event(&mut self, _: u64, _: &mut SimApi<'_, Flood>) {}
        }
        let cpu = CpuModel {
            fixed_batch_us: 100_000,
            per_msg_us: 0,
            per_kb_us: 0,
        };
        let cfg = SimConfig::new(LatencyMatrix::uniform(1, 10_000)).cpu_model(cpu);
        let mut sim = Simulation::new(
            cfg,
            |id| Flood {
                id,
                n: 1,
                delivered: 0,
            },
            sm,
            NullApp,
        );
        let node = ReplicaId::new(0);
        let req = |seq| Event::Request {
            to: node,
            cmd: Command::new(
                CommandId::new(ClientId::new(node, 0), seq),
                Bytes::from_static(b"x"),
            ),
        };
        {
            let Simulation { queue, .. } = &mut sim;
            // Processed at t=1ms; the node is then busy until ~201ms.
            queue.push(1_000, req(1));
            // Arrives while busy: ProcessInbox scheduled at ~201ms with
            // the pre-crash incarnation — the stale event under test.
            queue.push(2_000, req(2));
            queue.push(3_000, Event::Crash { node });
            queue.push(4_000, Event::Recover { node });
            // Post-recovery: one request processed immediately (busy
            // until ~205ms), one queued behind it.
            queue.push(5_000, req(3));
            queue.push(6_000, req(4));
        }
        sim.run_until(7_000);
        let busy_until = sim.nodes[0].cpu_free;
        assert!(
            busy_until > 201_000,
            "setup: node busy past the stale event"
        );
        assert_eq!(sim.nodes[0].inbox.len(), 1, "setup: one request queued");
        // Run past the stale event's fire time (but before the real one).
        sim.run_until(203_000);
        assert_eq!(
            sim.nodes[0].cpu_free, busy_until,
            "stale ProcessInbox regressed cpu_free"
        );
        assert!(
            !sim.nodes[0].inbox.is_empty(),
            "stale ProcessInbox drained the recovered inbox early"
        );
    }

    #[test]
    fn partition_parks_and_heal_delivers_in_order() {
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 10_000));
        struct ManyApp;
        impl Application<Flood> for ManyApp {
            fn on_init(&mut self, api: &mut SimApi<'_, Flood>) {
                api.partition(ReplicaId::new(0), ReplicaId::new(1), 0);
                for seq in 0..5 {
                    let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq);
                    api.submit(
                        ReplicaId::new(0),
                        Command::new(id, Bytes::from_static(b"z")),
                    );
                }
                api.heal(ReplicaId::new(0), ReplicaId::new(1), 200_000);
            }
            fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, Flood>) {}
            fn on_event(&mut self, _: u64, _: &mut SimApi<'_, Flood>) {}
        }
        let mut sim = Simulation::new(
            cfg,
            |id| Flood {
                id,
                n: 2,
                delivered: 0,
            },
            sm,
            ManyApp,
        );
        sim.run_until(1_000_000);
        let commits = sim.commits(ReplicaId::new(1));
        assert_eq!(commits.len(), 5, "parked messages must deliver after heal");
        assert!(commits[0].at >= 200_000);
        let seqs: Vec<u64> = commits.iter().map(|c| c.cmd_id.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn heal_flush_never_lets_in_flight_messages_overtake_the_backlog() {
        // Three messages park during a partition. A fourth is sent late
        // enough that its in-flight delivery time lands exactly on the
        // heal instant — its Deliver event sits in the queue with an
        // older sequence number than anything the heal schedules. Per-
        // link FIFO (a contract the protocols' cumulative acks rely on)
        // demands it still arrive AFTER the whole parked backlog.
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 10_000));
        struct TieApp;
        impl Application<Flood> for TieApp {
            fn on_init(&mut self, api: &mut SimApi<'_, Flood>) {
                api.partition(ReplicaId::new(0), ReplicaId::new(1), 0);
                for seq in 0..3 {
                    let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq);
                    api.submit(
                        ReplicaId::new(0),
                        Command::new(id, Bytes::from_static(b"z")),
                    );
                }
                // Request lands at 9_700 + 300 = 10_000; its broadcast
                // departs then and would arrive at 20_000 — the heal
                // instant — ahead of any event the heal enqueues.
                api.schedule(9_700, 42);
                api.heal(ReplicaId::new(0), ReplicaId::new(1), 20_000);
            }
            fn on_event(&mut self, _: u64, api: &mut SimApi<'_, Flood>) {
                let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), 99);
                api.submit(
                    ReplicaId::new(0),
                    Command::new(id, Bytes::from_static(b"t")),
                );
            }
            fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, Flood>) {}
        }
        let mut sim = Simulation::new(
            cfg,
            |id| Flood {
                id,
                n: 2,
                delivered: 0,
            },
            sm,
            TieApp,
        );
        sim.run_until(1_000_000);
        let seqs: Vec<u64> = sim
            .commits(ReplicaId::new(1))
            .iter()
            .map(|c| c.cmd_id.seq)
            .collect();
        assert_eq!(
            seqs,
            vec![0, 1, 2, 99],
            "the late message must not overtake the parked backlog"
        );
    }

    #[test]
    fn cpu_model_delays_processing_and_batches() {
        let cpu = CpuModel {
            fixed_batch_us: 100,
            per_msg_us: 10,
            per_kb_us: 0,
        };
        struct BurstApp;
        impl Application<Flood> for BurstApp {
            fn on_init(&mut self, api: &mut SimApi<'_, Flood>) {
                for seq in 0..10 {
                    let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq);
                    api.submit(
                        ReplicaId::new(0),
                        Command::new(id, Bytes::from_static(b"c")),
                    );
                }
            }
            fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, Flood>) {}
            fn on_event(&mut self, _: u64, _: &mut SimApi<'_, Flood>) {}
        }
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 1_000)).cpu_model(cpu);
        let mut sim = Simulation::new(
            cfg,
            |id| Flood {
                id,
                n: 2,
                delivered: 0,
            },
            sm,
            BurstApp,
        );
        sim.run_until(10_000_000);
        assert_eq!(sim.commit_count(ReplicaId::new(1)), 10);
        // The 10 requests arrive together at t=300; the first CPU step
        // handles the whole batch: recv cost 100+10*10 = 200.
        let first_remote_commit = sim.commits(ReplicaId::new(1))[0].at;
        // Send batch to r1: 10 msgs -> 100+100 = 200; self batch too.
        // Departure at 300+200+200+200(self)=900, + 1000 link.
        assert!(first_remote_commit >= 300 + 200 + 1_000);
    }

    /// A protocol that records what the inbox step hands it: the size of
    /// each client batch, and 0 for a read.
    struct BatchObserver {
        id: ReplicaId,
        calls: Vec<usize>,
    }

    impl Protocol for BatchObserver {
        type Msg = ();
        type LogRec = ();

        fn id(&self) -> ReplicaId {
            self.id
        }
        fn on_start(&mut self, _ctx: &mut dyn Context<Self>) {}
        fn on_client_batch(&mut self, batch: rsm_core::Batch, _: &mut dyn Context<Self>) {
            self.calls.push(batch.len());
        }
        fn on_client_read(&mut self, _: Command, _: &mut dyn Context<Self>) {
            self.calls.push(0);
        }
        fn on_message(&mut self, _: ReplicaId, _: (), _: &mut dyn Context<Self>) {}
        fn on_timer(&mut self, _: TimerToken, _: &mut dyn Context<Self>) {}
        fn on_recover(&mut self, _: &[()], _: &mut dyn Context<Self>) {}
    }

    struct MixedAtOnce;
    impl Application<BatchObserver> for MixedAtOnce {
        fn on_init(&mut self, api: &mut SimApi<'_, BatchObserver>) {
            // Two writes, a read, two writes, all landing at t = 300.
            for seq in 0..5 {
                let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq);
                let cmd = if seq == 2 {
                    Command::read(id, Bytes::from_static(b"r"))
                } else {
                    Command::new(id, Bytes::from_static(b"w"))
                };
                api.submit(ReplicaId::new(0), cmd);
            }
        }
        fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, BatchObserver>) {}
        fn on_event(&mut self, _: u64, _: &mut SimApi<'_, BatchObserver>) {}
    }

    #[test]
    fn a_coalescing_inbox_keeps_reads_in_place_among_writes() {
        // The rule itself is `rsm_core::node::intake`'s to test; this is
        // the wiring. Without a CPU model, a coalescing policy routes
        // reads through the inbox with the writes, so the read waits
        // for the writes that arrived before it; without one, nothing
        // coalesces and every request is handed over on arrival.
        let calls = |batch| {
            let cfg = SimConfig::new(LatencyMatrix::uniform(2, 1_000)).batch_policy(batch);
            let observer = |id| BatchObserver {
                id,
                calls: Vec::new(),
            };
            let mut sim = Simulation::new(cfg, observer, sm, MixedAtOnce);
            sim.run_until(1_000_000);
            sim.protocol(ReplicaId::new(0)).calls.clone()
        };
        assert_eq!(calls(rsm_core::BatchPolicy::max(64)), [2, 0, 2]);
        assert_eq!(calls(rsm_core::BatchPolicy::DISABLED), [1, 1, 0, 1, 1]);
    }

    #[test]
    fn run_until_stops_at_bound() {
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 10_000));
        let mut sim = flood_sim(cfg);
        sim.run_until(500);
        assert!(sim.now() <= 1_000);
        assert_eq!(sim.app().replies.len(), 0);
    }

    #[test]
    fn scripted_clock_anomalies_stay_monotonic_through_the_sim() {
        // The observed-clock monotonicity guard must hold across every
        // anomaly kind when driven through the simulation, and the net
        // offsets must land where the schedule says. The faults take the
        // path chaos and harness schedules take: `SimApi`.
        let mut sim = flood_sim(SimConfig::new(LatencyMatrix::uniform(2, 10_000)));
        let r = ReplicaId::new(1);
        sim.with_api(|_, api| {
            api.clock_jump(r, -40_000, 50_000);
            api.clock_freeze(r, 30_000, 120_000);
            api.clock_drift_burst(r, 50_000.0, 100_000, 200_000);
        });
        // Reads the clock at the current virtual time, advancing the
        // monotonic stamper as a protocol's read does.
        let read_clock = |sim: &mut Simulation<_, _>, r: ReplicaId| {
            let now = sim.now;
            sim.nodes[r.index()].clock.read(now)
        };
        let mut prev = 0;
        for k in 1..=40u64 {
            sim.run_until(k * 10_000);
            let v = read_clock(&mut sim, r);
            assert!(
                v > prev,
                "clock regressed at t={}: {v} <= {prev}",
                k * 10_000
            );
            prev = v;
        }
        // Net: −40ms step, −30ms freeze, +5ms accumulated burst drift.
        assert_eq!(sim.now(), 400_000);
        assert_eq!(
            read_clock(&mut sim, r),
            400_000 - 40_000 - 30_000 + 5_000 + 1
        );
        // Replica 0's clock is untouched by replica 1's schedule.
        assert_eq!(read_clock(&mut sim, ReplicaId::new(0)), 400_000);
    }

    #[test]
    fn link_delay_reorders_across_links_only() {
        // Extra delay on link (0,1) slows that link's delivery while the
        // (0,2) link is unaffected — cross-link reordering.
        let cfg = SimConfig::new(LatencyMatrix::uniform(3, 10_000));
        let mut sim = flood_sim(cfg);
        sim.queue.push(
            0,
            Event::LinkDelay {
                a: ReplicaId::new(0),
                b: ReplicaId::new(1),
                extra_us: 50_000,
            },
        );
        sim.run_until(1_000_000);
        let r1 = sim.commits(ReplicaId::new(1))[0].at;
        let r2 = sim.commits(ReplicaId::new(2))[0].at;
        assert_eq!(r2, 1_000 + 300 + 10_000, "untouched link: base latency");
        assert_eq!(r1, 1_000 + 300 + 10_000 + 50_000, "chaos link: +50ms");
    }

    #[test]
    fn link_jitter_preserves_per_link_fifo() {
        // Same contract as global jitter, but injected per-link: the 20
        // floods from r0 to r1 must still commit in submission order.
        struct TwentyApp;
        impl Application<Flood> for TwentyApp {
            fn on_init(&mut self, api: &mut SimApi<'_, Flood>) {
                api.link_jitter(ReplicaId::new(0), ReplicaId::new(1), 9_000, 0);
                for seq in 0..20 {
                    let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), seq);
                    api.submit(
                        ReplicaId::new(0),
                        Command::new(id, Bytes::from_static(b"z")),
                    );
                }
            }
            fn on_reply(&mut self, _: ClientId, _: Reply, _: &mut SimApi<'_, Flood>) {}
            fn on_event(&mut self, _: u64, _: &mut SimApi<'_, Flood>) {}
        }
        let cfg = SimConfig::new(LatencyMatrix::uniform(2, 10_000)).seed(7);
        let mut sim = Simulation::new(
            cfg,
            |id| Flood {
                id,
                n: 2,
                delivered: 0,
            },
            sm,
            TwentyApp,
        );
        sim.run_until(10_000_000);
        let seqs: Vec<u64> = sim
            .commits(ReplicaId::new(1))
            .iter()
            .map(|c| c.cmd_id.seq)
            .collect();
        assert_eq!(seqs.len(), 20);
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "per-link FIFO violated: {seqs:?}");
    }
}
