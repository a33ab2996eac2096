//! Cluster orchestration: spawn replicas, submit commands, wait for
//! replies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Sender};

use rsm_core::batch::BatchPolicy;
use rsm_core::command::{Command, CommandId, Reply};
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::matrix::LatencyMatrix;
use rsm_core::node::Node;
use rsm_core::protocol::Protocol;
use rsm_core::session::ClientSession;
use rsm_core::sm::StateMachine;
use rsm_core::wire::WireMsg;
use rsm_obs::{gauge_max, Gauge, MetricsSnapshot, NodeObs, ObsConfig, Registry, Tracer};
use rsm_transport::{Endpoint, Hub, Listener, TransportMetrics};

use crate::node::{NodeHarness, NodeInput, NodeReport, Outbound, Waiter, Wall};

/// How replica threads exchange protocol messages.
///
/// The protocol cores and the client API are identical across all
/// three: the choice only swaps the message plane underneath the node
/// threads. Socket modes encode every message with the binary wire
/// format (`rsm_core::wire`) onto framed, FIFO, per-peer connections;
/// the configured latency matrix still applies (each link holds frames
/// back by its scaled one-way delay before they hit the socket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterTransport {
    /// Messages stay in memory: a send stamps the message with its due
    /// time and pushes it straight into the destination's inbox, and the
    /// receiving node thread holds it until then. The default.
    #[default]
    InProcess,
    /// Loopback TCP: every ordered replica pair gets one real socket
    /// carrying length-prefixed frames.
    Tcp,
    /// Unix-domain sockets under the system temp directory; same
    /// framing as TCP without the loopback TCP stack.
    Uds,
}

/// First client number the cluster mints for its own API calls
/// ([`Cluster::execute`], [`Cluster::session`]). Caller-minted ids
/// ([`Cluster::execute_command`]) must stay below it; the repo
/// benchmark's clients and the test suites' small numbers already do.
pub const CLIENT_BASE: u32 = 0x4000_0000;

/// Default admission-control high-water mark: a *new* command is
/// rejected with [`ExecuteError::Busy`] when its target replica's inbox
/// or deepest per-peer outbound queue holds more than this many
/// entries. Retries of an already-submitted command bypass the check —
/// rejecting them would break the exactly-once retry contract for no
/// gain (their slot is already paid for).
const DEFAULT_ADMISSION_HWM: usize = 65_536;

/// Configuration of a live cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    latency: LatencyMatrix,
    scale: f64,
    clock_offsets_us: Vec<i64>,
    batch: BatchPolicy,
    epoch: Option<Instant>,
    transport: ClusterTransport,
    retry_attempts: u32,
    retry_backoff: Duration,
    admission_hwm: usize,
    observe: Option<ObsConfig>,
}

impl ClusterConfig {
    /// A cluster over the given one-way latency matrix, full-scale delays,
    /// perfectly aligned clocks, batching disabled.
    pub fn new(latency: LatencyMatrix) -> Self {
        let n = latency.len();
        ClusterConfig {
            latency,
            scale: 1.0,
            clock_offsets_us: vec![0; n],
            batch: BatchPolicy::DISABLED,
            epoch: None,
            transport: ClusterTransport::InProcess,
            retry_attempts: 1,
            retry_backoff: Duration::from_millis(50),
            admission_hwm: DEFAULT_ADMISSION_HWM,
            observe: None,
        }
    }

    /// Turns on observability: a shared metrics [`Registry`] every node
    /// (and, over sockets, the transport) records into, plus a [`Tracer`]
    /// collecting per-command stage spans. Trace stamps carry monotonic
    /// microseconds since the cluster epoch — one timeline across all
    /// replica threads, unaffected by the configured per-node clock
    /// offsets. Off by default; read results with [`Cluster::metrics`]
    /// and [`Cluster::tracer`].
    pub fn observe(mut self, cfg: ObsConfig) -> Self {
        self.observe = Some(cfg);
        self
    }

    /// Sets how often [`Cluster::execute`] and [`ClusterSession::execute`]
    /// try a command before giving up, and the base backoff between
    /// attempts (attempt `k` sleeps `k * backoff`). Every attempt after
    /// the first resubmits the SAME command id, so a command whose first
    /// attempt actually committed — only the reply was lost — is
    /// recognised by the replicas' session tables and answered from the
    /// cached reply instead of being applied again. Defaults to one
    /// attempt (no retry).
    ///
    /// # Panics
    ///
    /// Panics if `attempts` is zero.
    pub fn retries(mut self, attempts: u32, backoff: Duration) -> Self {
        assert!(attempts > 0, "at least one attempt is required");
        self.retry_attempts = attempts;
        self.retry_backoff = backoff;
        self
    }

    /// Sets the admission-control high-water mark (see
    /// [`ExecuteError::Busy`]). New commands are rejected while the
    /// target replica's inbox or deepest per-peer outbound socket queue
    /// exceeds `n` entries; retries are exempt.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn admission_high_water(mut self, n: usize) -> Self {
        assert!(n > 0, "admission high-water mark must be positive");
        self.admission_hwm = n;
        self
    }

    /// Selects the message plane (see [`ClusterTransport`]). Protocols,
    /// clients, and every other knob behave identically; socket modes
    /// additionally require `P::Msg: WireMsg`, which all protocols in
    /// this workspace implement.
    pub fn transport(mut self, transport: ClusterTransport) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the instant the cluster counts time from: replica clocks read
    /// microseconds since `epoch` (plus their configured offset), and so
    /// do trace stamps. A caller that stamps its own calls from the same
    /// instant — the repo benchmark does — can subtract its client-side
    /// times from the cluster's stage stamps. Defaults to the spawn
    /// instant.
    pub fn epoch(mut self, epoch: Instant) -> Self {
        self.epoch = Some(epoch);
        self
    }

    /// Sets the request-coalescing policy: a node thread hands the
    /// protocol whatever requests are queued in its inbox (up to
    /// `max_batch`) as one batch, never waiting for more.
    pub fn batch_policy(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Scales all emulated latencies (e.g. `0.1` = ten times faster than
    /// the real WAN, for quick demos and tests).
    pub fn scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.scale = scale;
        self
    }

    /// Sets one replica's clock offset in microseconds (loose synchrony).
    pub fn clock_offset_us(mut self, replica: usize, offset: i64) -> Self {
        self.clock_offsets_us[replica] = offset;
        self
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.latency.len()
    }

    /// Whether the topology is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.latency.is_empty()
    }

    /// The emulated one-way delay of the `from → to` link, scaled.
    fn link_delay(&self, from: ReplicaId, to: ReplicaId) -> Duration {
        Duration::from_micros((self.latency.one_way(from, to) as f64 * self.scale) as u64)
    }
}

/// A running cluster: one thread per replica — and, over sockets, the
/// transport's listener, reader and link-writer threads. Nothing stands
/// between a replica and its callers: a blocking call's waiter rides in
/// with the request, and the replica thread that executes the command
/// sends the reply straight to it. The in-process plane adds no thread
/// either: replicas push into each other's inboxes and each holds what
/// it receives until the emulated link delay has passed. See the
/// crate-level example.
pub struct Cluster<P: Protocol + Send + 'static> {
    node_txs: Vec<Sender<NodeInput<P>>>,
    node_handles: Vec<JoinHandle<NodeReport>>,
    listeners: Vec<Listener>,
    /// Mints distinct client numbers (offset from [`CLIENT_BASE`]) so
    /// every API call / session owns its own per-client seq space.
    clients: AtomicU64,
    /// Per-replica, per-peer outbound socket-queue depth gauges (empty
    /// in process: a send lands in the destination's inbox at once, so
    /// there is no outbound queue to measure).
    outbound_depths: Vec<Vec<Gauge>>,
    retry_attempts: u32,
    retry_backoff: Duration,
    admission_hwm: usize,
    /// The shared metrics registry when observing.
    registry: Option<Registry>,
    /// The span collector when observing.
    tracer: Option<Tracer>,
}

impl<P: Protocol + Send + 'static> Cluster<P> {
    /// Spawns one thread per replica (protocols built by `factory`, state
    /// machines by `sm_factory`) and the configured message plane.
    pub fn spawn(
        cfg: ClusterConfig,
        mut factory: impl FnMut(ReplicaId) -> P,
        sm_factory: impl Fn() -> Box<dyn StateMachine>,
    ) -> Self
    where
        P::Msg: WireMsg,
    {
        let n = cfg.len();
        let epoch = cfg.epoch.unwrap_or_else(Instant::now);
        let registry = cfg.observe.map(|_| Registry::new());
        let tracer = cfg.observe.map(Tracer::new);
        let mut node_txs = Vec::with_capacity(n);
        let mut node_handles = Vec::with_capacity(n);
        let mut inbox_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<NodeInput<P>>();
            node_txs.push(tx);
            inbox_rxs.push(rx);
        }

        // The message plane: per-node outbound halves plus whatever
        // shared machinery the transport needs (none in process, bound
        // listeners over sockets).
        let mut outbounds: Vec<Outbound<P>>;
        let mut outbound_depths: Vec<Vec<Gauge>> = vec![Vec::new(); n];
        let mut listeners = Vec::new();
        match cfg.transport {
            ClusterTransport::InProcess => {
                outbounds = cfg
                    .latency
                    .replicas()
                    .map(|from| {
                        let links = cfg.latency.replicas().zip(&node_txs);
                        let links =
                            links.map(|(to, inbox)| (inbox.clone(), cfg.link_delay(from, to)));
                        Outbound::InProcess(links.collect())
                    })
                    .collect();
            }
            ClusterTransport::Tcp | ClusterTransport::Uds => {
                // Bind every listener before dialing anything: peers
                // learn each other's concrete endpoints (OS-assigned TCP
                // ports) from the bind results.
                let mut endpoints = Vec::with_capacity(n);
                for (i, node_tx) in node_txs.iter().enumerate() {
                    let ep = match cfg.transport {
                        ClusterTransport::Tcp => Endpoint::tcp_loopback(),
                        _ => Endpoint::uds_temp("cluster", i as u16),
                    };
                    let node_tx = node_tx.clone();
                    let metrics = match &registry {
                        Some(r) => TransportMetrics::register(r, i as u16),
                        None => TransportMetrics::default(),
                    };
                    let listener = Listener::bind_with_metrics(&ep, metrics, move |from, msg| {
                        // The link writer already held the frame for the link delay.
                        let _ = node_tx.send(NodeInput::Msg {
                            from,
                            msg,
                            due: None,
                        });
                    })
                    .expect("bind cluster transport listener");
                    endpoints.push(listener.endpoint().clone());
                    listeners.push(listener);
                }
                outbounds = Vec::with_capacity(n);
                let mut depths = Vec::with_capacity(n);
                for (i, node_tx) in node_txs.iter().enumerate() {
                    let id = ReplicaId::new(i as u16);
                    let loop_tx = node_tx.clone();
                    let mut hub: Hub<P::Msg> = Hub::new(
                        id,
                        Box::new(move |msg| {
                            let _ = loop_tx.send(NodeInput::Msg {
                                from: id,
                                msg,
                                due: None,
                            });
                        }),
                    );
                    if let Some(r) = &registry {
                        // Same cells as the listener's: `register` is
                        // idempotent per name, so send and receive sides
                        // share one `r<i>.transport.*` family.
                        hub.set_metrics(TransportMetrics::register(r, i as u16));
                    }
                    for (j, endpoint) in endpoints.iter().enumerate() {
                        if j == i {
                            continue;
                        }
                        let to = ReplicaId::new(j as u16);
                        hub.add_peer(to, endpoint.clone(), cfg.link_delay(id, to));
                    }
                    let gauges = hub.depth_gauges();
                    if let Some(r) = &registry {
                        for (peer, g) in &gauges {
                            r.register_gauge(
                                &format!("r{i}.transport.outq.{}", peer.as_u16()),
                                g.clone(),
                            );
                        }
                    }
                    depths.push(gauges.into_iter().map(|(_, g)| g).collect());
                    outbounds.push(Outbound::Socket(Box::new(hub)));
                }
                outbound_depths = depths;
            }
        }

        for ((i, inbox), outbound) in inbox_rxs.into_iter().enumerate().zip(outbounds) {
            let id = ReplicaId::new(i as u16);
            let obs = registry.as_ref().map(|r| NodeObs::new(r.clone(), i as u16));
            let harness = NodeHarness {
                node: Node::new(factory(id), sm_factory(), obs, tracer.clone()),
                inbox,
                wall: Wall::new(id, epoch, cfg.clock_offsets_us[i], outbound),
                batch: cfg.batch,
                poll_every: cfg.observe.map(|o| Duration::from_micros(o.poll_interval)),
            };
            node_handles.push(
                std::thread::Builder::new()
                    .name(format!("replica-{i}"))
                    .spawn(move || harness.run())
                    .expect("spawn replica thread"),
            );
        }

        Cluster {
            node_txs,
            node_handles,
            listeners,
            clients: AtomicU64::new(0),
            outbound_depths,
            retry_attempts: cfg.retry_attempts,
            retry_backoff: cfg.retry_backoff,
            admission_hwm: cfg.admission_hwm,
            registry,
            tracer,
        }
    }

    /// A snapshot of the metrics registry, `None` unless the cluster was
    /// spawned with [`ClusterConfig::observe`]. Live reads are fine —
    /// counters are monotone and gauges single-writer — but for a final
    /// accounting snapshot after [`shutdown`](Cluster::shutdown), clone
    /// the registry handle first (shutdown consumes the cluster).
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.registry.as_ref().map(Registry::snapshot)
    }

    /// The shared metrics registry itself, when observing.
    pub fn registry(&self) -> Option<&Registry> {
        self.registry.as_ref()
    }

    /// The span collector, when observing. Clone it to keep reading
    /// spans after shutdown.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Submits a command to `site` without waiting for the reply.
    pub fn submit(&self, site: ReplicaId, cmd: Command) {
        self.request(site, cmd, None);
    }

    /// Hands `site` a request. A dropped inbox means the node stopped;
    /// the command (and its waiter) go down with it.
    fn request(&self, site: ReplicaId, cmd: Command, waiter: Option<Waiter>) {
        let _ = self.node_txs[site.index()].send(NodeInput::Request(cmd, waiter));
    }

    /// Crash-stops one replica: its thread exits immediately and every
    /// message still addressed to it is dropped on the floor. Peers keep
    /// their links up and simply stop hearing from it — exactly what a
    /// remote process kill looks like from the outside — so fail-over
    /// machinery (lease timeouts, elections) runs against a realistically
    /// silent peer. There is no restart path in the threaded runtime;
    /// recovery schedules live in the simnet suites. The callers it was
    /// serving, and commands submitted to it afterwards, wait out their
    /// full timeout: a crashed site is silent, it does not refuse.
    pub fn crash(&self, site: ReplicaId) {
        let _ = self.node_txs[site.index()].send(NodeInput::Stop);
    }

    /// Submits an opaque state machine operation to `site` and blocks
    /// until its reply arrives or `timeout` elapses, retrying per the
    /// configured [`ClusterConfig::retries`] policy. Every retry reuses
    /// the SAME command id, so an attempt whose commit succeeded but
    /// whose reply was lost is answered from the replicas' session
    /// tables instead of being applied a second time.
    ///
    /// # Errors
    ///
    /// Returns `Err(ExecuteError::Timeout)` when no reply arrives within
    /// any attempt's deadline, and `Err(ExecuteError::Busy)` when
    /// admission control rejected the command before it was ever
    /// submitted (the replica is saturated; nothing was applied).
    pub fn execute(
        &self,
        site: ReplicaId,
        payload: Bytes,
        timeout: Duration,
    ) -> Result<Reply, ExecuteError> {
        self.roundtrip(site, payload, timeout, false)
    }

    /// Opens a client session against `site`: a handle owning its own
    /// [`ClientId`] and monotone sequence, whose
    /// [`execute`](ClusterSession::execute) retries with backoff under
    /// the SAME command id (exactly-once across reply loss), and whose
    /// [`retry_last`](ClusterSession::retry_last) deliberately
    /// re-submits the previous command to exercise the dedup path.
    pub fn session(&self, site: ReplicaId) -> ClusterSession<'_, P> {
        ClusterSession {
            cluster: self,
            site,
            session: ClientSession::new(self.mint_client(site)),
            last: None,
        }
    }

    /// Submits a **read-only** operation to `site` and blocks until its
    /// reply arrives or `timeout` elapses. The command is routed down
    /// the protocol's local read path (`rsm_core::read`) instead of the
    /// write batching pipeline: linearizable, served from the local
    /// replica once its stable prefix covers the read, and never held
    /// behind a batch flush threshold.
    ///
    /// # Errors
    ///
    /// Returns `Err(ExecuteError::Timeout)` when no reply arrives in
    /// time (e.g. the read was parked across a fault and lost; retry
    /// like any command).
    pub fn read(
        &self,
        site: ReplicaId,
        payload: Bytes,
        timeout: Duration,
    ) -> Result<Reply, ExecuteError> {
        self.roundtrip(site, payload, timeout, true)
    }

    /// Submits a pre-built command (caller-minted id) to `site` and
    /// blocks until its reply arrives or `timeout` elapses. The id's
    /// client number must stay below [`CLIENT_BASE`] (`0x4000_0000`),
    /// where the cluster's own minted ids start.
    ///
    /// # Errors
    ///
    /// Returns `Err(ExecuteError::Timeout)` when no reply arrives in
    /// time, and `Err(ExecuteError::Busy)` on admission rejection.
    pub fn execute_command(
        &self,
        site: ReplicaId,
        cmd: Command,
        timeout: Duration,
    ) -> Result<Reply, ExecuteError> {
        self.execute_attempt(site, cmd, timeout, false)
    }

    /// One submit-and-wait round. `retry` marks a re-submission of a
    /// command that may already have been applied: it bypasses admission
    /// control (its slot is already paid for) and relies on the
    /// replicas' session tables to convert a duplicate apply into the
    /// cached original reply.
    fn execute_attempt(
        &self,
        site: ReplicaId,
        cmd: Command,
        timeout: Duration,
        retry: bool,
    ) -> Result<Reply, ExecuteError> {
        if !retry {
            self.check_admission(site)?;
        }
        let (tx, rx) = bounded(1);
        let expires = Instant::now() + timeout;
        // A sender of the caller's own, alive until this call returns, so
        // the channel never reads disconnected. A node lets go of a
        // waiter unanswered when it stops, or when a retry of the id
        // replaces it; neither is an answer, and a dead replica does not
        // say it is dead — the caller waits out its deadline.
        let _connected = tx.clone();
        self.request(site, cmd, Some(Waiter { tx, expires }));
        rx.recv_timeout(timeout).map_err(|_| ExecuteError::Timeout)
    }

    /// The configured retry loop around [`execute_attempt`]: same
    /// command id every time. A [`Busy`](ExecuteError::Busy) rejection
    /// means the command never entered the system, so the next attempt
    /// is still "new"; a timeout means it MAY have been applied, so
    /// every later attempt runs as a retry.
    fn execute_with_retry(
        &self,
        site: ReplicaId,
        cmd: Command,
        timeout: Duration,
    ) -> Result<Reply, ExecuteError> {
        let mut submitted = false;
        let mut attempt = 0u32;
        loop {
            let result = self.execute_attempt(site, cmd.clone(), timeout, submitted);
            let err = match result {
                Ok(reply) => return Ok(reply),
                Err(e) => e,
            };
            submitted |= err == ExecuteError::Timeout;
            attempt += 1;
            if attempt >= self.retry_attempts {
                return Err(err);
            }
            std::thread::sleep(self.retry_backoff * attempt);
        }
    }

    /// Rejects a new command when `site`'s inbox or deepest outbound
    /// socket queue is past the high-water mark.
    fn check_admission(&self, site: ReplicaId) -> Result<(), ExecuteError> {
        if self.node_txs[site.index()].len() > self.admission_hwm
            || gauge_max(&self.outbound_depths[site.index()]) > self.admission_hwm as i64
        {
            return Err(ExecuteError::Busy);
        }
        Ok(())
    }

    /// Mints a cluster-owned client id homed at `site` (see
    /// [`CLIENT_BASE`]).
    fn mint_client(&self, site: ReplicaId) -> ClientId {
        let n = self.clients.fetch_add(1, Ordering::Relaxed);
        ClientId::new(site, CLIENT_BASE.wrapping_add(n as u32))
    }

    fn roundtrip(
        &self,
        site: ReplicaId,
        payload: Bytes,
        timeout: Duration,
        read_only: bool,
    ) -> Result<Reply, ExecuteError> {
        // One-shot session per call: a FRESH client id with seq 1, not a
        // shared client with a global seq. Replicas dedup per client by
        // highest applied seq, so two concurrent calls sharing one
        // client id could commit out of seq order and have the lower
        // seq dropped as stale.
        let id = CommandId::new(self.mint_client(site), 1);
        let cmd = if read_only {
            Command::read(id, payload)
        } else {
            Command::new(id, payload)
        };
        self.execute_with_retry(site, cmd, timeout)
    }

    /// Stops every thread and returns the per-node final reports.
    pub fn shutdown(mut self) -> Vec<NodeReport> {
        for tx in &self.node_txs {
            let _ = tx.send(NodeInput::Stop);
        }
        // Joining the node threads drops their outbound halves: in
        // socket mode each hub's writer threads drain their queues,
        // flush, and exit before the join below returns.
        let reports: Vec<NodeReport> = self
            .node_handles
            .into_iter()
            .map(|h| h.join().expect("replica thread panicked"))
            .collect();
        // Socket mode: with every peer's writers gone, stop accepting
        // and join the (EOF'd) readers.
        for listener in &mut self.listeners {
            listener.stop();
        }
        reports
    }
}

/// A client session bound to one [`Cluster`] site: the runtime driver's
/// face of the exactly-once contract (`rsm_core::session`).
///
/// The handle owns a [`ClientSession`] — a stable [`ClientId`] plus a
/// monotone per-client sequence — so every command it executes carries
/// an id the replicas' session tables can dedup on.
/// [`execute`](ClusterSession::execute) retries with backoff under the
/// SAME id when a reply is lost; [`retry_last`](ClusterSession::retry_last)
/// re-submits the previous command verbatim, which must come back with
/// the cached original reply rather than a second application.
pub struct ClusterSession<'a, P: Protocol + Send + 'static> {
    cluster: &'a Cluster<P>,
    site: ReplicaId,
    session: ClientSession,
    /// The most recent command, kept whole so a retry re-submits the
    /// identical (id, payload) pair.
    last: Option<Command>,
}

impl<P: Protocol + Send + 'static> ClusterSession<'_, P> {
    /// The session's stable client identity.
    pub fn client(&self) -> ClientId {
        self.session.client()
    }

    /// The site this session submits to.
    pub fn site(&self) -> ReplicaId {
        self.site
    }

    /// Executes `payload` under the session's next command id, retrying
    /// per the cluster's [`ClusterConfig::retries`] policy with the
    /// SAME id on every attempt.
    ///
    /// # Errors
    ///
    /// Returns [`ExecuteError::Timeout`] when every attempt's deadline
    /// passed without a reply, and [`ExecuteError::Busy`] when
    /// admission control rejected the command before submission.
    pub fn execute(&mut self, payload: Bytes, timeout: Duration) -> Result<Reply, ExecuteError> {
        let cmd = Command::new(self.session.next_id(), payload);
        self.last = Some(cmd.clone());
        self.cluster.execute_with_retry(self.site, cmd, timeout)
    }

    /// Re-submits the session's previous command unchanged — a
    /// deliberate duplicate. The replicas' session tables recognise the
    /// already-applied seq and answer with the CACHED original reply;
    /// the state machine must not run the command again.
    ///
    /// # Errors
    ///
    /// Returns [`ExecuteError::Timeout`] when no reply arrives in time.
    ///
    /// # Panics
    ///
    /// Panics if the session has not executed anything yet.
    pub fn retry_last(&self, timeout: Duration) -> Result<Reply, ExecuteError> {
        let cmd = self.last.clone().expect("no command to retry");
        self.cluster.execute_attempt(self.site, cmd, timeout, true)
    }
}

/// Errors from [`Cluster::execute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecuteError {
    /// No reply within the deadline. The command MAY still commit
    /// later; retry it under the same id (a [`ClusterSession`] does
    /// this automatically) so a late commit is never doubled.
    Timeout,
    /// Admission control rejected the command before it was submitted:
    /// the target replica's inbox or an outbound peer queue is past the
    /// configured high-water mark
    /// ([`ClusterConfig::admission_high_water`]). Nothing was applied;
    /// back off and resubmit as a new command.
    Busy,
}

impl std::fmt::Display for ExecuteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecuteError::Timeout => write!(f, "no reply before the deadline"),
            ExecuteError::Busy => write!(f, "replica saturated: admission control rejected"),
        }
    }
}

impl std::error::Error for ExecuteError {}

#[cfg(test)]
mod tests {
    use super::*;
    use clock_rsm::{ClockRsm, ClockRsmConfig};
    use kvstore::{KvOp, KvStore};
    use mencius::MenciusBcast;
    use paxos::{MultiPaxos, PaxosVariant};
    use rsm_core::config::Membership;
    use rsm_core::obs::TraceStage;

    fn kv() -> Box<dyn StateMachine> {
        Box::new(KvStore::new())
    }

    #[test]
    fn clock_rsm_cluster_commits_from_all_sites() {
        let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000)).scale(0.02);
        let cluster = Cluster::spawn(
            cfg,
            |id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
            kv,
        );
        for i in 0..3u16 {
            let reply = cluster
                .execute(
                    ReplicaId::new(i),
                    KvOp::put(format!("k{i}"), format!("v{i}")).encode(),
                    Duration::from_secs(10),
                )
                .expect("commit");
            assert_eq!(reply.result[0], 1);
        }
        // Read back through another site.
        let reply = cluster
            .execute(
                ReplicaId::new(0),
                KvOp::get("k2").encode(),
                Duration::from_secs(10),
            )
            .expect("commit");
        assert_eq!(&reply.result[1..], b"v2");
        // Fence: one read through EVERY site. Clock-RSM executes in
        // timestamp order, so each reply proves that site committed all
        // of the puts above (shutdown would otherwise race the trailing
        // commits at remote sites).
        for i in 0..3u16 {
            cluster
                .execute(
                    ReplicaId::new(i),
                    KvOp::get("k0").encode(),
                    Duration::from_secs(10),
                )
                .expect("fence read");
        }
        let reports = cluster.shutdown();
        // All replicas converged on the same state (reads don't mutate).
        assert!(reports.windows(2).all(|w| w[0].snapshot == w[1].snapshot));
        assert!(reports.iter().all(|r| r.commit_count >= 5));
    }

    #[test]
    fn local_reads_round_trip_on_every_protocol() {
        // One write, then a linearizable local read through every site,
        // for each protocol's read path (stable timestamp, leader lease
        // + quorum fallback, commit-watermark quorum). The read issues
        // after the write's reply, so it must observe the value.
        // Clock-RSM: reads at any replica.
        let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000)).scale(0.02);
        let cluster = Cluster::spawn(
            cfg,
            |id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
            kv,
        );
        cluster
            .execute(
                ReplicaId::new(0),
                KvOp::put("rk", "rv").encode(),
                Duration::from_secs(10),
            )
            .expect("write");
        for i in 0..3u16 {
            let reply = cluster
                .read(
                    ReplicaId::new(i),
                    KvOp::get("rk").encode(),
                    Duration::from_secs(10),
                )
                .expect("local read");
            assert_eq!(&reply.result[..], b"\x01rv", "site {i} read stale");
        }
        cluster.shutdown();

        // Paxos-bcast: leader-local reads and follower quorum reads.
        let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000)).scale(0.02);
        let cluster = Cluster::spawn(
            cfg,
            |id| {
                MultiPaxos::new(
                    id,
                    Membership::uniform(3),
                    ReplicaId::new(0),
                    PaxosVariant::Bcast,
                )
            },
            kv,
        );
        cluster
            .execute(
                ReplicaId::new(1),
                KvOp::put("pk", "pv").encode(),
                Duration::from_secs(10),
            )
            .expect("write");
        for i in 0..3u16 {
            let reply = cluster
                .read(
                    ReplicaId::new(i),
                    KvOp::get("pk").encode(),
                    Duration::from_secs(10),
                )
                .expect("local read");
            assert_eq!(&reply.result[..], b"\x01pv", "site {i} read stale");
        }
        cluster.shutdown();

        // Mencius: commit-watermark quorum reads at any replica.
        let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000)).scale(0.02);
        let cluster = Cluster::spawn(cfg, |id| MenciusBcast::new(id, Membership::uniform(3)), kv);
        cluster
            .execute(
                ReplicaId::new(2),
                KvOp::put("mk", "mv").encode(),
                Duration::from_secs(10),
            )
            .expect("write");
        for i in 0..3u16 {
            let reply = cluster
                .read(
                    ReplicaId::new(i),
                    KvOp::get("mk").encode(),
                    Duration::from_secs(10),
                )
                .expect("local read");
            assert_eq!(&reply.result[..], b"\x01mv", "site {i} read stale");
        }
        cluster.shutdown();
    }

    #[test]
    fn paxos_bcast_cluster_round_trips() {
        let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 5_000)).scale(0.02);
        let cluster = Cluster::spawn(
            cfg,
            |id| {
                MultiPaxos::new(
                    id,
                    Membership::uniform(3),
                    ReplicaId::new(0),
                    PaxosVariant::Bcast,
                )
            },
            kv,
        );
        let reply = cluster
            .execute(
                ReplicaId::new(1),
                KvOp::put("a", "b").encode(),
                Duration::from_secs(10),
            )
            .expect("commit");
        assert_eq!(reply.result[0], 1);
        cluster.shutdown();
    }

    #[test]
    fn mencius_cluster_round_trips() {
        let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 5_000)).scale(0.02);
        let cluster = Cluster::spawn(cfg, |id| MenciusBcast::new(id, Membership::uniform(3)), kv);
        let reply = cluster
            .execute(
                ReplicaId::new(2),
                KvOp::put("x", "y").encode(),
                Duration::from_secs(10),
            )
            .expect("commit");
        assert_eq!(reply.result[0], 1);
        cluster.shutdown();
    }

    #[test]
    fn batched_cluster_absorbs_a_submit_burst() {
        use rsm_core::id::ClientId;

        let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000))
            .scale(0.02)
            .batch_policy(BatchPolicy::max(8));
        let cluster = Cluster::spawn(
            cfg,
            |id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
            kv,
        );
        // Fire-and-forget burst: these queue up in the node inbox and
        // coalesce into batches.
        for i in 0..20u64 {
            let id = CommandId::new(ClientId::new(ReplicaId::new(0), 99), i + 1);
            cluster.submit(
                ReplicaId::new(0),
                Command::new(id, KvOp::put(format!("burst{i}"), "v").encode()),
            );
        }
        // A blocking command behind the burst: Clock-RSM commits in
        // timestamp order, so its reply proves the whole burst committed
        // at the origin.
        let reply = cluster
            .execute(
                ReplicaId::new(0),
                KvOp::put("last", "v").encode(),
                Duration::from_secs(20),
            )
            .expect("commit after burst");
        assert_eq!(reply.result[0], 1);
        let reports = cluster.shutdown();
        assert_eq!(reports[0].commit_count, 21);
        // The origin's state machine holds every burst key.
        let mut expected = KvStore::new();
        for i in 0..20u64 {
            let id = CommandId::new(ClientId::new(ReplicaId::new(0), 99), i + 1);
            expected.apply(&Command::new(
                id,
                KvOp::put(format!("burst{i}"), "v").encode(),
            ));
        }
        let id = CommandId::new(ClientId::new(ReplicaId::new(0), 0), 999);
        expected.apply(&Command::new(id, KvOp::put("last", "v").encode()));
        assert_eq!(reports[0].snapshot, expected.snapshot());
    }

    #[test]
    fn clock_rsm_commits_from_all_sites_over_loopback_tcp() {
        // The in-process smoke test, verbatim, over real framed TCP
        // sockets: same protocol cores, same client API, same emulated
        // WAN delays — only the message plane changed.
        let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000))
            .scale(0.02)
            .transport(ClusterTransport::Tcp);
        let cluster = Cluster::spawn(
            cfg,
            |id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
            kv,
        );
        for i in 0..3u16 {
            let reply = cluster
                .execute(
                    ReplicaId::new(i),
                    KvOp::put(format!("k{i}"), format!("v{i}")).encode(),
                    Duration::from_secs(10),
                )
                .expect("commit over tcp");
            assert_eq!(reply.result[0], 1);
        }
        // Linearizable local reads work over sockets too (they ride the
        // same ReadProbe/ReadMark messages through the codec).
        for i in 0..3u16 {
            let reply = cluster
                .read(
                    ReplicaId::new(i),
                    KvOp::get("k2").encode(),
                    Duration::from_secs(10),
                )
                .expect("local read over tcp");
            assert_eq!(&reply.result[1..], b"v2", "site {i} read stale");
        }
        let reports = cluster.shutdown();
        assert!(reports.windows(2).all(|w| w[0].snapshot == w[1].snapshot));
        assert!(reports.iter().all(|r| r.commit_count >= 3));
    }

    #[test]
    fn paxos_and_mencius_round_trip_over_loopback_tcp() {
        let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 5_000))
            .scale(0.02)
            .transport(ClusterTransport::Tcp);
        let cluster = Cluster::spawn(
            cfg,
            |id| {
                MultiPaxos::new(
                    id,
                    Membership::uniform(3),
                    ReplicaId::new(0),
                    PaxosVariant::Bcast,
                )
            },
            kv,
        );
        let reply = cluster
            .execute(
                ReplicaId::new(1),
                KvOp::put("a", "b").encode(),
                Duration::from_secs(10),
            )
            .expect("paxos commit over tcp");
        assert_eq!(reply.result[0], 1);
        cluster.shutdown();

        let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 5_000))
            .scale(0.02)
            .transport(ClusterTransport::Tcp);
        let cluster = Cluster::spawn(cfg, |id| MenciusBcast::new(id, Membership::uniform(3)), kv);
        let reply = cluster
            .execute(
                ReplicaId::new(2),
                KvOp::put("x", "y").encode(),
                Duration::from_secs(10),
            )
            .expect("mencius commit over tcp");
        assert_eq!(reply.result[0], 1);
        cluster.shutdown();
    }

    #[test]
    fn batched_burst_commits_over_uds() {
        use rsm_core::id::ClientId;

        // The batched burst over Unix sockets: exercises the encode-once
        // broadcast cache (one PrepareBatch payload shared across both
        // peer links) under a real byte stream.
        let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000))
            .scale(0.02)
            .batch_policy(BatchPolicy::max(8))
            .transport(ClusterTransport::Uds);
        let cluster = Cluster::spawn(
            cfg,
            |id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
            kv,
        );
        for i in 0..20u64 {
            let id = CommandId::new(ClientId::new(ReplicaId::new(0), 99), i + 1);
            cluster.submit(
                ReplicaId::new(0),
                Command::new(id, KvOp::put(format!("burst{i}"), "v").encode()),
            );
        }
        let reply = cluster
            .execute(
                ReplicaId::new(0),
                KvOp::put("last", "v").encode(),
                Duration::from_secs(20),
            )
            .expect("commit after burst over uds");
        assert_eq!(reply.result[0], 1);
        let reports = cluster.shutdown();
        assert_eq!(reports[0].commit_count, 21);
    }

    #[test]
    fn observed_cluster_records_metrics_and_spans() {
        // One observed run over real sockets: every layer's series must
        // land in the shared registry, and each write must leave one
        // completed span with ordered stamps.
        let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000))
            .scale(0.02)
            .transport(ClusterTransport::Tcp)
            .observe(ObsConfig::all());
        let cluster = Cluster::spawn(
            cfg,
            |id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
            kv,
        );
        for i in 0..3u16 {
            cluster
                .execute(
                    ReplicaId::new(i),
                    KvOp::put(format!("k{i}"), "v").encode(),
                    Duration::from_secs(10),
                )
                .expect("commit");
        }
        // Reads are untraced and must not disturb the span stream.
        cluster
            .read(
                ReplicaId::new(0),
                KvOp::get("k1").encode(),
                Duration::from_secs(10),
            )
            .expect("read");
        let registry = cluster.registry().expect("observing").clone();
        let tracer = cluster.tracer().expect("observing").clone();
        cluster.shutdown();

        let snap = registry.snapshot();
        for r in 0..3 {
            assert!(
                snap.counters[&format!("r{r}.commands.executed")] >= 3,
                "replica {r} executed too few commands: {snap:?}"
            );
            assert!(snap.counters[&format!("r{r}.transport.frames_sent")] > 0);
            assert!(snap.counters[&format!("r{r}.transport.bytes_recv")] > 0);
        }
        assert!(snap.gauges.contains_key("r0.transport.outq.1"));
        assert!(snap.gauges.contains_key("r0.clock_rsm.stable_lag_us"));

        let done = tracer.completed();
        assert_eq!(done.len(), 3, "one span per write");
        for span in &done {
            let submitted = span
                .stage(TraceStage::Submitted.index())
                .expect("submitted");
            let committed = span
                .stage(TraceStage::Committed.index())
                .expect("committed");
            let replied = span.stage(TraceStage::Replied.index()).expect("replied");
            assert!(span.stage(TraceStage::Proposed.index()).is_some());
            assert!(span.stage(TraceStage::Replicated.index()).is_some());
            assert!(submitted <= committed && committed <= replied);
        }
        assert!(tracer.open_spans().is_empty(), "no dangling spans");
    }

    #[test]
    fn skewed_clocks_do_not_break_safety() {
        // 50 ms of skew vs 0.2 ms emulated one-way latency: the wait-out
        // path (Algorithm 1 line 8) gets exercised heavily.
        let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000))
            .scale(0.02)
            .clock_offset_us(0, 50_000)
            .clock_offset_us(2, -50_000);
        let cluster = Cluster::spawn(
            cfg,
            |id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
            kv,
        );
        for i in 0..6u16 {
            let site = ReplicaId::new(i % 3);
            let reply = cluster
                .execute(
                    site,
                    KvOp::put(format!("s{i}"), "v").encode(),
                    Duration::from_secs(20),
                )
                .expect("commit despite skew");
            assert_eq!(reply.result[0], 1);
        }
        // Fence reads so every site has provably executed all six puts
        // before shutdown (see clock_rsm_cluster_commits_from_all_sites).
        for i in 0..3u16 {
            cluster
                .execute(
                    ReplicaId::new(i),
                    KvOp::get("s0").encode(),
                    Duration::from_secs(20),
                )
                .expect("fence read");
        }
        let reports = cluster.shutdown();
        assert!(reports.windows(2).all(|w| w[0].snapshot == w[1].snapshot));
    }

    #[test]
    fn a_crashed_site_costs_the_full_timeout() {
        const TIMEOUT: Duration = Duration::from_millis(300);
        let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000)).scale(0.02);
        let cluster = Cluster::spawn(
            cfg,
            |id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
            kv,
        );
        let site = ReplicaId::new(2);
        cluster.crash(site);
        // Twice: racing the node's exit (the waiter is dropped with the
        // inbox) and after it (the inbox refuses the request outright).
        // Either way the caller learns nothing before its deadline — a
        // dead replica does not announce itself.
        for _ in 0..2 {
            let started = Instant::now();
            let result = cluster.execute(site, KvOp::put("k", "v").encode(), TIMEOUT);
            assert_eq!(result, Err(ExecuteError::Timeout));
            assert!(
                started.elapsed() >= TIMEOUT,
                "a crashed site answered after {:?}",
                started.elapsed()
            );
        }
        cluster.shutdown();
    }
}
