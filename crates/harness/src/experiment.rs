//! Experiment runners: one simulation = one protocol on one topology
//! under one workload, with statistics and correctness checks collected.

use clock_rsm::ClockRsm;
use kvstore::KvStore;
use mencius::MenciusBcast;
use paxos::{MultiPaxos, PaxosVariant};
use rsm_core::batch::BatchPolicy;
use rsm_core::checkpoint::CheckpointPolicy;
use rsm_core::config::Membership;
use rsm_core::exec::ReadFront;
use rsm_core::id::ReplicaId;
use rsm_core::matrix::LatencyMatrix;
use rsm_core::protocol::Protocol;
use rsm_core::time::{Micros, MILLIS};
use rsm_obs::{MetricsSnapshot, ObsConfig, Span};
use simnet::sim::Application;
use simnet::{ClockModel, CpuModel, SimConfig, Simulation};

use crate::cluster::ProtocolChoice;
use crate::lin::{check_all, CheckReport, OpRecord};
use crate::stats::LatencyStats;
use crate::workload::{Fault, WorkloadApp};

/// Full description of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Inter-replica one-way latencies.
    pub latency: LatencyMatrix,
    /// RNG seed (jitter, think times, keys, clock offsets).
    pub seed: u64,
    /// Maximum per-message jitter.
    pub jitter_us: Micros,
    /// Clock synchronization model (paper: NTP, sub-millisecond).
    pub clock: ClockModel,
    /// Closed-loop clients per active site (paper: 40).
    pub clients_per_site: usize,
    /// Maximum think time (paper: 80 ms); zero saturates.
    pub think_max_us: Micros,
    /// Update value size (paper: 64 B).
    pub value_bytes: usize,
    /// Key space size for random updates.
    pub key_space: u64,
    /// Fraction of operations issued as linearizable local reads
    /// (`rsm_core::read`); 0.0 = the paper's pure-update workload,
    /// 0.9 = the read-heavy production shape.
    pub read_fraction: f64,
    /// Sites with clients; `None` = all sites (balanced workload).
    pub active_sites: Option<Vec<u16>>,
    /// Samples before this time are discarded.
    pub warmup_us: Micros,
    /// Measurement window length.
    pub duration_us: Micros,
    /// CPU cost model (throughput experiments only).
    pub cpu: Option<CpuModel>,
    /// Request-coalescing policy: queued client requests are handed to
    /// the protocol as batches of up to `max_batch` commands.
    pub batch: BatchPolicy,
    /// Checkpoint policy applied to every replica (shared subsystem,
    /// `rsm_core::checkpoint`): periodic snapshots, each compacting the
    /// log, and — for recovered replicas facing holes nothing
    /// retransmits — peer-to-peer checkpoint transfer. When enabled it
    /// overrides any protocol-level policy carried by the
    /// `ProtocolChoice`.
    pub checkpoint: CheckpointPolicy,
    /// Record per-operation intervals and run the correctness checkers.
    pub record_ops: bool,
    /// Scripted faults applied at absolute virtual times. Clock-RSM
    /// rides them out via reconfiguration; Paxos needs a
    /// [`LeaseConfig`](rsm_core::lease::LeaseConfig) (see
    /// [`ProtocolChoice::paxos_failover`]) to survive *leader* faults —
    /// without one it matches the paper's failure-free evaluation setup.
    pub faults: Vec<(Micros, Fault)>,
    /// Client-side retry: re-issue the SAME command (identical id and
    /// payload) when no reply arrives within this long. `None` disables
    /// retries. Needed under reconfiguration, which drops in-flight
    /// commands that did not reach a majority (their clients must
    /// retry, like any RSM client). Reusing the id is what makes the
    /// retry safe when only the *reply* was lost: the replicas' session
    /// tables (`rsm_core::session`) recognise the already-applied seq
    /// and answer from the cached reply instead of applying twice.
    pub client_retry_us: Option<Micros>,
    /// Chaos-canary knob (**test-only**): disables the replicas'
    /// session dedup window, re-introducing the pre-session retry
    /// double-apply bug so the chaos fuzzer can prove it finds and
    /// shrinks it. Never set outside chaos tooling.
    pub session_canary: bool,
    /// Fraction of **writes** issued as compare-and-swap chains: each
    /// client owns a private key (outside the shared `key_space`) and
    /// CASes it from the last value it successfully installed to a fresh
    /// one. Since nobody else writes that key, every such CAS must
    /// succeed — a failed one means the chain was broken by a lost,
    /// duplicated, or reordered application, which is exactly what the
    /// chaos oracles want to catch
    /// ([`ExperimentResult::cas_failures`]).
    pub cas_fraction: f64,
    /// Session dedup window override applied to every replica (commands
    /// remembered per client); `None` keeps each protocol's default.
    pub session_window: Option<usize>,
    /// Observability configuration (`rsm-obs`): when set, the run keeps
    /// a metrics registry and per-command trace spans, surfaced as
    /// [`ExperimentResult::metrics`] and [`ExperimentResult::spans`].
    pub observe: Option<ObsConfig>,
}

impl ExperimentConfig {
    /// Paper-faithful defaults for a latency experiment on `latency`:
    /// 40 clients per site, think U(0, 80 ms), 64 B values, NTP-grade
    /// clocks (±1 ms), 4 s warmup, 20 s measurement.
    pub fn new(latency: LatencyMatrix) -> Self {
        ExperimentConfig {
            latency,
            seed: 42,
            jitter_us: 0,
            clock: ClockModel::ntp(MILLIS),
            clients_per_site: 40,
            think_max_us: 80 * MILLIS,
            value_bytes: 64,
            key_space: 10_000,
            read_fraction: 0.0,
            active_sites: None,
            warmup_us: 4_000 * MILLIS,
            duration_us: 20_000 * MILLIS,
            cpu: None,
            batch: BatchPolicy::DISABLED,
            checkpoint: CheckpointPolicy::DISABLED,
            record_ops: true,
            faults: Vec::new(),
            client_retry_us: None,
            session_canary: false,
            cas_fraction: 0.0,
            session_window: None,
            observe: None,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the clients per active site.
    pub fn clients_per_site(mut self, n: usize) -> Self {
        self.clients_per_site = n;
        self
    }

    /// Sets the think-time ceiling.
    pub fn think_max_us(mut self, us: Micros) -> Self {
        self.think_max_us = us;
        self
    }

    /// Restricts clients to the given sites (imbalanced workloads).
    pub fn active_sites(mut self, sites: Vec<u16>) -> Self {
        self.active_sites = Some(sites);
        self
    }

    /// Sets the warmup length.
    pub fn warmup_us(mut self, us: Micros) -> Self {
        self.warmup_us = us;
        self
    }

    /// Sets the measurement window length.
    pub fn duration_us(mut self, us: Micros) -> Self {
        self.duration_us = us;
        self
    }

    /// Sets the per-message jitter ceiling.
    pub fn jitter_us(mut self, us: Micros) -> Self {
        self.jitter_us = us;
        self
    }

    /// Sets the clock model.
    pub fn clock(mut self, m: ClockModel) -> Self {
        self.clock = m;
        self
    }

    /// Sets the update value size.
    pub fn value_bytes(mut self, n: usize) -> Self {
        self.value_bytes = n;
        self
    }

    /// Sets the read fraction of the workload (e.g. `0.9` for the
    /// read-heavy 90/10 mix).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= f <= 1.0`.
    pub fn read_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "read fraction out of range");
        self.read_fraction = f;
        self
    }

    /// Enables the CPU model (throughput experiments).
    pub fn cpu(mut self, cpu: CpuModel) -> Self {
        self.cpu = Some(cpu);
        self
    }

    /// Sets the request-coalescing policy (protocol-level batching).
    pub fn batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the checkpoint policy applied to every replica.
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = policy;
        self
    }

    /// Scripts a long outage: `replica` crashes at `down_at` and
    /// recovers at `up_at` (virtual µs). Combined with a compacting
    /// checkpoint policy, this is the scenario where the cluster commits
    /// past what its logs still hold while the replica is down, so
    /// rejoining requires checkpoint transfer.
    pub fn long_outage(self, replica: u16, down_at: Micros, up_at: Micros) -> Self {
        assert!(down_at < up_at, "outage must end after it begins");
        let r = ReplicaId::new(replica);
        self.fault(down_at, Fault::Crash(r))
            .fault(up_at, Fault::Recover(r))
    }

    /// Scripts a leader crash: `leader` goes down at `down_at` and
    /// returns at `up_at` (virtual µs). Mechanically the same fault pair
    /// as [`long_outage`](ExperimentConfig::long_outage); the sugar
    /// marks the intent — aimed at the replica a
    /// [`ProtocolChoice::paxos_failover`] deployment starts under, it is
    /// the fail-over scenario: survivors must elect a replacement (so
    /// pair it with a lease), and the old leader must rejoin as a
    /// follower, via checkpoint transfer if it was down past retention.
    pub fn leader_crash(self, leader: u16, down_at: Micros, up_at: Micros) -> Self {
        self.long_outage(leader, down_at, up_at)
    }

    /// Enables or disables operation recording / correctness checking.
    pub fn record_ops(mut self, on: bool) -> Self {
        self.record_ops = on;
        self
    }

    /// Adds a scripted fault at an absolute virtual time.
    pub fn fault(mut self, at: Micros, fault: Fault) -> Self {
        self.faults.push((at, fault));
        self
    }

    /// Enables client-side retries with the given timeout (required for
    /// closed-loop clients to survive reconfigurations).
    pub fn client_retry_us(mut self, timeout: Micros) -> Self {
        self.client_retry_us = Some(timeout);
        self
    }

    /// Sets the session-canary knob (**test-only**; see the field docs):
    /// replicas skip retry deduplication, so a same-id retry
    /// double-applies.
    pub fn session_canary(mut self, on: bool) -> Self {
        self.session_canary = on;
        self
    }

    /// Sets the CAS fraction of the write mix (private-key CAS chains;
    /// see the field docs).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= f <= 1.0`.
    pub fn cas_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f), "cas fraction out of range");
        self.cas_fraction = f;
        self
    }

    /// Overrides every replica's session dedup window.
    pub fn session_window(mut self, n: usize) -> Self {
        self.session_window = Some(n);
        self
    }

    /// Enables observability: metric snapshots and per-command trace
    /// spans come back on the result. Timestamps are virtual
    /// microseconds, so instrumented runs stay deterministic.
    pub fn observe(mut self, obs: ObsConfig) -> Self {
        self.observe = Some(obs);
        self
    }

    /// When clients stop issuing and recording: the end of the
    /// measurement window.
    pub(crate) fn measure_until(&self) -> Micros {
        self.warmup_us + self.duration_us
    }

    pub(crate) fn n(&self) -> usize {
        self.latency.len()
    }

    pub(crate) fn active(&self) -> Vec<ReplicaId> {
        match &self.active_sites {
            Some(sites) => sites.iter().map(|&s| ReplicaId::new(s)).collect(),
            None => (0..self.n() as u16).map(ReplicaId::new).collect(),
        }
    }
}

/// Everything one run produces.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Which protocol ran.
    pub protocol: &'static str,
    /// Per-site client-observed latency statistics.
    pub site_stats: Vec<LatencyStats>,
    /// Commands executed per replica over the whole run.
    pub commit_counts: Vec<u64>,
    /// Correctness checker report (trivially true when ops not recorded).
    pub checks: CheckReport,
    /// Whether all replica state machine snapshots matched at the end.
    ///
    /// Compared over the replicas with equal commit counts (replicas only
    /// diverge transiently by commands still in flight at shutdown).
    pub snapshots_agree: bool,
    /// Observer-replica throughput over the measurement window, kops/s.
    pub throughput_kops: f64,
    /// Median client-observed commit latency across every active site,
    /// milliseconds (0 when no samples were recorded).
    pub p50_ms: f64,
    /// 99th-percentile client-observed commit latency across every
    /// active site, milliseconds (0 when no samples were recorded).
    pub p99_ms: f64,
    /// Median latency of **local reads** across every site, ms (0 when
    /// the workload issued none).
    pub read_p50_ms: f64,
    /// 99th-percentile local-read latency, ms.
    pub read_p99_ms: f64,
    /// Number of measured read replies.
    pub read_count: usize,
    /// Median latency of **replicated writes** across every site, ms.
    pub write_p50_ms: f64,
    /// 99th-percentile write latency, ms.
    pub write_p99_ms: f64,
    /// Number of measured write replies.
    pub write_count: usize,
    /// Per-replica commit times (virtual µs), populated when operation
    /// recording is on. Lets tests assert liveness inside specific
    /// windows (e.g. while a crashed replica is being reconfigured out).
    pub commit_times: Vec<Vec<Micros>>,
    /// Per-replica stable log lengths at the end of the run. With
    /// checkpoints on, these stay bounded however many
    /// commands commit — the memory-bound claim of Section V-B.
    pub log_lens: Vec<usize>,
    /// CAS replies observed (0 in a sharded run, which rejects a CAS
    /// mix: see [`run_sharded`](crate::shard::run_sharded)).
    pub cas_count: usize,
    /// Failed private-key CAS chains — always a violation (see
    /// [`ExperimentConfig::cas_fraction`]).
    pub cas_failures: usize,
    /// Final metrics snapshot (`None` unless
    /// [`ExperimentConfig::observe`] was set).
    pub metrics: Option<MetricsSnapshot>,
    /// Metrics snapshot taken at the end of the measurement window,
    /// before the post-run slack (`None` unless observing). Diffing it
    /// against [`metrics`](ExperimentResult::metrics) checks counter
    /// monotonicity over the tail of the run.
    pub metrics_mid: Option<MetricsSnapshot>,
    /// Completed per-command trace spans, in completion order (empty
    /// unless observing). Stage timestamps are virtual microseconds.
    pub spans: Vec<Span>,
    /// Spans begun but never [`Replied`](rsm_core::obs::TraceStage) at
    /// the end of the run (commands still in flight at shutdown).
    pub open_spans: usize,
}

impl ExperimentResult {
    /// Number of commands replica `r` executed inside `[from, to]`
    /// (virtual µs). Requires operation recording.
    pub fn commits_between(&self, r: usize, from: Micros, to: Micros) -> usize {
        self.commit_times[r]
            .iter()
            .filter(|&&t| t >= from && t <= to)
            .count()
    }

    /// Time of the last commit at replica `r`, if any.
    pub fn last_commit_at(&self, r: usize) -> Option<Micros> {
        self.commit_times[r].last().copied()
    }
}

/// What an experiment driver does with the chosen protocol's replica
/// factory (the protocol type differs per [`ProtocolChoice`], so the
/// driver is handed to [`with_protocol`] as a generic visitor).
pub(crate) trait ProtocolRun {
    /// The driver's result.
    type Out;
    /// Runs the experiment over replicas built by `factory`.
    fn run<P, F>(self, name: &'static str, factory: F) -> Self::Out
    where
        P: Protocol + 'static,
        F: FnMut(ReplicaId) -> P + Clone + 'static;
}

/// Builds the replica factory for `choice` under `cfg` — checkpoint
/// policy, session window and canary, fail-over — and hands
/// it to `run`. The one place experiment knobs reach a protocol, shared
/// by the single-group and sharded drivers.
pub(crate) fn with_protocol<R: ProtocolRun>(
    choice: ProtocolChoice,
    cfg: &ExperimentConfig,
    run: R,
) -> R::Out {
    let members = Membership::uniform(cfg.n() as u16);
    let knobs = (cfg.checkpoint, cfg.session_window, cfg.session_canary);
    let name = choice.name();
    let variant = match choice {
        ProtocolChoice::Paxos { .. } => PaxosVariant::Plain,
        _ => PaxosVariant::Bcast,
    };
    match choice {
        ProtocolChoice::ClockRsm { cfg } => run.run(name, move |id| {
            executor_knobs(ClockRsm::new(id, members.clone(), cfg), knobs)
        }),
        ProtocolChoice::Paxos { leader, failover }
        | ProtocolChoice::PaxosBcast { leader, failover } => run.run(name, move |id| {
            let p = MultiPaxos::new(id, members.clone(), leader, variant).with_failover(failover);
            executor_knobs(p, knobs)
        }),
        ProtocolChoice::MenciusBcast => run.run(name, move |id| {
            executor_knobs(MenciusBcast::new(id, members.clone()), knobs)
        }),
    }
}

/// Hands the experiment's executor settings straight to `p`'s executor:
/// an enabled checkpoint policy (overriding the protocol's own), the
/// session window if set, and the session canary.
fn executor_knobs<P: ReadFront>(
    mut p: P,
    (checkpoint, window, canary): (CheckpointPolicy, Option<usize>, bool),
) -> P {
    let exec = p.executor();
    if checkpoint.enabled() {
        exec.set_checkpoint_policy(checkpoint);
    }
    if let Some(w) = window {
        exec.set_session_window(w);
    }
    exec.set_session_canary(canary);
    p
}

/// Runs a latency experiment for the chosen protocol.
pub fn run_latency(choice: ProtocolChoice, cfg: &ExperimentConfig) -> ExperimentResult {
    struct Latency<'a>(&'a ExperimentConfig);
    impl ProtocolRun for Latency<'_> {
        type Out = ExperimentResult;
        fn run<P, F>(self, name: &'static str, factory: F) -> ExperimentResult
        where
            P: Protocol + 'static,
            F: FnMut(ReplicaId) -> P + Clone + 'static,
        {
            run_generic(self.0, name, factory)
        }
    }
    with_protocol(choice, cfg, Latency(cfg))
}

/// Runs a throughput experiment (Figure 8): saturating clients, CPU cost
/// model, near-zero network latency (a local cluster), history recording
/// off. `batch` is the protocol-level batching knob: queued client
/// requests coalesce into batches of up to `batch.max_batch` commands,
/// each replicated with one message and one cumulative ack. Returns the
/// same result shape with `throughput_kops` filled in.
pub fn run_throughput(
    choice: ProtocolChoice,
    cmd_bytes: usize,
    clients_per_site: usize,
    cpu: CpuModel,
    seed: u64,
    batch: BatchPolicy,
) -> ExperimentResult {
    // "The typical RTT in an EC2 data center is about 0.6 ms" — model the
    // paper's local gigabit cluster with a 0.25 ms one-way latency.
    let cfg = ExperimentConfig::new(LatencyMatrix::uniform(5, 250))
        .seed(seed)
        .clients_per_site(clients_per_site)
        .think_max_us(0)
        .value_bytes(cmd_bytes)
        .warmup_us(500 * MILLIS)
        .duration_us(2_000 * MILLIS)
        .cpu(cpu)
        .batch(batch)
        .record_ops(false);
    run_latency(choice, &cfg)
}

/// Virtual time a run keeps going after its measurement window, so
/// in-flight commands commit everywhere before the results are read.
pub(crate) const SLACK_US: Micros = 2_000 * MILLIS;

/// The simulator configuration of one replication group under `cfg`,
/// seeded with `seed`: the one place the experiment's topology, jitter,
/// clocks, batching, CPU model and observability reach a simulation,
/// for [`run_latency`] and for every shard of
/// [`run_sharded`](crate::shard::run_sharded).
pub(crate) fn sim_config(cfg: &ExperimentConfig, seed: u64) -> SimConfig {
    let sim_cfg = SimConfig::new(cfg.latency.clone())
        .seed(seed)
        .jitter_us(cfg.jitter_us)
        .clock_model(cfg.clock)
        .batch_policy(cfg.batch)
        .record_history(cfg.record_ops);
    let sim_cfg = match cfg.cpu {
        Some(cpu) => sim_cfg.cpu_model(cpu),
        None => sim_cfg,
    };
    match cfg.observe {
        Some(obs) => sim_cfg.observe(obs),
        None => sim_cfg,
    }
}

/// What a driver's clients measured against one replication group.
pub(crate) struct Measured<'a> {
    /// The operation records the checkers replay (empty unless
    /// recording).
    pub(crate) ops: &'a [OpRecord],
    /// Commands the observer replica committed inside the window.
    pub(crate) observer_commits: u64,
    /// Per-site latencies.
    pub(crate) site_stats: Vec<LatencyStats>,
    /// Read latencies across every site.
    pub(crate) read: LatencyStats,
    /// Write latencies across every site.
    pub(crate) write: LatencyStats,
    /// CAS replies observed.
    pub(crate) cas_count: usize,
    /// Failed private-key CAS chains.
    pub(crate) cas_failures: usize,
    /// The metrics snapshot taken at the end of the window.
    pub(crate) metrics_mid: Option<MetricsSnapshot>,
}

/// The result of one finished replication group: replica state from
/// `sim` (commit counts, logs, snapshot agreement, commit times and the
/// checkers over `measured.ops`), client latencies from `measured`, and
/// the group's metrics and spans. [`run_latency`] and every shard of
/// [`run_sharded`](crate::shard::run_sharded) build theirs here.
pub(crate) fn group_result<P: Protocol, A: Application<P>>(
    name: &'static str,
    cfg: &ExperimentConfig,
    sim: &Simulation<P, A>,
    mut measured: Measured<'_>,
) -> ExperimentResult {
    let n = cfg.n();
    let replicas: Vec<ReplicaId> = (0..n as u16).map(ReplicaId::new).collect();
    let commit_counts: Vec<u64> = replicas.iter().map(|&r| sim.commit_count(r)).collect();
    let log_lens: Vec<usize> = replicas.iter().map(|&r| sim.log(r).len()).collect();

    // Snapshot agreement over every replica that is up at the end: the
    // run quiesces (clients stop at the window's end, then the slack),
    // so all live replicas must have executed the same command sequence.
    let snapshots: Vec<_> = replicas
        .iter()
        .filter(|&&r| sim.is_up(r))
        .map(|&r| sim.snapshot(r))
        .collect();
    let snapshots_agree = snapshots.windows(2).all(|w| w[0] == w[1]);

    let mut commit_times: Vec<Vec<Micros>> = vec![Vec::new(); n];
    let checks = if cfg.record_ops {
        let histories: Vec<_> = replicas.iter().map(|&r| sim.commits(r).to_vec()).collect();
        for (i, h) in histories.iter().enumerate() {
            commit_times[i] = h.iter().map(|c| c.at).collect();
        }
        check_all(&histories, measured.ops)
    } else {
        CheckReport::trivially_ok()
    };

    // Aggregate percentiles over every site's samples: the number the
    // batching benches compare across policies (a per-site view hides
    // load imbalance; the mean hides the tail).
    let mut all = LatencyStats::new();
    for s in &measured.site_stats {
        all.merge(s);
    }
    let (spans, open_spans) = match sim.tracer() {
        Some(t) => (t.completed(), t.open_spans().len()),
        None => (Vec::new(), 0),
    };
    let window_secs = cfg.duration_us as f64 / 1e6;

    ExperimentResult {
        protocol: name,
        site_stats: measured.site_stats,
        commit_counts,
        checks,
        snapshots_agree,
        throughput_kops: measured.observer_commits as f64 / window_secs / 1_000.0,
        p50_ms: all.p50_ms(),
        p99_ms: all.p99_ms(),
        read_p50_ms: measured.read.p50_ms(),
        read_p99_ms: measured.read.p99_ms(),
        read_count: measured.read.count(),
        write_p50_ms: measured.write.p50_ms(),
        write_p99_ms: measured.write.p99_ms(),
        write_count: measured.write.count(),
        commit_times,
        log_lens,
        cas_count: measured.cas_count,
        cas_failures: measured.cas_failures,
        metrics: sim.metrics(),
        metrics_mid: measured.metrics_mid,
        spans,
        open_spans,
    }
}

fn run_generic<P, F>(cfg: &ExperimentConfig, name: &'static str, factory: F) -> ExperimentResult
where
    P: Protocol + 'static,
    F: FnMut(ReplicaId) -> P + 'static,
{
    let end = cfg.measure_until();
    let app: WorkloadApp<P> = WorkloadApp::new(cfg);
    let sim_cfg = sim_config(cfg, cfg.seed);
    let mut sim = Simulation::new(sim_cfg, factory, || Box::new(KvStore::new()), app);
    sim.run_until(end);
    let metrics_mid = sim.metrics();
    sim.run_until(end + SLACK_US);

    // The result takes the read/write samples: percentile queries sort
    // them in place.
    let app = sim.app_mut();
    let read = std::mem::take(app.read_stats_mut());
    let write = std::mem::take(app.write_stats_mut());
    let app = sim.app();
    let measured = Measured {
        ops: app.ops(),
        observer_commits: app.observer_commits(),
        site_stats: app.site_stats().to_vec(),
        read,
        write,
        cas_count: app.cas_count(),
        cas_failures: app.cas_failures(),
        metrics_mid,
    };
    group_result(name, cfg, &sim, measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(latency: LatencyMatrix) -> ExperimentConfig {
        ExperimentConfig::new(latency)
            .clients_per_site(3)
            .think_max_us(10 * MILLIS)
            .warmup_us(200 * MILLIS)
            .duration_us(800 * MILLIS)
    }

    #[test]
    fn clock_rsm_runs_clean_on_uniform_topology() {
        let r = run_latency(
            ProtocolChoice::clock_rsm(),
            &quick(LatencyMatrix::uniform(3, 10_000)),
        );
        assert!(r.checks.all_ok(), "{:?}", r.checks.violation);
        assert!(r.snapshots_agree);
        assert!(r.site_stats[0].count() > 10);
    }

    #[test]
    fn all_four_protocols_produce_samples() {
        let cfg = quick(LatencyMatrix::uniform(3, 5_000));
        for choice in [
            ProtocolChoice::clock_rsm(),
            ProtocolChoice::paxos(0),
            ProtocolChoice::paxos_bcast(0),
            ProtocolChoice::mencius(),
        ] {
            let r = run_latency(choice.clone(), &cfg);
            assert!(
                r.site_stats.iter().map(LatencyStats::count).sum::<usize>() > 20,
                "{} produced too few samples",
                r.protocol
            );
            assert!(
                r.checks.all_ok(),
                "{}: {:?}",
                r.protocol,
                r.checks.violation
            );
            assert!(r.snapshots_agree, "{} snapshots diverged", r.protocol);
        }
    }

    #[test]
    fn read_mix_produces_split_stats_and_green_checks() {
        let cfg = quick(LatencyMatrix::uniform(3, 10_000)).read_fraction(0.5);
        for choice in [
            ProtocolChoice::clock_rsm(),
            ProtocolChoice::paxos(0),
            ProtocolChoice::paxos_bcast(0),
            ProtocolChoice::mencius(),
        ] {
            let r = run_latency(choice, &cfg);
            assert!(
                r.checks.all_ok(),
                "{}: {:?}",
                r.protocol,
                r.checks.violation
            );
            assert!(r.snapshots_agree, "{} snapshots diverged", r.protocol);
            assert!(
                r.read_count > 10 && r.write_count > 10,
                "{}: read/write split empty ({} reads, {} writes)",
                r.protocol,
                r.read_count,
                r.write_count
            );
            assert!(r.read_p50_ms > 0.0 && r.write_p50_ms > 0.0);
        }
    }

    #[test]
    fn cas_chains_succeed_on_clean_runs() {
        let cfg = quick(LatencyMatrix::uniform(3, 10_000)).cas_fraction(0.4);
        for choice in [
            ProtocolChoice::clock_rsm(),
            ProtocolChoice::paxos_bcast(0),
            ProtocolChoice::mencius(),
        ] {
            let r = run_latency(choice, &cfg);
            assert!(
                r.checks.all_ok(),
                "{}: {:?}",
                r.protocol,
                r.checks.violation
            );
            assert!(r.cas_count > 10, "{}: CAS mix starved", r.protocol);
            assert_eq!(
                r.cas_failures, 0,
                "{}: a private-key CAS chain broke on a fault-free run",
                r.protocol
            );
        }
    }

    #[test]
    fn throughput_mode_reports_kops() {
        let r = run_throughput(
            ProtocolChoice::clock_rsm(),
            64,
            10,
            CpuModel::default(),
            7,
            BatchPolicy::DISABLED,
        );
        assert!(r.throughput_kops > 0.0);
    }

    #[test]
    fn batching_strictly_raises_small_command_throughput() {
        // The acceptance bar of the batching refactor: at 10 B commands,
        // batch ≥ 8 must commit strictly more than batch = 1 for every
        // protocol (one message + one ack per batch amortizes the fixed
        // per-message CPU costs).
        for choice in [
            ProtocolChoice::clock_rsm(),
            ProtocolChoice::paxos(0),
            ProtocolChoice::paxos_bcast(0),
            ProtocolChoice::mencius(),
        ] {
            let t = |batch| {
                run_throughput(choice.clone(), 10, 20, CpuModel::default(), 11, batch)
                    .throughput_kops
            };
            let unbatched = t(BatchPolicy::DISABLED);
            let batched = t(BatchPolicy::max(8));
            assert!(
                batched > unbatched,
                "{}: batch=8 {batched:.1}k !> batch=1 {unbatched:.1}k",
                choice.name()
            );
        }
    }
}
