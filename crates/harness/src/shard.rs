//! Sharded experiments: `N` independent replication groups advanced in
//! lockstep, with the closed-loop client population living in an
//! external router.
//!
//! Each shard is a complete single-group deployment — its own protocol
//! instances, batching controllers, checkpointing, and read subsystem —
//! running in its own [`Simulation`]. The router owns the clients: it
//! picks keys, maps them to shards through a [`ShardMap`], submits
//! commands into the owning shard's simulation, and collects replies.
//! The simulations share one virtual clock because the router advances
//! them in small lockstep quanta; the only approximation is that the
//! router *observes* replies at quantum boundaries — reply timestamps
//! themselves are exact in-simulation times, so latency statistics carry
//! no quantization error.
//!
//! Multi-key reads follow the `rsm-shard` design: under Clock-RSM they
//! are **timestamp-consistent snapshot reads** — one cut `t` slightly in
//! the future, one pinned `Get` per key parked on each touched shard's
//! read queue until the shard's stable timestamp passes `t`. Under Paxos
//! and Mencius the identical commands degrade to the honest fallback
//! (per-shard linearizable reads; the pin is ignored), so the
//! cross-shard cut checker only runs for Clock-RSM.

use std::collections::HashMap;

use bytes::Bytes;
use kvstore::{KvOp, KvStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsm_core::command::{Command, CommandId, Committed, Reply};
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::protocol::Protocol;
use rsm_core::time::{Micros, MILLIS};
use rsm_shard::{HashShardMap, RangeShardMap, ShardAccounting, ShardMap, SnapshotCoordinator};
use simnet::sim::{Application, SimApi};
use simnet::{SimConfig, Simulation};

use crate::cluster::ProtocolChoice;
use crate::experiment::{with_protocol, ExperimentConfig, ExperimentResult, ProtocolRun};
use crate::lin::{check_all, check_snapshot_reads, CheckReport, OpRecord, SnapshotRecord};
use crate::stats::LatencyStats;
use crate::workload::Fault;

/// Which [`ShardMap`] the sharded driver routes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMapChoice {
    /// FNV-1a hash partitioning (even spread, no locality).
    Hash,
    /// Uniform range partitioning of the big-endian `u64` key space.
    Range,
}

/// Configuration of a sharded experiment: a base single-group experiment
/// replicated over `shards` independent groups, plus the multi-key read
/// mix.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// The per-shard experiment shape (topology, clients, workload mix,
    /// batching, checkpointing, faults applied to *every* shard).
    pub base: ExperimentConfig,
    /// Number of independent replication groups.
    pub shards: usize,
    /// Key-to-shard placement.
    pub map: ShardMapChoice,
    /// Fraction of **reads** issued as multi-key snapshot reads.
    pub snapshot_fraction: f64,
    /// Keys per multi-key snapshot read.
    pub snapshot_keys: usize,
    /// How far past issue time a snapshot cut is pinned. Must exceed the
    /// client-to-replica delivery delay plus the clock model's offset
    /// bound, so every completed-before-issue write has a commit
    /// timestamp below the cut (freshness) and the pinned parts arrive
    /// before their shard's stable timestamp passes the cut.
    pub snapshot_lead_us: Micros,
    /// Lockstep quantum: how far every shard simulation advances before
    /// the router looks at replies again.
    pub quantum_us: Micros,
    /// Faults scoped to a single shard `(at, shard, fault)`; only
    /// `Crash` and `Recover` are supported here.
    pub shard_faults: Vec<(Micros, usize, Fault)>,
}

impl ShardedConfig {
    /// A sharded experiment over `shards` groups with no multi-key
    /// reads, hash placement, and a 2.5 ms snapshot lead.
    pub fn new(base: ExperimentConfig, shards: usize) -> Self {
        assert!(shards > 0, "a sharded experiment needs at least one shard");
        ShardedConfig {
            base,
            shards,
            map: ShardMapChoice::Hash,
            snapshot_fraction: 0.0,
            snapshot_keys: 4,
            snapshot_lead_us: 2_500,
            quantum_us: 200,
            shard_faults: Vec::new(),
        }
    }

    /// Issues `fraction` of reads as multi-key snapshot reads of `keys`
    /// keys each.
    pub fn snapshot_mix(mut self, fraction: f64, keys: usize) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        assert!(keys > 0, "a snapshot read needs at least one key");
        self.snapshot_fraction = fraction;
        self.snapshot_keys = keys;
        self
    }

    /// Switches key placement to uniform range partitioning.
    pub fn range_partitioned(mut self) -> Self {
        self.map = ShardMapChoice::Range;
        self
    }

    /// Sets the snapshot cut lead.
    pub fn snapshot_lead_us(mut self, us: Micros) -> Self {
        self.snapshot_lead_us = us;
        self
    }

    /// Adds a fault scoped to one shard.
    pub fn shard_fault(mut self, at: Micros, shard: usize, fault: Fault) -> Self {
        assert!(shard < self.shards, "fault on unknown shard");
        self.shard_faults.push((at, shard, fault));
        self
    }

    fn n(&self) -> usize {
        self.base.latency.len()
    }

    fn active(&self) -> Vec<ReplicaId> {
        match &self.base.active_sites {
            Some(sites) => sites.iter().map(|&s| ReplicaId::new(s)).collect(),
            None => (0..self.n() as u16).map(ReplicaId::new).collect(),
        }
    }

    fn shard_map(&self) -> Box<dyn ShardMap> {
        match self.map {
            ShardMapChoice::Hash => Box::new(HashShardMap::new(self.shards)),
            ShardMapChoice::Range => {
                Box::new(RangeShardMap::uniform_u64(self.base.key_space, self.shards))
            }
        }
    }
}

/// Everything a sharded run produces.
#[derive(Debug)]
pub struct ShardedResult {
    /// Which protocol ran (per shard).
    pub protocol: &'static str,
    /// Number of shards.
    pub shards: usize,
    /// One full single-group result per shard (stats over the commands
    /// routed to it, its own correctness checks and convergence).
    pub per_shard: Vec<ExperimentResult>,
    /// The cross-shard roll-up: summed throughput and commit counts,
    /// merged latency distributions, folded checks.
    pub aggregate: ExperimentResult,
    /// How the load spread over the shards.
    pub accounting: ShardAccounting,
    /// Completed multi-key snapshot reads.
    pub snapshot_count: usize,
    /// Median multi-key read latency, ms (0 with no samples).
    pub snapshot_p50_ms: f64,
    /// 99th-percentile multi-key read latency, ms.
    pub snapshot_p99_ms: f64,
    /// Whether every snapshot read observed one consistent cut
    /// (trivially true for the Paxos/Mencius fallback, which does not
    /// claim a cut).
    pub snapshot_ok: bool,
    /// First snapshot-cut violation, if any.
    pub snapshot_violation: Option<String>,
}

impl ShardedResult {
    /// Whether every per-shard check, every shard's convergence, and the
    /// cross-shard snapshot check passed.
    pub fn all_ok(&self) -> bool {
        self.aggregate.checks.all_ok()
            && self.per_shard.iter().all(|r| r.snapshots_agree)
            && self.snapshot_ok
    }
}

/// Runs a sharded experiment for the chosen protocol. Every knob of
/// `cfg.base` reaches every shard's replicas through the same factory
/// as [`run_latency`](crate::run_latency).
pub fn run_sharded(choice: ProtocolChoice, cfg: &ShardedConfig) -> ShardedResult {
    struct Sharded<'a> {
        cfg: &'a ShardedConfig,
        /// Only Clock-RSM claims one consistent cut per snapshot read.
        snapshot_consistent: bool,
    }
    impl ProtocolRun for Sharded<'_> {
        type Out = ShardedResult;
        fn run<P, F>(self, name: &'static str, factory: F) -> ShardedResult
        where
            P: Protocol + 'static,
            F: FnMut(ReplicaId) -> P + Clone + 'static,
        {
            run_sharded_generic(self.cfg, name, factory, self.snapshot_consistent)
        }
    }
    let snapshot_consistent = matches!(choice, ProtocolChoice::ClockRsm { .. });
    let run = Sharded {
        cfg,
        snapshot_consistent,
    };
    with_protocol(choice, &cfg.base, run)
}

/// Per-shard application: collects replies (with exact in-simulation
/// arrival times) for the router to drain at quantum boundaries, and
/// counts observer-replica commits inside the measurement window.
struct Collector {
    warmup_until: Micros,
    measure_until: Micros,
    replies: Vec<(ClientId, Reply, Micros)>,
    observer_commits: u64,
}

impl<P: Protocol> Application<P> for Collector {
    fn on_init(&mut self, _api: &mut SimApi<'_, P>) {}

    fn on_reply(&mut self, client: ClientId, reply: Reply, api: &mut SimApi<'_, P>) {
        let now = api.now();
        self.replies.push((client, reply, now));
    }

    fn on_event(&mut self, _key: u64, _api: &mut SimApi<'_, P>) {}

    fn on_commit(&mut self, replica: ReplicaId, _committed: &Committed, at: Micros) {
        if replica == ReplicaId::new(0) && at >= self.warmup_until && at <= self.measure_until {
            self.observer_commits += 1;
        }
    }
}

/// What a router client is waiting on.
#[derive(Debug, Clone)]
enum Pending {
    Idle,
    Single {
        cmd_id: CommandId,
        shard: usize,
        key: u64,
        is_read: bool,
    },
    Snapshot {
        token: u64,
        keys: Vec<u64>,
    },
}

#[derive(Debug)]
struct Client {
    id: ClientId,
    site: ReplicaId,
    seq: u64,
    pending: Pending,
    issued_at: Micros,
    /// Retry attempt of the in-flight operation (0 = first issue); read
    /// retries rotate their target replica by this much.
    attempt: u32,
    /// Next time the router acts for this client: issue when idle,
    /// retry-check when pending.
    next_wake: Micros,
}

/// The external router: client population, key routing, snapshot
/// coordination, and all measurement state.
struct Router {
    map: Box<dyn ShardMap>,
    n: usize,
    end: Micros,
    warmup: Micros,
    think_max_us: Micros,
    value_bytes: usize,
    key_space: u64,
    read_fraction: f64,
    snapshot_fraction: f64,
    snapshot_keys: usize,
    snapshot_lead_us: Micros,
    retry_timeout_us: Option<Micros>,
    record_ops: bool,

    clients: Vec<Client>,
    client_index: HashMap<ClientId, usize>,
    rng: StdRng,
    coord: SnapshotCoordinator,
    snap_owner: HashMap<u64, usize>,
    accounting: ShardAccounting,

    /// Per-shard operation records (snapshot parts included), feeding
    /// each shard's own checkers.
    ops: Vec<Vec<OpRecord>>,
    op_index: HashMap<CommandId, (usize, usize)>,
    /// `[shard][site]` latencies of the commands routed there.
    site_stats: Vec<Vec<LatencyStats>>,
    read_stats: Vec<LatencyStats>,
    write_stats: Vec<LatencyStats>,
    snap_stats: LatencyStats,
    snaps: Vec<SnapshotRecord>,
}

impl Router {
    fn new(cfg: &ShardedConfig) -> Self {
        let n = cfg.n();
        let mut clients = Vec::new();
        let mut client_index = HashMap::new();
        for &site in &cfg.active() {
            for k in 0..cfg.base.clients_per_site {
                let id = ClientId::new(site, k as u32);
                client_index.insert(id, clients.len());
                clients.push(Client {
                    id,
                    site,
                    seq: 0,
                    pending: Pending::Idle,
                    issued_at: 0,
                    attempt: 0,
                    next_wake: 0,
                });
            }
        }
        let end = cfg.base.warmup_us + cfg.base.duration_us;
        let mut router = Router {
            map: cfg.shard_map(),
            n,
            end,
            warmup: cfg.base.warmup_us,
            think_max_us: cfg.base.think_max_us,
            value_bytes: cfg.base.value_bytes,
            key_space: cfg.base.key_space,
            read_fraction: cfg.base.read_fraction,
            snapshot_fraction: cfg.snapshot_fraction,
            snapshot_keys: cfg.snapshot_keys,
            snapshot_lead_us: cfg.snapshot_lead_us,
            retry_timeout_us: cfg.base.client_retry_us,
            record_ops: cfg.base.record_ops,
            clients,
            client_index,
            rng: StdRng::seed_from_u64(cfg.base.seed ^ 0x5ead_c0de),
            coord: SnapshotCoordinator::new(),
            snap_owner: HashMap::new(),
            accounting: ShardAccounting::new(cfg.shards),
            ops: vec![Vec::new(); cfg.shards],
            op_index: HashMap::new(),
            site_stats: vec![vec![LatencyStats::new(); n]; cfg.shards],
            read_stats: vec![LatencyStats::new(); cfg.shards],
            write_stats: vec![LatencyStats::new(); cfg.shards],
            snap_stats: LatencyStats::new(),
            snaps: Vec::new(),
        };
        // Stagger initial issues over one think interval, like the
        // single-group workload.
        for idx in 0..router.clients.len() {
            router.clients[idx].next_wake = if router.think_max_us == 0 {
                router.rng.gen_range(0..100)
            } else {
                router.rng.gen_range(0..=router.think_max_us)
            };
        }
        router
    }

    fn think(&mut self) -> Micros {
        if self.think_max_us == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.think_max_us)
        }
    }

    /// The value a write carries: 14 bytes of `(site, client, seq)` —
    /// unique per write, which lets the cut checker match an observed
    /// value back to exactly one write — padded to the configured size.
    fn unique_value(&self, id: ClientId, seq: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.value_bytes.max(14));
        v.extend_from_slice(&(id.site().index() as u16).to_be_bytes());
        v.extend_from_slice(&id.number().to_be_bytes());
        v.extend_from_slice(&seq.to_be_bytes());
        while v.len() < self.value_bytes {
            v.push((seq % 251) as u8);
        }
        v
    }

    fn record_op(
        &mut self,
        shard: usize,
        cmd_id: CommandId,
        now: Micros,
        payload: Bytes,
        read: bool,
    ) {
        if !self.record_ops {
            return;
        }
        self.op_index.insert(cmd_id, (shard, self.ops[shard].len()));
        self.ops[shard].push(OpRecord {
            cmd_id,
            issued: now,
            replied: None,
            payload,
            result: None,
            read_only: read,
        });
    }

    /// The replica a client at `site` sends a read to on retry attempt
    /// `attempt`: the site's advertised lease holder first, then a
    /// rotation over the replicas (escaping a crashed target).
    fn read_site<P: Protocol>(
        &self,
        sim: &Simulation<P, Collector>,
        site: ReplicaId,
        attempt: u32,
    ) -> ReplicaId {
        if attempt == 0 {
            sim.read_target(site)
        } else {
            ReplicaId::new(((site.index() + attempt as usize) % self.n) as u16)
        }
    }

    fn dispatch_single<P: Protocol>(
        &mut self,
        idx: usize,
        key: u64,
        is_read: bool,
        now: Micros,
        sims: &mut [Simulation<P, Collector>],
    ) {
        let shard = self.map.shard_of(&key.to_be_bytes());
        let (id, site) = (self.clients[idx].id, self.clients[idx].site);
        // A write retry re-submits the SAME command (identical id and
        // payload, same operation record): that is what lets the
        // replicas' session windows answer it from the cached reply when
        // only the reply was lost. A read retry mints a fresh id — reads
        // bypass the window, and a late answer to the abandoned attempt
        // must not complete the new one.
        let same_cmd = !is_read && self.clients[idx].attempt > 0;
        if !same_cmd {
            self.clients[idx].seq += 1;
        }
        let seq = self.clients[idx].seq;
        let cmd_id = CommandId::new(id, seq);
        let payload = if is_read {
            KvOp::get(key.to_be_bytes().to_vec()).encode()
        } else {
            KvOp::put(key.to_be_bytes().to_vec(), self.unique_value(id, seq)).encode()
        };
        if !same_cmd {
            self.record_op(shard, cmd_id, now, payload.clone(), is_read);
        }
        if is_read {
            let target = self.read_site(&sims[shard], site, self.clients[idx].attempt);
            sims[shard].submit_from(site, target, Command::read(cmd_id, payload));
            self.accounting.record_read(shard);
        } else {
            sims[shard].submit(site, Command::new(cmd_id, payload));
            self.accounting.record_write(shard);
        }
        let c = &mut self.clients[idx];
        c.pending = Pending::Single {
            cmd_id,
            shard,
            key,
            is_read,
        };
        c.issued_at = now;
        c.next_wake = match self.retry_timeout_us {
            Some(t) => now + t,
            None => Micros::MAX,
        };
    }

    fn dispatch_snapshot<P: Protocol>(
        &mut self,
        idx: usize,
        keys: Vec<u64>,
        now: Micros,
        sims: &mut [Simulation<P, Collector>],
    ) {
        let (id, site) = (self.clients[idx].id, self.clients[idx].site);
        let attempt = self.clients[idx].attempt;
        // Per-part shard and target replica; the cut must lead every
        // part's delivery, so take the worst hop into account.
        let parts: Vec<(usize, Bytes, ReplicaId)> = keys
            .iter()
            .map(|k| {
                let shard = self.map.shard_of(&k.to_be_bytes());
                let target = self.read_site(&sims[shard], site, attempt);
                (shard, Bytes::from(k.to_be_bytes().to_vec()), target)
            })
            .collect();
        let max_hop = parts
            .iter()
            .map(|&(shard, _, target)| {
                if target == site {
                    0
                } else {
                    sims[shard].config().latency().one_way(site, target)
                }
            })
            .max()
            .unwrap_or(0);
        let at = now + self.snapshot_lead_us + max_hop;
        let mut seq = self.clients[idx].seq;
        let (token, cmds) = self.coord.begin(
            parts.iter().map(|(s, k, _)| (*s, k.clone())).collect(),
            at,
            now,
            || {
                seq += 1;
                CommandId::new(id, seq)
            },
        );
        self.clients[idx].seq = seq;
        for ((shard, cmd), &(_, _, target)) in cmds.into_iter().zip(&parts) {
            self.record_op(shard, cmd.id, now, cmd.payload.clone(), true);
            sims[shard].submit_from(site, target, cmd);
        }
        self.snap_owner.insert(token, idx);
        let c = &mut self.clients[idx];
        c.pending = Pending::Snapshot { token, keys };
        c.issued_at = now;
        c.next_wake = match self.retry_timeout_us {
            Some(t) => now + t,
            None => Micros::MAX,
        };
    }

    fn issue_new<P: Protocol>(
        &mut self,
        idx: usize,
        now: Micros,
        sims: &mut [Simulation<P, Collector>],
    ) {
        self.clients[idx].attempt = 0;
        let is_read = self.read_fraction > 0.0 && self.rng.gen::<f64>() < self.read_fraction;
        let is_snapshot = is_read
            && self.snapshot_fraction > 0.0
            && self.rng.gen::<f64>() < self.snapshot_fraction;
        if is_snapshot {
            let mut keys: Vec<u64> = Vec::with_capacity(self.snapshot_keys);
            while keys.len() < self.snapshot_keys {
                let key = self.rng.gen_range(0..self.key_space);
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
            self.dispatch_snapshot(idx, keys, now, sims);
        } else {
            let key = self.rng.gen_range(0..self.key_space);
            self.dispatch_single(idx, key, is_read, now, sims);
        }
    }

    /// Drains every shard's reply outbox, completing singles and
    /// snapshot parts.
    fn drain<P: Protocol>(&mut self, now: Micros, sims: &mut [Simulation<P, Collector>]) {
        for sim in sims.iter_mut() {
            let replies = std::mem::take(&mut sim.app_mut().replies);
            for (client_id, reply, at) in replies {
                // Record the reply on its op regardless of staleness:
                // the command really was served then, and accurate reply
                // times tighten (never loosen) the checkers' windows.
                if let Some(&(sh, i)) = self.op_index.get(&reply.id) {
                    let op = &mut self.ops[sh][i];
                    if op.replied.is_none() {
                        op.replied = Some(at);
                        op.result = Some(reply.result.clone());
                    }
                }
                let Some(&idx) = self.client_index.get(&client_id) else {
                    continue;
                };
                let current_single = matches!(
                    self.clients[idx].pending,
                    Pending::Single { cmd_id, .. } if cmd_id == reply.id
                );
                if current_single {
                    self.complete_single(idx, at, now);
                } else if let Some(snap) = self.coord.on_reply(reply.id, &reply.result, at) {
                    self.complete_snapshot(snap, at, now);
                }
            }
        }
    }

    fn complete_single(&mut self, idx: usize, at: Micros, now: Micros) {
        let think = self.think();
        let c = &mut self.clients[idx];
        let Pending::Single { shard, is_read, .. } = c.pending else {
            unreachable!("caller matched a single");
        };
        let issued = c.issued_at;
        let site = c.site.index();
        c.pending = Pending::Idle;
        c.attempt = 0;
        c.next_wake = now + think;
        if issued >= self.warmup && at <= self.end {
            self.site_stats[shard][site].record(at - issued);
            if is_read {
                self.read_stats[shard].record(at - issued);
            } else {
                self.write_stats[shard].record(at - issued);
            }
        }
    }

    fn complete_snapshot(&mut self, snap: rsm_shard::SnapshotResult, at: Micros, now: Micros) {
        let Some(idx) = self.snap_owner.remove(&snap.token) else {
            return; // owner already moved on (abandoned concurrently)
        };
        self.accounting.record_snapshot(&snap.shards);
        if snap.issued >= self.warmup && at <= self.end {
            self.snap_stats.record(at - snap.issued);
        }
        if self.record_ops {
            self.snaps.push(SnapshotRecord {
                issued: snap.issued,
                replied: snap.replied,
                keys: snap.keys,
                values: snap.values,
            });
        }
        let think = self.think();
        let c = &mut self.clients[idx];
        c.pending = Pending::Idle;
        c.attempt = 0;
        c.next_wake = now + think;
    }

    /// Acts on every client whose wake time has passed: issue when idle,
    /// retry (same command for a write; fresh ids, rotated target and
    /// fresh snapshot cut for reads) when a pending operation timed out.
    fn wakes<P: Protocol>(&mut self, now: Micros, sims: &mut [Simulation<P, Collector>]) {
        for idx in 0..self.clients.len() {
            if self.clients[idx].next_wake > now {
                continue;
            }
            let pending = self.clients[idx].pending.clone();
            match pending {
                Pending::Idle => {
                    if now >= self.end {
                        self.clients[idx].next_wake = Micros::MAX;
                    } else {
                        self.issue_new(idx, now, sims);
                    }
                }
                Pending::Single { key, is_read, .. } => {
                    if now >= self.end {
                        self.clients[idx].pending = Pending::Idle;
                        self.clients[idx].next_wake = Micros::MAX;
                    } else {
                        self.clients[idx].attempt += 1;
                        self.dispatch_single(idx, key, is_read, now, sims);
                    }
                }
                Pending::Snapshot { token, keys } => {
                    // A lost part abandons the *whole* snapshot: a stale
                    // cut may already be unservable exactly, so retry
                    // everything under a fresh one.
                    self.coord.abandon(token);
                    self.snap_owner.remove(&token);
                    if now >= self.end {
                        self.clients[idx].pending = Pending::Idle;
                        self.clients[idx].next_wake = Micros::MAX;
                    } else {
                        self.accounting.record_snapshot_retry();
                        self.clients[idx].attempt += 1;
                        self.dispatch_snapshot(idx, keys, now, sims);
                    }
                }
            }
        }
    }
}

fn run_sharded_generic<P, F>(
    cfg: &ShardedConfig,
    name: &'static str,
    factory: F,
    snapshot_consistent: bool,
) -> ShardedResult
where
    P: Protocol + 'static,
    F: FnMut(ReplicaId) -> P + Clone + 'static,
{
    let n = cfg.n();
    let end = cfg.base.warmup_us + cfg.base.duration_us;
    let finish = end + 2_000 * MILLIS; // slack: let in-flight work land

    let mut sims: Vec<Simulation<P, Collector>> = (0..cfg.shards)
        .map(|s| {
            let sim_cfg = SimConfig::new(cfg.base.latency.clone())
                .seed(cfg.base.seed.wrapping_add(s as u64 * 0x9e37_79b9))
                .jitter_us(cfg.base.jitter_us)
                .clock_model(cfg.base.clock)
                .batch_policy(cfg.base.batch)
                .record_history(cfg.base.record_ops);
            let sim_cfg = match cfg.base.cpu {
                Some(cpu) => sim_cfg.cpu_model(cpu),
                None => sim_cfg,
            };
            Simulation::new(
                sim_cfg,
                factory.clone(),
                || Box::new(KvStore::new()),
                Collector {
                    warmup_until: cfg.base.warmup_us,
                    measure_until: end,
                    replies: Vec::new(),
                    observer_commits: 0,
                },
            )
        })
        .collect();

    // Fault plan: shard-scoped entries plus the base experiment's faults
    // applied to every shard, in time order.
    let mut faults: Vec<(Micros, usize, Fault)> = cfg.shard_faults.clone();
    for &(at, fault) in &cfg.base.faults {
        for s in 0..cfg.shards {
            faults.push((at, s, fault));
        }
    }
    faults.sort_by_key(|&(at, _, _)| at);
    let mut next_fault = 0;

    let mut router = Router::new(cfg);
    let mut now: Micros = 0;
    while now < finish {
        let t = (now + cfg.quantum_us).min(finish);
        while next_fault < faults.len() && faults[next_fault].0 <= t {
            let (at, shard, fault) = faults[next_fault];
            let after = at.saturating_sub(now);
            match fault {
                Fault::Crash(r) => sims[shard].crash(r, after),
                Fault::Recover(r) => sims[shard].recover(r, after),
                _ => panic!("the sharded driver supports crash/recover faults only"),
            }
            next_fault += 1;
        }
        for sim in &mut sims {
            sim.run_until(t);
        }
        now = t;
        router.drain(now, &mut sims);
        router.wakes(now, &mut sims);
    }

    // Per-shard results: each shard is a complete single-group run.
    let window_secs = cfg.base.duration_us as f64 / 1e6;
    let replicas: Vec<ReplicaId> = (0..n as u16).map(ReplicaId::new).collect();
    let mut per_shard = Vec::with_capacity(cfg.shards);
    for (s, sim) in sims.iter_mut().enumerate() {
        let commit_counts: Vec<u64> = replicas.iter().map(|&r| sim.commit_count(r)).collect();
        let log_lens: Vec<usize> = replicas.iter().map(|&r| sim.log(r).len()).collect();
        let snapshots: Vec<_> = replicas
            .iter()
            .filter(|&&r| sim.is_up(r))
            .map(|&r| sim.snapshot(r))
            .collect();
        let snapshots_agree = snapshots.windows(2).all(|w| w[0] == w[1]);

        let mut commit_times: Vec<Vec<Micros>> = vec![Vec::new(); n];
        let checks = if cfg.base.record_ops {
            let histories: Vec<_> = replicas.iter().map(|&r| sim.commits(r).to_vec()).collect();
            for (i, h) in histories.iter().enumerate() {
                commit_times[i] = h.iter().map(|c| c.at).collect();
            }
            check_all(&histories, &router.ops[s])
        } else {
            CheckReport::trivially_ok()
        };

        let site_stats = std::mem::take(&mut router.site_stats[s]);
        let mut all = LatencyStats::new();
        for st in &site_stats {
            all.merge(st);
        }
        let (p50_ms, p99_ms) = if all.is_empty() {
            (0.0, 0.0)
        } else {
            (all.p50_ms(), all.p99_ms())
        };
        let read = &mut router.read_stats[s];
        let (read_p50_ms, read_p99_ms, read_count) = (read.p50_ms(), read.p99_ms(), read.count());
        let write = &mut router.write_stats[s];
        let (write_p50_ms, write_p99_ms, write_count) =
            (write.p50_ms(), write.p99_ms(), write.count());

        per_shard.push(ExperimentResult {
            protocol: name,
            site_stats,
            commit_counts,
            checks,
            snapshots_agree,
            throughput_kops: sim.app().observer_commits as f64 / window_secs / 1_000.0,
            p50_ms,
            p99_ms,
            read_p50_ms,
            read_p99_ms,
            read_count,
            write_p50_ms,
            write_p99_ms,
            write_count,
            commit_times,
            log_lens,
            cas_count: 0,
            cas_failures: 0,
            metrics: None,
            metrics_mid: None,
            spans: Vec::new(),
            open_spans: 0,
        });
    }

    // The aggregate: merged distributions, summed counters, folded
    // checks. Commit times stay per shard (there is no meaningful merged
    // sequence).
    let mut agg_sites = vec![LatencyStats::new(); n];
    let mut agg_commits = vec![0u64; n];
    let mut agg_logs = vec![0usize; n];
    let mut agg_checks = CheckReport::trivially_ok();
    let mut agg_all = LatencyStats::new();
    let mut agg_read = LatencyStats::new();
    let mut agg_write = LatencyStats::new();
    let mut throughput = 0.0;
    let mut read_count = 0;
    let mut write_count = 0;
    for (s, r) in per_shard.iter().enumerate() {
        for i in 0..n {
            agg_sites[i].merge(&r.site_stats[i]);
            agg_all.merge(&r.site_stats[i]);
            agg_commits[i] += r.commit_counts[i];
            agg_logs[i] += r.log_lens[i];
        }
        agg_read.merge(&router.read_stats[s]);
        agg_write.merge(&router.write_stats[s]);
        read_count += r.read_count;
        write_count += r.write_count;
        throughput += r.throughput_kops;
        agg_checks.total_order_ok &= r.checks.total_order_ok;
        agg_checks.monotonic_ok &= r.checks.monotonic_ok;
        agg_checks.real_time_ok &= r.checks.real_time_ok;
        agg_checks.no_duplicates_ok &= r.checks.no_duplicates_ok;
        agg_checks.read_values_ok &= r.checks.read_values_ok;
        if agg_checks.violation.is_none() {
            agg_checks.violation = r.checks.violation.clone();
        }
    }
    let (p50_ms, p99_ms) = if agg_all.is_empty() {
        (0.0, 0.0)
    } else {
        (agg_all.p50_ms(), agg_all.p99_ms())
    };
    let snapshots_agree = per_shard.iter().all(|r| r.snapshots_agree);
    let aggregate = ExperimentResult {
        protocol: name,
        site_stats: agg_sites,
        commit_counts: agg_commits,
        checks: agg_checks,
        snapshots_agree,
        throughput_kops: throughput,
        p50_ms,
        p99_ms,
        read_p50_ms: agg_read.p50_ms(),
        read_p99_ms: agg_read.p99_ms(),
        read_count,
        write_p50_ms: agg_write.p50_ms(),
        write_p99_ms: agg_write.p99_ms(),
        write_count,
        commit_times: vec![Vec::new(); n],
        log_lens: agg_logs,
        cas_count: 0,
        cas_failures: 0,
        metrics: None,
        metrics_mid: None,
        spans: Vec::new(),
        open_spans: 0,
    };

    // The cross-shard cut check — Clock-RSM only; the Paxos/Mencius
    // fallback decomposes into per-shard linearizable reads (checked
    // above per shard) and claims no cut. Real-time bounds derived from
    // commit timestamps are only tight to within the clock offset bound.
    let snapshot_check = if snapshot_consistent && cfg.base.record_ops {
        let all_ops: Vec<OpRecord> = router.ops.iter().flatten().cloned().collect();
        let skew = cfg
            .base
            .clock
            .sync_bound_us
            .max(cfg.base.clock.offset_us.unsigned_abs());
        check_snapshot_reads(&all_ops, &router.snaps, skew)
    } else {
        Ok(())
    };

    let (snapshot_p50_ms, snapshot_p99_ms) = if router.snap_stats.is_empty() {
        (0.0, 0.0)
    } else {
        (router.snap_stats.p50_ms(), router.snap_stats.p99_ms())
    };

    ShardedResult {
        protocol: name,
        shards: cfg.shards,
        per_shard,
        aggregate,
        accounting: router.accounting,
        snapshot_count: router.snaps.len(),
        snapshot_p50_ms,
        snapshot_p99_ms,
        snapshot_ok: snapshot_check.is_ok(),
        snapshot_violation: snapshot_check.err(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_core::matrix::LatencyMatrix;
    use simnet::ClockModel;

    fn quick(shards: usize) -> ShardedConfig {
        let base = ExperimentConfig::new(LatencyMatrix::uniform(3, 5_000))
            .clients_per_site(3)
            .think_max_us(10 * MILLIS)
            .warmup_us(200 * MILLIS)
            .duration_us(800 * MILLIS)
            .client_retry_us(400 * MILLIS);
        ShardedConfig::new(base, shards)
    }

    #[test]
    fn sharded_clock_rsm_runs_clean_with_snapshot_mix() {
        let cfg = {
            let mut c = quick(2).snapshot_mix(0.3, 3);
            c.base = c.base.read_fraction(0.5);
            c
        };
        let r = run_sharded(ProtocolChoice::clock_rsm(), &cfg);
        assert!(
            r.all_ok(),
            "{:?} / {:?}",
            r.aggregate.checks.violation,
            r.snapshot_violation
        );
        assert!(
            r.snapshot_count > 5,
            "only {} snapshots completed",
            r.snapshot_count
        );
        assert!(r.snapshot_p50_ms > 0.0);
        // Both shards saw work.
        for (s, c) in r.accounting.per_shard().iter().enumerate() {
            assert!(c.writes > 0, "shard {s} got no writes");
        }
        assert!(r.aggregate.throughput_kops > 0.0);
    }

    #[test]
    fn sharded_fallback_protocols_stay_linearizable_per_shard() {
        // Paxos and Mencius run the same multi-key mix; their parts are
        // plain per-shard linearizable reads (the pin is ignored), so
        // every per-shard checker must stay green while the cut check is
        // out of scope by design.
        let cfg = {
            let mut c = quick(2).snapshot_mix(0.3, 3);
            c.base = c.base.read_fraction(0.5);
            c
        };
        for choice in [ProtocolChoice::paxos(0), ProtocolChoice::mencius()] {
            let r = run_sharded(choice, &cfg);
            assert!(
                r.all_ok(),
                "{}: {:?}",
                r.protocol,
                r.aggregate.checks.violation
            );
            assert!(
                r.snapshot_count > 0,
                "{}: no multi-key reads completed",
                r.protocol
            );
        }
    }

    #[test]
    fn range_partitioning_routes_contiguous_blocks() {
        let cfg = quick(4).range_partitioned();
        let r = run_sharded(ProtocolChoice::clock_rsm(), &cfg);
        assert!(r.all_ok(), "{:?}", r.aggregate.checks.violation);
        // Uniform keys over a uniform range split: every shard gets work.
        for (s, c) in r.accounting.per_shard().iter().enumerate() {
            assert!(c.writes > 0, "shard {s} got no writes");
        }
    }

    #[test]
    fn shard_scoped_crash_leaves_other_shards_untouched() {
        // Crash-and-rejoin needs the reconfiguration machinery on (like
        // the single-group fault soaks): failure detection to exclude
        // the dead replica, rejoin to catch it back up.
        let rsm_cfg = clock_rsm::ClockRsmConfig::default()
            .with_delta_us(Some(50 * MILLIS))
            .with_failure_detection(Some(400 * MILLIS))
            .with_synod_retry_us(100 * MILLIS)
            .with_reconfig_retry_us(100 * MILLIS);
        let cfg = quick(2)
            .shard_fault(300 * MILLIS, 0, Fault::Crash(ReplicaId::new(1)))
            .shard_fault(600 * MILLIS, 0, Fault::Recover(ReplicaId::new(1)));
        let r = run_sharded(ProtocolChoice::clock_rsm_with(rsm_cfg), &cfg);
        assert!(r.all_ok(), "{:?}", r.aggregate.checks.violation);
        // Shard 1 never lost a replica: all three replicas converged.
        assert!(r.per_shard[1].snapshots_agree);
    }

    #[test]
    fn snapshot_reads_survive_skewed_clocks() {
        let cfg = {
            let mut c = quick(2).snapshot_mix(0.5, 4);
            c.base = c.base.read_fraction(0.5).clock(ClockModel::ntp(MILLIS));
            c
        };
        let r = run_sharded(ProtocolChoice::clock_rsm(), &cfg);
        assert!(r.snapshot_ok, "{:?}", r.snapshot_violation);
        assert!(r.snapshot_count > 5);
    }
}
