//! Sharded experiments: `N` independent replication groups advanced in
//! lockstep, with the closed-loop client population living in an
//! external router.
//!
//! One replication group totally orders *every* command, so its
//! throughput is bounded by one leader pipeline (Paxos), one round-robin
//! ring (Mencius), or one timestamp-ordered commit loop per replica
//! (Clock-RSM). Partitioning the key space across independent groups
//! lets aggregate write throughput scale with the number of shards,
//! because the groups share nothing.
//!
//! Each shard is a complete single-group deployment — its own protocol
//! instances, batching controllers, checkpointing, and read subsystem —
//! running in its own [`Simulation`], configured and summarised by the
//! same code as a [`run_latency`](crate::run_latency) group. The router
//! owns the clients: it picks keys, hashes them to shards, submits
//! commands into the owning shard's simulation, and collects replies.
//! The simulations share one virtual clock because the router advances
//! them in small lockstep quanta; the only approximation is that the
//! router *observes* replies at quantum boundaries — reply timestamps
//! themselves are exact in-simulation times, so latency statistics carry
//! no quantization error.
//!
//! # The cross-shard snapshot-read invariant
//!
//! A multi-key read touching several shards must not observe a *torn*
//! state — key `a` from before some transaction of writes and key `b`
//! from after it. The router therefore picks one cut timestamp `t`
//! slightly in the future (covering clock skew plus request delivery),
//! splits the read into one pinned single-key `Get` per key, and parks
//! each on its shard's read queue at stamp `t`. Every shard serves its
//! part only once its **stable timestamp** — the floor below which no
//! new command can commit — has passed `t`, and serves it against the
//! state holding *exactly* the writes with timestamp `≤ t`. The
//! assembled result is then the one global state at cut `t`:
//!
//! > for every shard `s` and key `k` on `s`, the returned value of `k`
//! > is the last write to `k` with commit timestamp `≤ t`, where all
//! > shards use the same `t` from the same loosely-synchronized clock
//! > domain.
//!
//! [`check_snapshot_reads`] grades exactly this.
//!
//! # Why snapshot reads are Clock-RSM-only
//!
//! The invariant leans on two properties that only the Clock-RSM groups
//! provide:
//!
//! 1. **A shared order domain.** Clock-RSM orders commands by physical
//!    clock timestamp, so commit timestamps of *different* groups are
//!    mutually comparable — one `t` cuts every shard. Paxos instance
//!    numbers and Mencius slot numbers are per-group coordinates with no
//!    cross-group meaning; there is no `t` to agree on.
//! 2. **A stable-timestamp watermark.** Each Clock-RSM replica knows a
//!    floor below which its prefix is final, can hold a pinned read
//!    until the floor passes `t`, and applies writes in timestamp order
//!    with reads released exactly between them — so "state at `t`" is a
//!    well-defined, locally-servable thing.
//!
//! Paxos and Mencius shards get the honest fallback: the identical
//! commands decompose into **per-shard linearizable reads** (the pin is
//! ignored) that are *not* a single cut across shards. Each part is
//! individually linearizable within its shard, and that is all the
//! fallback claims, so the cut checker runs for Clock-RSM only.
//!
//! This mirrors the paper's positioning of loosely synchronized physical
//! clocks: beyond low-latency commit (the paper's subject), a shared
//! clock domain is exactly what makes cross-group consistency cheap.

mod snapshot;

use std::collections::HashMap;

use bytes::Bytes;
use kvstore::{KvOp, KvStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsm_core::command::{Command, CommandId, Committed, Reply};
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::protocol::Protocol;
use rsm_core::time::Micros;
use simnet::sim::{Application, SimApi};
use simnet::Simulation;

use self::snapshot::{SnapshotCoordinator, SnapshotResult};
use crate::cluster::ProtocolChoice;
use crate::experiment::{
    group_result, sim_config, with_protocol, ExperimentConfig, ExperimentResult, Measured,
    ProtocolRun, SLACK_US,
};
use crate::lin::{check_snapshot_reads, CheckReport, OpRecord, SnapshotRecord};
use crate::stats::LatencyStats;
use crate::workload::Fault;

/// Lockstep quantum: how far every shard simulation advances before the
/// router looks at replies again.
const QUANTUM_US: Micros = 200;

/// How far past issue time (and past the worst client-to-replica hop) a
/// snapshot cut is pinned. It must exceed the clock model's offset
/// bound, so every completed-before-issue write has a commit timestamp
/// below the cut (freshness) and the pinned parts arrive before their
/// shard's stable timestamp passes the cut.
const SNAPSHOT_LEAD_US: Micros = 2_500;

/// The shard owning `key`: FNV-1a over its big-endian bytes, modulo the
/// shard count. Tiny, allocation-free, stable across calls (a key's
/// every command lands on one group), and plenty uniform for placement;
/// not a defense against adversarial keys.
fn shard_of(key: u64, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.to_be_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Configuration of a sharded experiment: a base single-group experiment
/// replicated over `shards` independent groups, plus the multi-key read
/// mix.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// The per-shard experiment shape (topology, clients, workload mix,
    /// batching, checkpointing, observability, and crash/recover faults
    /// applied to *every* shard). A CAS mix is not supported.
    pub base: ExperimentConfig,
    /// Number of independent replication groups.
    pub shards: usize,
    /// Fraction of **reads** issued as multi-key snapshot reads.
    pub snapshot_fraction: f64,
    /// Keys per multi-key snapshot read.
    pub snapshot_keys: usize,
    /// Faults scoped to a single shard `(at, shard, fault)`; only
    /// `Crash` and `Recover` are supported here.
    pub shard_faults: Vec<(Micros, usize, Fault)>,
}

impl ShardedConfig {
    /// A sharded experiment over `shards` groups with no multi-key
    /// reads.
    pub fn new(base: ExperimentConfig, shards: usize) -> Self {
        assert!(shards > 0, "a sharded experiment needs at least one shard");
        ShardedConfig {
            base,
            shards,
            snapshot_fraction: 0.0,
            snapshot_keys: 4,
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

    /// Adds a fault scoped to one shard.
    pub fn shard_fault(mut self, at: Micros, shard: usize, fault: Fault) -> Self {
        assert!(shard < self.shards, "fault on unknown shard");
        self.shard_faults.push((at, shard, fault));
        self
    }
}

/// Operation tallies for one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Replicated write commands routed to the shard, each counted once
    /// however often its client re-submitted it.
    pub writes: u64,
    /// Single-key linearizable reads routed to the shard (a read retry
    /// mints a new command, so it counts again).
    pub reads: u64,
    /// Snapshot-read parts (pinned single-key `Get`s) the shard served.
    pub snapshot_parts: u64,
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
    /// How the load spread over the shards, one entry per shard.
    pub counters: Vec<ShardCounters>,
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
/// and simulator configuration as [`run_latency`](crate::run_latency).
///
/// # Panics
///
/// Panics before anything runs when `cfg.base` asks for a CAS mix (the
/// router issues no CAS, so the chain checker would pass without
/// running), or when a base or shard fault is anything but `Crash` or
/// `Recover`.
pub fn run_sharded(choice: ProtocolChoice, cfg: &ShardedConfig) -> ShardedResult {
    assert!(
        cfg.base.cas_fraction == 0.0,
        "the sharded driver issues no CAS: cas_fraction must be 0"
    );
    let crash_or_recover = |f: &Fault| matches!(f, Fault::Crash(_) | Fault::Recover(_));
    assert!(
        cfg.base.faults.iter().all(|(_, f)| crash_or_recover(f))
            && cfg.shard_faults.iter().all(|(_, _, f)| crash_or_recover(f)),
        "the sharded driver supports crash/recover faults only"
    );
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
struct Router<'a> {
    cfg: &'a ShardedConfig,
    /// End of the measurement window.
    end: Micros,

    clients: Vec<Client>,
    client_index: HashMap<ClientId, usize>,
    rng: StdRng,
    coord: SnapshotCoordinator,
    snap_owner: HashMap<u64, usize>,
    counters: Vec<ShardCounters>,

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

impl<'a> Router<'a> {
    fn new(cfg: &'a ShardedConfig) -> Self {
        let base = &cfg.base;
        let mut clients = Vec::new();
        let mut client_index = HashMap::new();
        for &site in &base.active() {
            for k in 0..base.clients_per_site {
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
        let mut router = Router {
            cfg,
            end: base.measure_until(),
            clients,
            client_index,
            rng: StdRng::seed_from_u64(base.seed ^ 0x5ead_c0de),
            coord: SnapshotCoordinator::default(),
            snap_owner: HashMap::new(),
            counters: vec![ShardCounters::default(); cfg.shards],
            ops: vec![Vec::new(); cfg.shards],
            op_index: HashMap::new(),
            site_stats: vec![vec![LatencyStats::new(); base.n()]; cfg.shards],
            read_stats: vec![LatencyStats::new(); cfg.shards],
            write_stats: vec![LatencyStats::new(); cfg.shards],
            snap_stats: LatencyStats::new(),
            snaps: Vec::new(),
        };
        // Stagger initial issues over one think interval, like the
        // single-group workload.
        for idx in 0..router.clients.len() {
            router.clients[idx].next_wake = if base.think_max_us == 0 {
                router.rng.gen_range(0..100)
            } else {
                router.rng.gen_range(0..=base.think_max_us)
            };
        }
        router
    }

    fn think(&mut self) -> Micros {
        match self.cfg.base.think_max_us {
            0 => 0,
            max => self.rng.gen_range(0..=max),
        }
    }

    /// When the router next looks at a client it just dispatched for.
    fn retry_at(&self, now: Micros) -> Micros {
        match self.cfg.base.client_retry_us {
            Some(t) => now + t,
            None => Micros::MAX,
        }
    }

    /// The value a write carries: 14 bytes of `(site, client, seq)` —
    /// unique per write, which lets the cut checker match an observed
    /// value back to exactly one write — padded to the configured size.
    fn unique_value(&self, id: ClientId, seq: u64) -> Vec<u8> {
        let value_bytes = self.cfg.base.value_bytes;
        let mut v = Vec::with_capacity(value_bytes.max(14));
        v.extend_from_slice(&(id.site().index() as u16).to_be_bytes());
        v.extend_from_slice(&id.number().to_be_bytes());
        v.extend_from_slice(&seq.to_be_bytes());
        while v.len() < value_bytes {
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
        if !self.cfg.base.record_ops {
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
        sim: &mut Simulation<P, Collector>,
        site: ReplicaId,
        attempt: u32,
    ) -> ReplicaId {
        if attempt == 0 {
            sim.with_api(|_, api| api.read_target(site))
        } else {
            ReplicaId::new(((site.index() + attempt as usize) % self.cfg.base.n()) as u16)
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
        let shard = shard_of(key, self.cfg.shards);
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
            let counters = &mut self.counters[shard];
            if is_read {
                counters.reads += 1;
            } else {
                counters.writes += 1;
            }
        }
        if is_read {
            let target = self.read_site(&mut sims[shard], site, self.clients[idx].attempt);
            let cmd = Command::read(cmd_id, payload);
            sims[shard].with_api(|_, api| api.submit_from(site, target, cmd));
        } else {
            let cmd = Command::new(cmd_id, payload);
            sims[shard].with_api(|_, api| api.submit(site, cmd));
        }
        let next_wake = self.retry_at(now);
        let c = &mut self.clients[idx];
        c.pending = Pending::Single {
            cmd_id,
            shard,
            key,
            is_read,
        };
        c.issued_at = now;
        c.next_wake = next_wake;
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
            .map(|&k| {
                let shard = shard_of(k, self.cfg.shards);
                let target = self.read_site(&mut sims[shard], site, attempt);
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
        let at = now + SNAPSHOT_LEAD_US + max_hop;
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
            sims[shard].with_api(|_, api| api.submit_from(site, target, cmd));
        }
        self.snap_owner.insert(token, idx);
        let next_wake = self.retry_at(now);
        let c = &mut self.clients[idx];
        c.pending = Pending::Snapshot { token, keys };
        c.issued_at = now;
        c.next_wake = next_wake;
    }

    fn issue_new<P: Protocol>(
        &mut self,
        idx: usize,
        now: Micros,
        sims: &mut [Simulation<P, Collector>],
    ) {
        let cfg = self.cfg;
        self.clients[idx].attempt = 0;
        let read_fraction = cfg.base.read_fraction;
        let is_read = read_fraction > 0.0 && self.rng.gen::<f64>() < read_fraction;
        let is_snapshot =
            is_read && cfg.snapshot_fraction > 0.0 && self.rng.gen::<f64>() < cfg.snapshot_fraction;
        if is_snapshot {
            let mut keys: Vec<u64> = Vec::with_capacity(cfg.snapshot_keys);
            while keys.len() < cfg.snapshot_keys {
                let key = self.rng.gen_range(0..cfg.base.key_space);
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
            self.dispatch_snapshot(idx, keys, now, sims);
        } else {
            let key = self.rng.gen_range(0..cfg.base.key_space);
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
        if issued >= self.cfg.base.warmup_us && at <= self.end {
            self.site_stats[shard][site].record(at - issued);
            if is_read {
                self.read_stats[shard].record(at - issued);
            } else {
                self.write_stats[shard].record(at - issued);
            }
        }
    }

    fn complete_snapshot(&mut self, snap: SnapshotResult, at: Micros, now: Micros) {
        let Some(idx) = self.snap_owner.remove(&snap.token) else {
            return; // owner already moved on (abandoned concurrently)
        };
        for &s in &snap.shards {
            self.counters[s].snapshot_parts += 1;
        }
        if snap.issued >= self.cfg.base.warmup_us && at <= self.end {
            self.snap_stats.record(at - snap.issued);
        }
        if self.cfg.base.record_ops {
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
            if let Pending::Snapshot { token, .. } = pending {
                // A lost part abandons the *whole* snapshot: a stale cut
                // may already be unservable exactly, so retry everything
                // under a fresh one.
                self.coord.abandon(token);
                self.snap_owner.remove(&token);
            }
            if now >= self.end {
                self.clients[idx].pending = Pending::Idle;
                self.clients[idx].next_wake = Micros::MAX;
                continue;
            }
            match pending {
                Pending::Idle => self.issue_new(idx, now, sims),
                Pending::Single { key, is_read, .. } => {
                    self.clients[idx].attempt += 1;
                    self.dispatch_single(idx, key, is_read, now, sims);
                }
                Pending::Snapshot { keys, .. } => {
                    self.clients[idx].attempt += 1;
                    self.dispatch_snapshot(idx, keys, now, sims);
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
    let base = &cfg.base;
    let end = base.measure_until();
    let finish = end + SLACK_US;

    let mut sims: Vec<Simulation<P, Collector>> = (0..cfg.shards)
        .map(|s| {
            Simulation::new(
                sim_config(base, base.seed.wrapping_add(s as u64 * 0x9e37_79b9)),
                factory.clone(),
                || Box::new(KvStore::new()),
                Collector {
                    warmup_until: base.warmup_us,
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
    for &(at, fault) in &base.faults {
        for s in 0..cfg.shards {
            faults.push((at, s, fault));
        }
    }
    faults.sort_by_key(|&(at, _, _)| at);
    let mut next_fault = 0;

    let mut router = Router::new(cfg);
    let mut metrics_mid = vec![None; cfg.shards];
    let mut now: Micros = 0;
    while now < finish {
        let t = (now + QUANTUM_US).min(finish);
        while next_fault < faults.len() && faults[next_fault].0 <= t {
            let (at, shard, fault) = faults[next_fault];
            let after = at.saturating_sub(now);
            sims[shard].with_api(|_, api| match fault {
                Fault::Crash(r) => api.crash(r, after),
                Fault::Recover(r) => api.recover(r, after),
                _ => unreachable!("run_sharded admits crash/recover faults only"),
            });
            next_fault += 1;
        }
        for sim in &mut sims {
            sim.run_until(t);
        }
        // The window's end is a quantum boundary when it is a multiple
        // of the quantum; otherwise no shard reports a mid-run snapshot.
        if t == end {
            metrics_mid = sims.iter().map(Simulation::metrics).collect();
        }
        now = t;
        router.drain(now, &mut sims);
        router.wakes(now, &mut sims);
    }

    // Each shard is a complete single-group run; the aggregate merges
    // their distributions, sums their counters and folds their checks.
    // Commit times stay per shard (there is no meaningful merged
    // sequence).
    let n = base.n();
    let mut per_shard = Vec::with_capacity(cfg.shards);
    let mut agg_sites = vec![LatencyStats::new(); n];
    let mut agg_commits = vec![0u64; n];
    let mut agg_logs = vec![0usize; n];
    let mut agg_checks = CheckReport::trivially_ok();
    let mut agg_all = LatencyStats::new();
    let mut agg_read = LatencyStats::new();
    let mut agg_write = LatencyStats::new();
    let mut throughput = 0.0;
    for (s, (sim, metrics_mid)) in sims.iter().zip(metrics_mid).enumerate() {
        let read = std::mem::take(&mut router.read_stats[s]);
        let write = std::mem::take(&mut router.write_stats[s]);
        agg_read.merge(&read);
        agg_write.merge(&write);
        let measured = Measured {
            ops: &router.ops[s],
            observer_commits: sim.app().observer_commits,
            site_stats: std::mem::take(&mut router.site_stats[s]),
            read,
            write,
            cas_count: 0,
            cas_failures: 0,
            metrics_mid,
        };
        let r = group_result(name, base, sim, measured);
        for i in 0..n {
            agg_sites[i].merge(&r.site_stats[i]);
            agg_all.merge(&r.site_stats[i]);
            agg_commits[i] += r.commit_counts[i];
            agg_logs[i] += r.log_lens[i];
        }
        throughput += r.throughput_kops;
        agg_checks.total_order_ok &= r.checks.total_order_ok;
        agg_checks.monotonic_ok &= r.checks.monotonic_ok;
        agg_checks.real_time_ok &= r.checks.real_time_ok;
        agg_checks.no_duplicates_ok &= r.checks.no_duplicates_ok;
        agg_checks.linearizable_ok &= r.checks.linearizable_ok;
        if agg_checks.violation.is_none() {
            agg_checks.violation = r.checks.violation.clone();
        }
        per_shard.push(r);
    }
    let aggregate = ExperimentResult {
        protocol: name,
        site_stats: agg_sites,
        commit_counts: agg_commits,
        checks: agg_checks,
        snapshots_agree: per_shard.iter().all(|r| r.snapshots_agree),
        throughput_kops: throughput,
        p50_ms: agg_all.p50_ms(),
        p99_ms: agg_all.p99_ms(),
        read_p50_ms: agg_read.p50_ms(),
        read_p99_ms: agg_read.p99_ms(),
        read_count: agg_read.count(),
        write_p50_ms: agg_write.p50_ms(),
        write_p99_ms: agg_write.p99_ms(),
        write_count: agg_write.count(),
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
    let snapshot_check = if snapshot_consistent && base.record_ops {
        let all_ops: Vec<OpRecord> = router.ops.iter().flatten().cloned().collect();
        let clock = base.clock;
        let skew = clock.sync_bound_us.max(clock.offset_us.unsigned_abs());
        check_snapshot_reads(&all_ops, &router.snaps, skew)
    } else {
        Ok(())
    };

    ShardedResult {
        protocol: name,
        shards: cfg.shards,
        per_shard,
        aggregate,
        counters: router.counters,
        snapshot_count: router.snaps.len(),
        snapshot_p50_ms: router.snap_stats.p50_ms(),
        snapshot_p99_ms: router.snap_stats.p99_ms(),
        snapshot_ok: snapshot_check.is_ok(),
        snapshot_violation: snapshot_check.err(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsm_core::matrix::LatencyMatrix;
    use rsm_core::time::MILLIS;
    use rsm_obs::ObsConfig;
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
        for (s, c) in r.counters.iter().enumerate() {
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
    fn hash_placement_is_stable_and_spreads_keys_evenly() {
        let mut counts = [0usize; 4];
        for k in 0u64..4_000 {
            let s = shard_of(k, 4);
            assert_eq!(s, shard_of(k, 4), "placement must be stable");
            counts[s] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!((700..=1_300).contains(&c), "shard {s} got {c} of 4000 keys");
        }
    }

    #[test]
    fn shard_scoped_crash_leaves_other_shards_untouched() {
        // Crash-and-rejoin needs the reconfiguration machinery on (like
        // the single-group fault soaks): failure detection to exclude
        // the dead replica, rejoin to catch it back up.
        let rsm_cfg = clock_rsm::ClockRsmConfig::default()
            .with_delta_us(Some(50 * MILLIS))
            .with_failure_detection(Some(400 * MILLIS));
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

    #[test]
    fn observation_reaches_every_shard() {
        let mut cfg = quick(2);
        cfg.base = cfg.base.observe(ObsConfig::all());
        let r = run_sharded(ProtocolChoice::clock_rsm(), &cfg);
        for (s, shard) in r.per_shard.iter().enumerate() {
            assert!(shard.metrics.is_some(), "shard {s} kept no metrics");
            assert!(
                shard.metrics_mid.is_some(),
                "shard {s} has no mid-run metrics"
            );
            assert!(!shard.spans.is_empty(), "shard {s} traced no spans");
        }
    }

    #[test]
    fn a_write_retry_is_not_a_new_write() {
        // Clients give up after 8 ms against a 10 ms round trip, so every
        // write is re-submitted under its original id at least once. The
        // session windows dedup the retries, so each shard's observer
        // replica executes every write routed to it exactly once.
        let mut cfg = quick(2);
        cfg.base = cfg
            .base
            .duration_us(600 * MILLIS)
            .client_retry_us(8 * MILLIS);
        let r = run_sharded(ProtocolChoice::clock_rsm(), &cfg);
        assert!(r.all_ok(), "{:?}", r.aggregate.checks.violation);
        for (s, (shard, counters)) in r.per_shard.iter().zip(&r.counters).enumerate() {
            assert!(counters.writes > 10, "shard {s} starved: {counters:?}");
            assert_eq!(
                counters.writes, shard.commit_counts[0],
                "shard {s}: write count differs from the commands its observer executed"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cas_fraction must be 0")]
    fn a_cas_mix_is_rejected_before_the_run() {
        let mut cfg = quick(2);
        cfg.base = cfg.base.cas_fraction(0.3);
        run_sharded(ProtocolChoice::clock_rsm(), &cfg);
    }

    #[test]
    #[should_panic(expected = "crash/recover faults only")]
    fn a_fault_other_than_crash_or_recover_is_rejected_before_the_run() {
        let mut cfg = quick(2);
        let (a, b) = (ReplicaId::new(0), ReplicaId::new(1));
        cfg.base = cfg.base.fault(60_000 * MILLIS, Fault::Partition(a, b));
        run_sharded(ProtocolChoice::clock_rsm(), &cfg);
    }
}
