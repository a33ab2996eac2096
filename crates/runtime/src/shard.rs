//! Sharded front-end: one live [`Cluster`] per keyspace shard.
//!
//! A [`ShardedCluster`] spawns `N` independent replication groups — each
//! a full [`Cluster`] with its own replica threads, message plane and
//! batching — and routes single-key commands through an
//! [`rsm_shard::ShardMap`]. All groups share one clock **epoch**
//! ([`ClusterConfig::epoch`]): every replica clock reads microseconds
//! since the same instant (plus its configured offset), which makes the
//! Clock-RSM commit timestamps of different shards mutually comparable.
//!
//! That shared domain is what [`ShardedCluster::snapshot_read`] builds
//! on: it picks one cut timestamp `t` slightly in the future, issues one
//! pinned single-key `Get` per touched shard, and assembles the replies
//! into the global state at cut `t` (see the `rsm-shard` crate docs for
//! the invariant and why it is Clock-RSM-only). Under Paxos or Mencius
//! groups the pin is ignored and the same call degrades to independent
//! per-shard linearizable reads — no single cut across shards is
//! claimed.
//!
//! Reads (plain and snapshot parts) can be routed to a fixed replica via
//! [`ShardedCluster::route_reads_to`] — under Paxos that is the leader,
//! whose lease lets it answer locally instead of probing a quorum.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;

use rsm_core::command::{CommandId, Reply};
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::protocol::Protocol;
use rsm_core::sm::StateMachine;
use rsm_shard::{
    HashShardMap, ShardAccounting, ShardCounters, ShardMap, SnapshotCoordinator, SnapshotResult,
};

use crate::cluster::{Cluster, ClusterConfig, ExecuteError};
use crate::node::NodeReport;

/// The client number snapshot-part command ids are minted under; each
/// shard's own [`Cluster`] mints its ids under client number 0, so the
/// two spaces never collide.
const SNAPSHOT_CLIENT: u32 = 7;

/// `N` independent replication groups over one partitioned key space,
/// sharing a single clock domain.
pub struct ShardedCluster<P: Protocol + Send + 'static> {
    shards: Vec<Cluster<P>>,
    map: Box<dyn ShardMap + Send + Sync>,
    epoch: Instant,
    snapshot_lead: Duration,
    read_leader: Option<ReplicaId>,
    part_seq: AtomicU64,
    accounting: ShardAccounting,
}

impl<P: Protocol + Send + 'static> ShardedCluster<P> {
    /// Spawns `shards` independent clusters over the same topology
    /// (`cfg` is cloned per shard), all sharing one clock epoch. The
    /// factory receives `(shard, replica)` so each group gets its own
    /// protocol instances; keys are hash-partitioned by default
    /// ([`with_map`](Self::with_map) swaps the placement).
    pub fn spawn(
        cfg: ClusterConfig,
        shards: usize,
        mut factory: impl FnMut(usize, ReplicaId) -> P,
        sm_factory: impl Fn() -> Box<dyn StateMachine>,
    ) -> Self
    where
        P::Msg: rsm_core::wire::WireMsg,
    {
        assert!(shards > 0, "a sharded cluster needs at least one shard");
        let epoch = Instant::now();
        let mut groups = Vec::with_capacity(shards);
        for s in 0..shards {
            groups.push(Cluster::spawn(
                cfg.clone().epoch(epoch),
                |id| factory(s, id),
                &sm_factory,
            ));
        }
        ShardedCluster {
            shards: groups,
            map: Box::new(HashShardMap::new(shards)),
            epoch,
            snapshot_lead: Duration::from_millis(20),
            read_leader: None,
            part_seq: AtomicU64::new(0),
            accounting: ShardAccounting::new(shards),
        }
    }

    /// Replaces the key placement (e.g. an
    /// [`rsm_shard::RangeShardMap`]). Panics if the map's shard count
    /// differs from the cluster's.
    pub fn with_map(mut self, map: Box<dyn ShardMap + Send + Sync>) -> Self {
        assert_eq!(
            map.shards(),
            self.shards.len(),
            "shard map must cover exactly the spawned shards"
        );
        self.map = map;
        self
    }

    /// Routes every read — plain and snapshot part — to this replica
    /// instead of the caller's site. Under Paxos that is the leader:
    /// its lease lets it answer locally, where a follower would probe a
    /// quorum.
    pub fn route_reads_to(mut self, leader: ReplicaId) -> Self {
        self.read_leader = Some(leader);
        self
    }

    /// How far in the future snapshot cuts are pinned. The lead must
    /// cover the worst clock offset plus request delivery, or cuts land
    /// below already-applied state and the parts time out (the
    /// exactness guard drops them).
    pub fn snapshot_lead(mut self, lead: Duration) -> Self {
        self.snapshot_lead = lead;
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `key`.
    pub fn shard_of(&self, key: &[u8]) -> usize {
        self.map.shard_of(key)
    }

    /// Microseconds since the shared clock epoch — the domain snapshot
    /// cuts and [`Cluster::read_at`] timestamps live in.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Submits a write of `key` to its owning shard via `site` and
    /// blocks for the reply.
    ///
    /// # Errors
    ///
    /// Returns `Err(ExecuteError::Timeout)` when no reply arrives in time.
    pub fn execute(
        &self,
        site: ReplicaId,
        key: &[u8],
        payload: Bytes,
        timeout: Duration,
    ) -> Result<Reply, ExecuteError> {
        let shard = self.shard_of(key);
        self.accounting.record_write(shard);
        self.shards[shard].execute(site, payload, timeout)
    }

    /// Submits a linearizable read of `key` to its owning shard and
    /// blocks for the reply. The read lands at the configured read
    /// target ([`route_reads_to`](Self::route_reads_to)) when one is
    /// set, else at `site`.
    ///
    /// # Errors
    ///
    /// Returns `Err(ExecuteError::Timeout)` when no reply arrives in time.
    pub fn read(
        &self,
        site: ReplicaId,
        key: &[u8],
        payload: Bytes,
        timeout: Duration,
    ) -> Result<Reply, ExecuteError> {
        let shard = self.shard_of(key);
        self.accounting.record_read(shard);
        let target = self.read_leader.unwrap_or(site);
        self.shards[shard].read(target, payload, timeout)
    }

    /// A multi-key read across shards: under Clock-RSM groups, a
    /// timestamp-consistent snapshot at one cut `t` (every value is the
    /// last write with commit timestamp `≤ t`); under Paxos/Mencius
    /// groups, the honest fallback of independent per-shard
    /// linearizable reads.
    ///
    /// The parts run sequentially — each blocks until its shard's
    /// stable timestamp passes the cut — so one call costs roughly the
    /// snapshot lead plus one read round-trip.
    ///
    /// # Errors
    ///
    /// Returns `Err(ExecuteError::Timeout)` when any part misses the
    /// deadline — including when a shard's applied state overtook the
    /// cut (an exact answer is no longer possible there). Retry the
    /// whole snapshot: the coordinator never reuses a cut, so a fresh
    /// call picks a fresh `t`.
    pub fn snapshot_read(
        &self,
        site: ReplicaId,
        keys: Vec<Bytes>,
        timeout: Duration,
    ) -> Result<SnapshotResult, ExecuteError> {
        let deadline = Instant::now() + timeout;
        let tagged: Vec<(usize, Bytes)> = keys
            .into_iter()
            .map(|k| (self.map.shard_of(&k), k))
            .collect();
        let issued = self.now_us();
        let at = issued + self.snapshot_lead.as_micros() as u64;
        let mut coord = SnapshotCoordinator::new();
        let (_token, cmds) = coord.begin(tagged, at, issued, || {
            let seq = self.part_seq.fetch_add(1, Ordering::Relaxed) + 1;
            CommandId::new(ClientId::new(site, SNAPSHOT_CLIENT), seq)
        });
        let target = self.read_leader.unwrap_or(site);
        let mut assembled = None;
        let shards: Vec<usize> = cmds.iter().map(|(s, _)| *s).collect();
        for (shard, cmd) in cmds {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let reply = self.shards[shard].execute_command(target, cmd, remaining)?;
            assembled = coord.on_reply(reply.id, &reply.result, self.now_us());
        }
        self.accounting.record_snapshot(&shards);
        Ok(assembled.expect("every part answered"))
    }

    /// Convenience wrapper over [`snapshot_read`](Self::snapshot_read)
    /// for the replicated key-value store: encodes each key as a `Get`
    /// and returns the per-key values at the cut (`None` = absent).
    ///
    /// # Errors
    ///
    /// Returns `Err(ExecuteError::Timeout)` as `snapshot_read` does.
    pub fn snapshot_get(
        &self,
        site: ReplicaId,
        keys: &[&[u8]],
        timeout: Duration,
    ) -> Result<Vec<Option<Bytes>>, ExecuteError> {
        let keys: Vec<Bytes> = keys.iter().map(|k| Bytes::copy_from_slice(k)).collect();
        let snap = self.snapshot_read(site, keys, timeout)?;
        Ok(snap.values)
    }

    /// The per-shard and aggregate operation tallies so far.
    pub fn accounting(&self) -> (Vec<ShardCounters>, ShardCounters) {
        (self.accounting.per_shard(), self.accounting.aggregate())
    }

    /// Stops every shard's replica threads and returns their final
    /// reports, one `Vec<NodeReport>` per shard.
    pub fn shutdown(self) -> Vec<Vec<NodeReport>> {
        self.shards.into_iter().map(Cluster::shutdown).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clock_rsm::{ClockRsm, ClockRsmConfig};
    use kvstore::{KvOp, KvStore};
    use mencius::MenciusBcast;
    use paxos::{MultiPaxos, PaxosVariant};
    use rsm_core::config::Membership;
    use rsm_core::matrix::LatencyMatrix;
    use rsm_shard::RangeShardMap;

    fn kv() -> Box<dyn StateMachine> {
        Box::new(KvStore::new())
    }

    fn quick_cfg() -> ClusterConfig {
        ClusterConfig::new(LatencyMatrix::uniform(3, 10_000)).scale(0.02)
    }

    const WAIT: Duration = Duration::from_secs(10);

    #[test]
    fn sharded_clock_rsm_routes_writes_and_snapshots_consistently() {
        let sc = ShardedCluster::spawn(
            quick_cfg(),
            2,
            |_, id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
            kv,
        );
        for i in 0..8u32 {
            let key = format!("k{i}");
            let reply = sc
                .execute(
                    ReplicaId::new((i % 3) as u16),
                    key.as_bytes(),
                    KvOp::put(key.clone(), format!("v{i}")).encode(),
                    WAIT,
                )
                .expect("write commits");
            assert_eq!(reply.result[0], 1);
        }
        // Single-key read routed by key, through another site.
        let reply = sc
            .read(ReplicaId::new(1), b"k3", KvOp::get("k3").encode(), WAIT)
            .expect("routed read");
        assert_eq!(&reply.result[..], b"\x01v3");
        // Cross-shard snapshot: every completed write is below the cut
        // (the cut is minted after their replies), so all must appear.
        let keys: Vec<&[u8]> = vec![
            b"k0", b"k1", b"k2", b"k3", b"k4", b"k5", b"k6", b"k7", b"ghost",
        ];
        let values = sc
            .snapshot_get(ReplicaId::new(0), &keys, WAIT)
            .expect("snapshot assembles");
        for (i, v) in values.iter().enumerate().take(8) {
            assert_eq!(
                v.as_deref(),
                Some(format!("v{i}").as_bytes()),
                "key k{i} missing from the cut"
            );
        }
        assert!(values[8].is_none(), "never-written key must be absent");
        let (per, agg) = sc.accounting();
        assert_eq!(agg.writes, 8);
        assert_eq!(agg.reads, 1);
        assert_eq!(agg.snapshot_parts, 9);
        assert_eq!(per.len(), 2);
        let reports = sc.shutdown();
        assert_eq!(reports.len(), 2);
        // Within each shard all replicas converge (reads don't mutate).
        for shard in &reports {
            assert!(shard.windows(2).all(|w| w[0].snapshot == w[1].snapshot));
        }
    }

    #[test]
    fn range_partitioned_runtime_routes_contiguous_blocks() {
        let map = RangeShardMap::uniform_u64(1_000, 2);
        let sc = ShardedCluster::spawn(
            quick_cfg(),
            2,
            |_, id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
            kv,
        )
        .with_map(Box::new(map));
        // u64 big-endian keys: low half on shard 0, high half on shard 1.
        let lo = 10u64.to_be_bytes();
        let hi = 900u64.to_be_bytes();
        assert_eq!(sc.shard_of(&lo), 0);
        assert_eq!(sc.shard_of(&hi), 1);
        for key in [lo, hi] {
            let reply = sc
                .execute(
                    ReplicaId::new(0),
                    &key,
                    KvOp::put(Bytes::copy_from_slice(&key), "v").encode(),
                    WAIT,
                )
                .expect("write commits");
            assert_eq!(reply.result[0], 1);
        }
        let values = sc
            .snapshot_get(ReplicaId::new(2), &[&lo, &hi], WAIT)
            .expect("snapshot assembles");
        assert!(values.iter().all(|v| v.as_deref() == Some(b"v".as_ref())));
        sc.shutdown();
    }

    #[test]
    fn paxos_shards_fall_back_to_leader_routed_reads() {
        // Paxos groups: reads (and snapshot parts) routed to the leader,
        // whose lease answers locally. The multi-key read is the honest
        // fallback — per-shard linearizable, no cross-shard cut claimed.
        let sc = ShardedCluster::spawn(
            quick_cfg(),
            2,
            |_, id| {
                MultiPaxos::new(
                    id,
                    Membership::uniform(3),
                    ReplicaId::new(0),
                    PaxosVariant::Bcast,
                )
            },
            kv,
        )
        .route_reads_to(ReplicaId::new(0));
        sc.execute(
            ReplicaId::new(1),
            b"pa",
            KvOp::put("pa", "1").encode(),
            WAIT,
        )
        .expect("write commits");
        sc.execute(
            ReplicaId::new(2),
            b"pb",
            KvOp::put("pb", "2").encode(),
            WAIT,
        )
        .expect("write commits");
        // Issued from a follower site but served by the leader.
        let reply = sc
            .read(ReplicaId::new(2), b"pa", KvOp::get("pa").encode(), WAIT)
            .expect("leader-routed read");
        assert_eq!(&reply.result[..], b"\x011");
        let values = sc
            .snapshot_get(ReplicaId::new(1), &[b"pa", b"pb"], WAIT)
            .expect("fallback multi-read");
        assert_eq!(values[0].as_deref(), Some(b"1".as_ref()));
        assert_eq!(values[1].as_deref(), Some(b"2".as_ref()));
        sc.shutdown();
    }

    #[test]
    fn mencius_shards_serve_the_fallback_multi_read() {
        let sc = ShardedCluster::spawn(
            quick_cfg(),
            2,
            |_, id| MenciusBcast::new(id, Membership::uniform(3)),
            kv,
        );
        sc.execute(
            ReplicaId::new(0),
            b"ma",
            KvOp::put("ma", "x").encode(),
            WAIT,
        )
        .expect("write commits");
        let values = sc
            .snapshot_get(ReplicaId::new(1), &[b"ma", b"mz"], WAIT)
            .expect("fallback multi-read");
        assert_eq!(values[0].as_deref(), Some(b"x".as_ref()));
        assert!(values[1].is_none());
        sc.shutdown();
    }
}
