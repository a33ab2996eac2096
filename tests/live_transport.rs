//! Soaks over the **real TCP transport**: the fail-over and read-mix
//! scenarios that the simnet suites cover deterministically, replayed on
//! the threaded runtime with every protocol message serialized through
//! the binary wire codec onto framed loopback sockets.
//!
//! These are the cross-machine honesty checks: a codec arm that drops a
//! field, a framing bug, or a transport queue that deadlocks under a
//! silent peer all surface here and nowhere else, because the in-process
//! plane moves cloned structs and the simnet never serializes at all.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use clock_rsm::{ClockRsm, ClockRsmConfig};
use harness::lin::check_linearizable;
use harness::OpRecord;
use kvstore::{KvOp, KvStore};
use mencius::MenciusBcast;
use paxos::{MultiPaxos, PaxosVariant};
use rsm_core::protocol::Protocol;
use rsm_core::wire::WireMsg;
use rsm_core::{LatencyMatrix, LeaseConfig, Membership, ReplicaId, StateMachine};
use rsm_runtime::{Cluster, ClusterConfig, ClusterTransport};

fn kv() -> Box<dyn StateMachine> {
    Box::new(KvStore::new())
}

fn tcp_cfg(one_way_us: u64) -> ClusterConfig {
    ClusterConfig::new(LatencyMatrix::uniform(3, one_way_us))
        .scale(0.02)
        .transport(ClusterTransport::Tcp)
}

/// Retries `put` at `site` until it commits or `deadline` passes —
/// commands in flight across a leader election are simply lost and the
/// client retries, like any real client.
fn put_with_retry<P>(cluster: &Cluster<P>, site: ReplicaId, key: &str, val: &str) -> bool
where
    P: Protocol + Send + 'static,
    P::Msg: WireMsg,
{
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if cluster
            .execute(site, KvOp::put(key, val).encode(), Duration::from_secs(2))
            .is_ok()
        {
            return true;
        }
    }
    false
}

/// Paxos leader crash over TCP: the survivors' lease detectors time out
/// against a genuinely silent socket peer, elect a replacement, and the
/// cluster keeps committing — then serves linearizable reads of both the
/// pre-crash and post-crash writes.
#[test]
fn paxos_leader_failover_over_tcp() {
    let cluster = Cluster::spawn(
        tcp_cfg(5_000),
        |id| {
            MultiPaxos::new(
                id,
                Membership::uniform(3),
                ReplicaId::new(0),
                PaxosVariant::Bcast,
            )
            .with_failover(LeaseConfig::after(200_000))
        },
        kv,
    );

    // Commit through the initial leader's regime.
    for i in 0..5 {
        assert!(
            put_with_retry(&cluster, ReplicaId::new(i % 3), &format!("pre{i}"), "v"),
            "pre-crash write {i} never committed"
        );
    }

    // Kill the leader. Its sockets stay connected but go silent.
    cluster.crash(ReplicaId::new(0));

    // Survivors must elect and resume committing (retries span the
    // lease timeout + election rounds).
    for i in 0..5 {
        let site = ReplicaId::new(1 + (i % 2));
        assert!(
            put_with_retry(&cluster, site, &format!("post{i}"), "v"),
            "post-crash write {i} never committed"
        );
    }

    // Linearizable reads at both survivors observe the full history.
    for site in [ReplicaId::new(1), ReplicaId::new(2)] {
        for key in ["pre0", "post4"] {
            let reply = cluster
                .read(site, KvOp::get(key).encode(), Duration::from_secs(10))
                .expect("post-failover read");
            assert_eq!(&reply.result[..], b"\x01v", "{key} lost at {site:?}");
        }
    }

    // Let the survivors' trailing commits drain, then check convergence
    // between them (the crashed node stopped mid-history by design).
    std::thread::sleep(Duration::from_millis(300));
    let reports = cluster.shutdown();
    assert_eq!(reports[1].snapshot, reports[2].snapshot);
}

/// The socket plane's latency floor, the one `live_runtime.rs` checks in
/// process (`clock_rsm_live_on_an_asymmetric_matrix`): with the
/// runtime's shared clock epoch a lone Clock-RSM write at site `i`
/// cannot commit before `max(2·median_k d(i,k), max_k d(i,k))`. Here the
/// link writers apply the delay, so one that writes a frame before its
/// due instant lands under it. Unscaled, on one slow pair: 0–1 and 0–2
/// are 1 ms apart one way, 1–2 are 12 ms.
#[test]
fn clock_rsm_lone_writes_over_tcp_keep_the_latency_floor() {
    let matrix = LatencyMatrix::from_one_way_micros(vec![
        vec![0, 1_000, 1_000],
        vec![1_000, 0, 12_000],
        vec![1_000, 12_000, 0],
    ]);
    let cluster = Cluster::spawn(
        ClusterConfig::new(matrix.clone()).transport(ClusterTransport::Tcp),
        |id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
        kv,
    );
    for site in matrix.replicas() {
        let floor = analysis::model::clock_rsm_imbalanced(&matrix, site);
        let put = KvOp::put(format!("lone{}", site.as_u16()), "v").encode();
        let started = Instant::now();
        cluster
            .execute(site, put, Duration::from_secs(20))
            .expect("lone write");
        let took = started.elapsed();
        assert!(
            took >= Duration::from_micros(floor),
            "site {site:?}: {took:?} over TCP beats the {floor} us floor"
        );
    }
    cluster.shutdown();
}

/// Runs `op` at `site` — a linearizable read, or a replicated write —
/// and records it on the wall clock, in microseconds since `t0`: the
/// issue time is taken before the call and the reply time after it
/// returns, so the recorded interval covers the operation's real one.
fn timed<P>(cluster: &Cluster<P>, t0: Instant, site: ReplicaId, op: KvOp) -> OpRecord
where
    P: Protocol + Send + 'static,
    P::Msg: WireMsg,
{
    let read = matches!(op, KvOp::Get { .. });
    let payload = op.encode();
    let issued = t0.elapsed().as_micros() as u64;
    let timeout = Duration::from_secs(10);
    let reply = if read {
        cluster.read(site, payload.clone(), timeout)
    } else {
        cluster.execute(site, payload.clone(), timeout)
    }
    .unwrap_or_else(|e| panic!("{op:?} at {site:?}: {e:?}"));
    OpRecord {
        cmd_id: reply.id,
        issued,
        replied: Some(t0.elapsed().as_micros() as u64),
        payload,
        result: Some(reply.result),
        read_only: read,
    }
}

/// A 90/10-style read-mix soak over TCP for one protocol: per-site
/// writer threads bump a per-site version key while reader threads at
/// *other* sites issue linearizable reads of it, then every site reads
/// every key once more. Every operation is recorded, and the history is
/// graded by `check_linearizable` — a stale read that slipped past the
/// probe/lease machinery, or a codec bug that scrambled a mark, fails it.
fn read_mix_over_tcp<P>(name: &str, factory: impl FnMut(ReplicaId) -> P + Send)
where
    P: Protocol + Send + 'static,
    P::Msg: WireMsg,
{
    let cluster = Arc::new(Cluster::spawn(tcp_cfg(3_000), factory, kv));
    let t0 = Instant::now();
    let writes_done = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..3u16)
        .map(|site| {
            // Writer: versioned puts to this site's key.
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                (1..=20u64)
                    .map(|v| {
                        let put = KvOp::put(format!("w{site}"), format!("{v:06}"));
                        timed(&cluster, t0, ReplicaId::new(site), put)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let readers: Vec<_> = (0..3u16)
        .map(|site| {
            // Reader: linearizable reads of the *next* site's key.
            let cluster = Arc::clone(&cluster);
            let writes_done = Arc::clone(&writes_done);
            let target = (site + 1) % 3;
            std::thread::spawn(move || {
                let mut ops = Vec::new();
                while !writes_done.load(Ordering::SeqCst) {
                    let get = KvOp::get(format!("w{target}"));
                    ops.push(timed(&cluster, t0, ReplicaId::new(site), get));
                }
                ops
            })
        })
        .collect();

    // Writers finish first; then release the readers.
    let mut ops = Vec::new();
    for w in writers {
        ops.extend(
            w.join()
                .unwrap_or_else(|_| panic!("{name} writer panicked")),
        );
    }
    writes_done.store(true, Ordering::SeqCst);
    for r in readers {
        ops.extend(
            r.join()
                .unwrap_or_else(|_| panic!("{name} reader panicked")),
        );
    }
    // Final reads of every key at every site: after the last write
    // replied, each must see it.
    for site in 0..3u16 {
        for target in 0..3u16 {
            let get = KvOp::get(format!("w{target}"));
            ops.push(timed(&cluster, t0, ReplicaId::new(site), get));
        }
    }

    let cluster = Arc::try_unwrap(cluster).ok().expect("sole owner");
    cluster.shutdown();
    if let Err(e) = check_linearizable(&ops) {
        panic!("{name}: {e}");
    }
}

#[test]
fn clock_rsm_read_mix_over_tcp() {
    read_mix_over_tcp("Clock-RSM", |id| {
        ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default())
    });
}

#[test]
fn paxos_read_mix_over_tcp() {
    read_mix_over_tcp("Paxos", |id| {
        MultiPaxos::new(
            id,
            Membership::uniform(3),
            ReplicaId::new(0),
            PaxosVariant::Bcast,
        )
    });
}

#[test]
fn mencius_read_mix_over_tcp() {
    read_mix_over_tcp("Mencius-bcast", |id| {
        MenciusBcast::new(id, Membership::uniform(3))
    });
}
