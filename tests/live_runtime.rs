//! The threaded real-time runtime runs the same protocol cores outside
//! the simulator: spin up real replica threads with emulated WAN delays
//! and drive the replicated key-value store from multiple client threads.

use std::time::{Duration, Instant};

use clock_rsm::{ClockRsm, ClockRsmConfig};
use kvstore::{KvOp, KvStore};
use mencius::MenciusBcast;
use paxos::{MultiPaxos, PaxosVariant};
use rsm_core::wire::WireMsg;
use rsm_core::{
    ClientId, Command, CommandId, LatencyMatrix, Membership, Protocol, ReplicaId, StateMachine,
};
use rsm_runtime::{Cluster, ClusterConfig};

fn kv() -> Box<dyn StateMachine> {
    Box::new(KvStore::new())
}

/// Concurrent clients at all three sites of a live Clock-RSM cluster:
/// every write must commit, reads must observe them, and the replicas
/// must converge to identical state.
#[test]
fn clock_rsm_live_concurrent_clients() {
    let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 15_000)).scale(0.02);
    let cluster = std::sync::Arc::new(Cluster::spawn(
        cfg,
        |id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
        kv,
    ));

    let mut handles = Vec::new();
    for site in 0..3u16 {
        let cluster = std::sync::Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            for k in 0..10 {
                let reply = cluster
                    .execute(
                        ReplicaId::new(site),
                        KvOp::put(format!("site{site}-key{k}"), format!("v{k}")).encode(),
                        Duration::from_secs(20),
                    )
                    .expect("commit");
                assert_eq!(reply.result[0], 1);
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }

    // Cross-site read-your-writes through the total order.
    let reply = cluster
        .execute(
            ReplicaId::new(0),
            KvOp::get("site2-key9").encode(),
            Duration::from_secs(20),
        )
        .expect("read");
    assert_eq!(&reply.result[1..], b"v9");

    // Let in-flight broadcasts drain at the laggard replicas before
    // stopping the threads (replies only prove the origin executed).
    std::thread::sleep(Duration::from_millis(300));
    let cluster = std::sync::Arc::try_unwrap(cluster)
        .ok()
        .expect("sole owner");
    let reports = cluster.shutdown();
    assert!(reports.windows(2).all(|w| w[0].snapshot == w[1].snapshot));
    // 31 commands total (30 writes + 1 read), executed by every replica.
    assert!(reports.iter().all(|r| r.commit_count == 31));
}

/// The same live harness runs the baselines unchanged.
#[test]
fn baselines_live_smoke() {
    // Paxos-bcast.
    let cluster = Cluster::spawn(
        ClusterConfig::new(LatencyMatrix::uniform(3, 8_000)).scale(0.02),
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
    for i in 0..5 {
        cluster
            .execute(
                ReplicaId::new(i % 3),
                KvOp::put(format!("k{i}"), "v").encode(),
                Duration::from_secs(10),
            )
            .expect("paxos commit");
    }
    std::thread::sleep(Duration::from_millis(300));
    let reports = cluster.shutdown();
    assert!(reports.windows(2).all(|w| w[0].snapshot == w[1].snapshot));

    // Mencius-bcast.
    let cluster = Cluster::spawn(
        ClusterConfig::new(LatencyMatrix::uniform(3, 8_000)).scale(0.02),
        |id| MenciusBcast::new(id, Membership::uniform(3)),
        kv,
    );
    for i in 0..5 {
        cluster
            .execute(
                ReplicaId::new(i % 3),
                KvOp::put(format!("m{i}"), "v").encode(),
                Duration::from_secs(10),
            )
            .expect("mencius commit");
    }
    std::thread::sleep(Duration::from_millis(300));
    let reports = cluster.shutdown();
    assert!(reports.windows(2).all(|w| w[0].snapshot == w[1].snapshot));
}

/// Loose synchrony in real time: replicas with ±40 ms clock offsets (far
/// beyond the emulated one-way delay) still commit and converge.
#[test]
fn live_cluster_with_skewed_clocks() {
    let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000))
        .scale(0.02)
        .clock_offset_us(0, 40_000)
        .clock_offset_us(1, -40_000);
    let cluster = Cluster::spawn(
        cfg,
        |id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
        kv,
    );
    for i in 0..6u16 {
        let reply = cluster
            .execute(
                ReplicaId::new(i % 3),
                KvOp::put(format!("sk{i}"), "v").encode(),
                Duration::from_secs(30),
            )
            .expect("commit despite skew");
        assert_eq!(reply.result[0], 1);
    }
    std::thread::sleep(Duration::from_millis(300));
    let reports = cluster.shutdown();
    assert!(reports.windows(2).all(|w| w[0].snapshot == w[1].snapshot));
}

/// Three sites with one slow pair, one-way: 0–1 and 0–2 are 1 ms apart,
/// 1–2 are 12 ms. Every other live test runs a uniform matrix, where all
/// links share one delay and a cross-link mistake in a receiver's
/// due-time heap (or a delay read from the wrong link) cannot show.
fn slow_pair() -> LatencyMatrix {
    LatencyMatrix::from_one_way_micros(vec![
        vec![0, 1_000, 1_000],
        vec![1_000, 0, 12_000],
        vec![1_000, 12_000, 0],
    ])
}

/// A fire-and-forget burst of writes at every site of a live cluster on
/// the [`slow_pair`] matrix (unscaled), then `probe`, then the grade:
/// identical snapshots and the exact commit count on every replica.
/// `probe` returns how many writes it committed.
fn burst_on_the_slow_pair_matrix<P>(
    factory: impl FnMut(ReplicaId) -> P,
    probe: impl FnOnce(&Cluster<P>) -> u64,
) where
    P: Protocol + Send + 'static,
    P::Msg: WireMsg,
{
    const BURST: u64 = 2_000;
    let timeout = Duration::from_secs(60);
    let matrix = slow_pair();
    let sites = || matrix.replicas();
    let cluster = Cluster::spawn(ClusterConfig::new(matrix.clone()), factory, kv);
    for seq in 1..=BURST {
        for site in sites() {
            let id = CommandId::new(ClientId::new(site, 99), seq);
            let put = KvOp::put(
                format!("s{}-k{}", site.as_u16(), seq % 64),
                format!("{seq}"),
            );
            cluster.submit(site, Command::new(id, put.encode()));
        }
    }
    // One blocking write per site, behind that site's burst in its inbox:
    // every protocol orders a site's own commands in submission order, so
    // the reply proves the whole burst of that site is committed.
    for site in sites() {
        let fence = KvOp::put(format!("fence{}", site.as_u16()), "v");
        let reply = cluster.execute(site, fence.encode(), timeout);
        assert_eq!(reply.expect("fence write").result[0], 1);
    }
    let probed = probe(&cluster);
    // One linearizable read per site: it must observe every write
    // acknowledged above, so a reply proves that site has executed them
    // all — nothing trails into `shutdown`.
    for site in sites() {
        let reply = cluster.read(site, KvOp::get("fence2").encode(), timeout);
        assert_eq!(&reply.expect("fence read").result[..], b"\x01v");
    }
    let reports = cluster.shutdown();
    assert!(reports.windows(2).all(|w| w[0].snapshot == w[1].snapshot));
    for r in &reports {
        assert_eq!(r.commit_count, 3 * BURST + 3 + probed, "replica {:?}", r.id);
    }
}

/// Clock-RSM on the asymmetric matrix, plus the latency floor: with the
/// runtime's shared clock epoch a lone write at site `i` cannot commit
/// before `max(2·median_k d(i,k), max_k d(i,k))` — a majority round trip,
/// and a later-stamped message from the farthest replica. A delay
/// applied short, or taken from the wrong link, lands under it.
#[test]
fn clock_rsm_live_on_an_asymmetric_matrix() {
    burst_on_the_slow_pair_matrix(
        |id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
        |cluster| {
            let matrix = slow_pair();
            for site in matrix.replicas() {
                let floor = analysis::model::clock_rsm_imbalanced(&matrix, site);
                let put = KvOp::put(format!("lone{}", site.as_u16()), "v").encode();
                let started = Instant::now();
                cluster
                    .execute(site, put, Duration::from_secs(60))
                    .expect("lone write");
                let took = started.elapsed();
                assert!(
                    took >= Duration::from_micros(floor),
                    "site {site:?}: {took:?} beats the {floor} us floor"
                );
            }
            3
        },
    );
}

#[test]
fn paxos_bcast_live_on_an_asymmetric_matrix() {
    // The leader sits on the slow pair, so its accepts cross it.
    let leader = ReplicaId::new(1);
    burst_on_the_slow_pair_matrix(
        |id| MultiPaxos::new(id, Membership::uniform(3), leader, PaxosVariant::Bcast),
        |_| 0,
    );
}

#[test]
fn mencius_bcast_live_on_an_asymmetric_matrix() {
    burst_on_the_slow_pair_matrix(|id| MenciusBcast::new(id, Membership::uniform(3)), |_| 0);
}

/// A cluster is its replica threads: nothing stands between a replica
/// and the caller it answers. Threads are named, so the kernel's own
/// listing says who is running while a blocking call is in flight.
#[cfg(target_os = "linux")]
#[test]
fn an_in_process_cluster_runs_no_thread_but_its_replicas() {
    let cluster = Cluster::spawn(
        ClusterConfig::new(LatencyMatrix::uniform(3, 50_000)),
        |id| ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default()),
        kv,
    );
    let put = || {
        cluster.execute(
            ReplicaId::new(0),
            KvOp::put("k", "v").encode(),
            Duration::from_secs(20),
        )
    };
    // A commit needs every replica: after one, each thread has named
    // itself (a new thread shows its parent's name until it does).
    put().expect("commit");
    let names = std::thread::scope(|s| {
        // ~100 ms on this matrix: the listing below is taken mid-call.
        let call = s.spawn(put);
        let names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .expect("task directory")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|comm| comm.trim().to_string())
            .collect();
        call.join().expect("caller thread").expect("commit");
        names
    });
    cluster.shutdown();
    for replica in ["replica-0", "replica-1", "replica-2"] {
        assert!(
            names.iter().any(|n| n == replica),
            "{replica} not in {names:?}"
        );
    }
    // Every other thread of this process belongs to the test harness
    // (one per test running beside this one, named after it) or to a
    // neighbour's cluster — which has only replicas too.
    let helpers: Vec<&String> = names
        .iter()
        .filter(|n| n.contains("router") || n.contains("wan-emulator"))
        .collect();
    assert!(helpers.is_empty(), "helper threads running: {helpers:?}");
}
