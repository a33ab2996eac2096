//! Exactly-once client sessions end to end: retried commands reuse
//! their id, replicas dedup at execution time (`rsm_core::session`),
//! and a duplicate that already applied comes back with the CACHED
//! original reply instead of running the state machine again.
//!
//! The observable is a compare-and-swap: `CAS(k, None, "1")` answers
//! `[1]` exactly once under at-most-once execution, so a duplicate that
//! re-executed would answer `[0]` (the key now holds `"1"`). Every test
//! here rides that asymmetry — through the deterministic simulator
//! (deliberate duplicates, crash/retry chains on all three protocols)
//! and through the threaded runtime (`ClusterSession` retries over both
//! the in-process plane and real loopback TCP, window eviction, and
//! admission-control rejection).

use std::marker::PhantomData;
use std::time::Duration;

use bytes::Bytes;
use clock_rsm::{ClockRsm, ClockRsmConfig};
use kvstore::{KvOp, KvStore};
use mencius::MenciusBcast;
use paxos::{MultiPaxos, PaxosVariant};
use rsm_core::command::{Command, CommandId, Reply};
use rsm_core::exec::ReadFront;
use rsm_core::id::{ClientId, ReplicaId};
use rsm_core::protocol::Protocol;
use rsm_core::time::MILLIS;
use rsm_core::wire::WireMsg;
use rsm_core::{LatencyMatrix, LeaseConfig, Membership, StateMachine};
use rsm_runtime::{Cluster, ClusterConfig, ClusterTransport, ExecuteError};
use simnet::sim::{Application, SimApi};
use simnet::{SimConfig, Simulation};

fn kv() -> Box<dyn StateMachine> {
    Box::new(KvStore::new())
}

const CLIENT: u32 = 9;

// ---------------------------------------------------------------------
// Simulator: deliberate duplicates of one committed command.
// ---------------------------------------------------------------------

/// Submits one CAS, then re-submits the IDENTICAL command twice more on
/// a timer — a client whose replies keep getting lost. Every reply must
/// be the cached original `[1]`.
struct DupApp<P> {
    site: ReplicaId,
    cmd: Option<Command>,
    replies: Vec<Reply>,
    _p: PhantomData<fn() -> P>,
}

impl<P: Protocol> DupApp<P> {
    fn new(site: u16) -> Self {
        DupApp {
            site: ReplicaId::new(site),
            cmd: None,
            replies: Vec::new(),
            _p: PhantomData,
        }
    }
}

impl<P: Protocol> Application<P> for DupApp<P> {
    fn on_init(&mut self, api: &mut SimApi<'_, P>) {
        let id = CommandId::new(ClientId::new(self.site, CLIENT), 1);
        let cmd = Command::new(id, KvOp::cas("dup", None, "1").encode());
        self.cmd = Some(cmd.clone());
        api.submit(self.site, cmd);
        api.schedule(1_000 * MILLIS, 1);
        api.schedule(2_000 * MILLIS, 2);
    }

    fn on_event(&mut self, _key: u64, api: &mut SimApi<'_, P>) {
        // Deliberate duplicate: same id, same payload.
        let cmd = self.cmd.clone().expect("initialised");
        api.submit(self.site, cmd);
    }

    fn on_reply(&mut self, _client: ClientId, reply: Reply, _api: &mut SimApi<'_, P>) {
        self.replies.push(reply);
    }
}

fn duplicates_are_deduped<P: Protocol>(factory: impl FnMut(ReplicaId) -> P + 'static) {
    let cfg = SimConfig::new(LatencyMatrix::uniform(3, 15_000)).seed(7);
    let mut sim = Simulation::new(cfg, factory, || Box::new(KvStore::new()), DupApp::new(0));
    sim.run_until(4_000 * MILLIS);

    let replies = &sim.app().replies;
    assert!(
        replies.len() >= 2,
        "expected the duplicate submissions to draw replies, got {}",
        replies.len()
    );
    for (i, r) in replies.iter().enumerate() {
        assert_eq!(
            r.result,
            Bytes::from_static(&[1]),
            "reply {i} was not the cached original: a duplicate re-executed"
        );
    }
    // The state machine ran the command ONCE per replica: the duplicate
    // never reached `apply`, only the session table.
    let dup_id = CommandId::new(ClientId::new(ReplicaId::new(0), CLIENT), 1);
    for r in 0..3u16 {
        let applied = sim
            .commits(ReplicaId::new(r))
            .iter()
            .filter(|c| c.cmd_id == dup_id)
            .count();
        assert_eq!(
            applied, 1,
            "replica {r} applied the command {applied} times"
        );
    }
    for r in 1..3u16 {
        assert_eq!(
            sim.snapshot(ReplicaId::new(r)),
            sim.snapshot(ReplicaId::new(0)),
            "replica {r} diverged"
        );
    }
}

#[test]
fn duplicate_submission_is_deduped_on_clock_rsm() {
    duplicates_are_deduped(|id| {
        ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default())
    });
}

#[test]
fn duplicate_submission_is_deduped_on_paxos_bcast() {
    duplicates_are_deduped(|id| {
        MultiPaxos::new(
            id,
            Membership::uniform(3),
            ReplicaId::new(0),
            PaxosVariant::Bcast,
        )
    });
}

#[test]
fn duplicate_submission_is_deduped_on_mencius() {
    duplicates_are_deduped(|id| MenciusBcast::new(id, Membership::uniform(3)));
}

// ---------------------------------------------------------------------
// Simulator: a same-id retry chain across a crash.
// ---------------------------------------------------------------------

/// A closed-loop CAS-chain client that retries with the SAME command id
/// when no reply arrives in time. Under the session subsystem every
/// reply the client accepts must be a success: a retry of an attempt
/// that secretly committed is answered from the cache, never
/// re-executed, so the chain can no longer observe a failed CAS.
struct ChainApp<P> {
    site: ReplicaId,
    seq: u64,
    confirmed: u64,
    pending: Option<Command>,
    failure: Option<String>,
    stop_at: u64,
    _p: PhantomData<fn() -> P>,
}

const RETRY_KEY: u64 = 1 << 40;

impl<P: Protocol> ChainApp<P> {
    fn new(site: u16, stop_at: u64) -> Self {
        ChainApp {
            site: ReplicaId::new(site),
            seq: 0,
            confirmed: 0,
            pending: None,
            failure: None,
            stop_at,
            _p: PhantomData,
        }
    }

    fn issue(&mut self, api: &mut SimApi<'_, P>) {
        if api.now() >= self.stop_at {
            return;
        }
        self.seq += 1;
        let expect = if self.confirmed == 0 {
            None
        } else {
            Some(Bytes::from(self.confirmed.to_string()))
        };
        let op = KvOp::cas("chain", expect, (self.confirmed + 1).to_string());
        let id = CommandId::new(ClientId::new(self.site, CLIENT), self.seq);
        let cmd = Command::new(id, op.encode());
        self.pending = Some(cmd.clone());
        api.submit(self.site, cmd);
        api.schedule(1_500 * MILLIS, RETRY_KEY | self.seq);
    }
}

impl<P: Protocol> Application<P> for ChainApp<P> {
    fn on_init(&mut self, api: &mut SimApi<'_, P>) {
        self.issue(api);
    }

    fn on_event(&mut self, key: u64, api: &mut SimApi<'_, P>) {
        if key & RETRY_KEY == 0 || key & !RETRY_KEY != self.seq || self.pending.is_none() {
            return; // superseded or already answered
        }
        // Same-id retry: if the lost attempt committed, the session
        // table serves the cached reply.
        let cmd = self.pending.clone().expect("checked above");
        api.submit(self.site, cmd);
        api.schedule(1_500 * MILLIS, RETRY_KEY | self.seq);
    }

    fn on_reply(&mut self, _client: ClientId, reply: Reply, api: &mut SimApi<'_, P>) {
        if reply.id.seq != self.seq || self.pending.is_none() {
            return; // duplicate reply for an already-confirmed command
        }
        if reply.result != Bytes::from_static(&[1]) {
            // With same-id retries a CAS can only fail if a duplicate
            // re-executed (or ordering broke): either way, exactly-once
            // was violated.
            self.failure = Some(format!(
                "CAS seq {} failed: duplicate execution or lost dedup window",
                self.seq
            ));
            return;
        }
        self.pending = None;
        self.confirmed += 1;
        self.issue(api);
    }
}

fn chain_survives_crash<P: Protocol>(
    factory: impl FnMut(ReplicaId) -> P + 'static,
    client_site: u16,
    victim: u16,
    recover: bool,
) {
    let cfg = SimConfig::new(LatencyMatrix::uniform(3, 15_000)).seed(11);
    let app = ChainApp::new(client_site, 10_000 * MILLIS);
    let mut sim = Simulation::new(cfg, factory, || Box::new(KvStore::new()), app);
    sim.with_api(|_, api| {
        api.crash(ReplicaId::new(victim), 2_000 * MILLIS);
        if recover {
            api.recover(ReplicaId::new(victim), 5_000 * MILLIS);
        }
    });
    sim.run_until(12_000 * MILLIS);

    assert!(sim.app().failure.is_none(), "{:?}", sim.app().failure);
    let confirmed = sim.app().confirmed;
    assert!(
        confirmed > 5,
        "chain stalled: only {confirmed} CAS ops confirmed"
    );
    // The replicated value equals the number of confirmed successes:
    // every CAS applied exactly once, crash and retries notwithstanding.
    let mut expected = KvStore::new();
    for i in 0..confirmed {
        let id = CommandId::new(ClientId::new(ReplicaId::new(client_site), CLIENT), i + 1);
        let expect = if i == 0 {
            None
        } else {
            Some(Bytes::from(i.to_string()))
        };
        expected.apply(&Command::new(
            id,
            KvOp::cas("chain", expect, (i + 1).to_string()).encode(),
        ));
    }
    let survivor = ReplicaId::new(client_site);
    assert_eq!(
        sim.snapshot(survivor),
        expected.snapshot(),
        "replicated chain value diverged from the confirmed count"
    );
}

#[test]
fn same_id_retry_chain_survives_crash_on_clock_rsm() {
    let cfg = ClockRsmConfig::default()
        .with_delta_us(Some(50 * MILLIS))
        .with_failure_detection(Some(400 * MILLIS));
    chain_survives_crash(
        move |id| ClockRsm::new(id, Membership::uniform(3), cfg),
        0,
        2,
        true,
    );
}

#[test]
fn same_id_retry_chain_survives_paxos_leader_crash() {
    chain_survives_crash(
        |id| {
            MultiPaxos::new(
                id,
                Membership::uniform(3),
                ReplicaId::new(0),
                PaxosVariant::Bcast,
            )
            .with_failover(LeaseConfig::after(300 * MILLIS))
        },
        1, // client at a survivor; its commands forward to the leader
        0, // crash the leader: the survivors must elect and dedup
        false,
    );
}

#[test]
fn same_id_retry_chain_survives_crash_on_mencius() {
    chain_survives_crash(
        |id| MenciusBcast::new(id, Membership::uniform(3)),
        0,
        2,
        true,
    );
}

// ---------------------------------------------------------------------
// Threaded runtime: ClusterSession retries, eviction, admission.
// ---------------------------------------------------------------------

/// `retry_last` on every protocol, in process: the deliberate duplicate
/// must return the CACHED original reply, and the state machine must
/// hold exactly one application of the CAS.
fn session_retry_round_trips<P>(factory: impl FnMut(ReplicaId) -> P + Send)
where
    P: Protocol + Send + 'static,
    P::Msg: WireMsg,
{
    let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000)).scale(0.02);
    let cluster = Cluster::spawn(cfg, factory, kv);
    let mut session = cluster.session(ReplicaId::new(0));

    let first = session
        .execute(KvOp::cas("k", None, "1").encode(), Duration::from_secs(10))
        .expect("initial CAS");
    assert_eq!(first.result, Bytes::from_static(&[1]));

    // Deliberate duplicate: same id, same payload, after the original
    // reply already arrived.
    let dup = session
        .retry_last(Duration::from_secs(10))
        .expect("retried CAS");
    assert_eq!(dup.id, first.id);
    assert_eq!(
        dup.result, first.result,
        "retry was re-executed instead of answered from the cache"
    );

    // Exactly-once, observed through the data: the key holds "1", so a
    // successor CAS expecting "1" succeeds.
    let next = session
        .execute(
            KvOp::cas("k", Some(Bytes::from_static(b"1")), "2").encode(),
            Duration::from_secs(10),
        )
        .expect("successor CAS");
    assert_eq!(next.result, Bytes::from_static(&[1]));
    cluster.shutdown();
}

#[test]
fn cluster_session_retry_is_deduped_on_all_protocols() {
    session_retry_round_trips(|id| {
        ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default())
    });
    session_retry_round_trips(|id| {
        MultiPaxos::new(
            id,
            Membership::uniform(3),
            ReplicaId::new(0),
            PaxosVariant::Bcast,
        )
    });
    session_retry_round_trips(|id| MenciusBcast::new(id, Membership::uniform(3)));
}

/// A Paxos leader crash with the session retrying under the SAME id
/// until the survivors elect — once in process, once over loopback TCP.
/// An attempt that committed under the dying regime and lost only its
/// reply must not double-apply when the retry lands under the new one.
fn session_retry_spans_paxos_failover(transport: ClusterTransport) {
    let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 5_000))
        .scale(0.02)
        .transport(transport)
        .retries(40, Duration::from_millis(100));
    let cluster = Cluster::spawn(
        cfg,
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
    let mut session = cluster.session(ReplicaId::new(1));

    let first = session
        .execute(KvOp::cas("fk", None, "1").encode(), Duration::from_secs(5))
        .expect("pre-crash CAS");
    assert_eq!(first.result, Bytes::from_static(&[1]));

    // Kill the leader; the session's next command retries across the
    // lease timeout and the election, same id every attempt.
    cluster.crash(ReplicaId::new(0));
    let second = session
        .execute(
            KvOp::cas("fk", Some(Bytes::from_static(b"1")), "2").encode(),
            Duration::from_secs(2),
        )
        .expect("CAS across the fail-over");
    assert_eq!(
        second.result,
        Bytes::from_static(&[1]),
        "the fail-over CAS failed: an earlier attempt was double-applied"
    );

    // The deliberate duplicate still answers from the cache under the
    // NEW regime: the session entry rode the commit to every survivor.
    let dup = session
        .retry_last(Duration::from_secs(5))
        .expect("post-failover retry");
    assert_eq!(dup.result, second.result);

    // Data-level proof of exactly-once across the whole history.
    let probe = session
        .execute(
            KvOp::cas("fk", Some(Bytes::from_static(b"2")), "3").encode(),
            Duration::from_secs(5),
        )
        .expect("probe CAS");
    assert_eq!(probe.result, Bytes::from_static(&[1]));

    std::thread::sleep(Duration::from_millis(300));
    let reports = cluster.shutdown();
    assert_eq!(
        reports[1].snapshot, reports[2].snapshot,
        "survivors diverged"
    );
}

#[test]
fn cluster_session_retry_spans_paxos_failover_in_process() {
    session_retry_spans_paxos_failover(ClusterTransport::InProcess);
}

#[test]
fn cluster_session_retry_spans_paxos_failover_over_tcp() {
    session_retry_spans_paxos_failover(ClusterTransport::Tcp);
}

/// The documented staleness contract of the bounded window: once other
/// clients evict a session entry, a late retry is no longer recognised
/// and re-executes. With `session_window = 1` a single interleaved
/// client forces the eviction deterministically; the re-executed CAS
/// then FAILS (the key already holds the value), which is exactly the
/// at-most-once-visible behaviour the contract promises for commands
/// retried beyond the window.
#[test]
fn session_window_eviction_reapplies_late_retries() {
    let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000)).scale(0.02);
    let cluster = Cluster::spawn(
        cfg,
        |id| {
            let mut p = ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default());
            p.executor().set_session_window(1);
            p
        },
        kv,
    );
    let mut evicted = cluster.session(ReplicaId::new(0));
    let mut other = cluster.session(ReplicaId::new(1));

    let first = evicted
        .execute(KvOp::cas("ek", None, "1").encode(), Duration::from_secs(10))
        .expect("initial CAS");
    assert_eq!(first.result, Bytes::from_static(&[1]));

    // A second client's commit evicts the first session's entry from
    // the size-1 window at every replica.
    other
        .execute(KvOp::put("other", "x").encode(), Duration::from_secs(10))
        .expect("evicting write");

    // The late retry is past the window: it re-executes, and the CAS
    // now fails against the already-written value.
    let stale = evicted
        .retry_last(Duration::from_secs(10))
        .expect("late retry");
    assert_eq!(
        stale.result,
        Bytes::from_static(&[0]),
        "a size-1 window cannot still be caching the evicted reply"
    );
    cluster.shutdown();
}

/// Admission control: with full-scale WAN delays over TCP, outbound
/// frames sit in the per-peer link queues until due, so a fire-and-
/// forget burst pushes the deepest queue past a tiny high-water mark
/// and the next NEW command is rejected with `Busy` — then admitted
/// again once the queues drain.
#[test]
fn admission_control_rejects_new_commands_when_saturated() {
    let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 400_000))
        .transport(ClusterTransport::Tcp)
        .admission_high_water(8);
    let cluster = Cluster::spawn(
        cfg,
        |id| {
            ClockRsm::new(
                id,
                Membership::uniform(3),
                ClockRsmConfig::default().with_delta_us(None),
            )
        },
        kv,
    );
    // Saturate: each submit broadcasts a prepare that parks in both
    // peer queues for the 400 ms WAN delay.
    for i in 0..40u64 {
        let id = CommandId::new(ClientId::new(ReplicaId::new(0), 99), i + 1);
        cluster.submit(
            ReplicaId::new(0),
            Command::new(id, KvOp::put(format!("s{i}"), "v").encode()),
        );
    }
    // Let the node thread drain its inbox into the link queues.
    std::thread::sleep(Duration::from_millis(100));
    let err = cluster
        .execute(
            ReplicaId::new(0),
            KvOp::put("rejected", "v").encode(),
            Duration::from_secs(1),
        )
        .expect_err("the saturated replica must reject new commands");
    assert_eq!(err, ExecuteError::Busy);

    // Liveness: once the queues drain the same command is admitted.
    std::thread::sleep(Duration::from_millis(1_500));
    cluster
        .execute(
            ReplicaId::new(0),
            KvOp::put("admitted", "v").encode(),
            Duration::from_secs(20),
        )
        .expect("command after drain");
    cluster.shutdown();
}
