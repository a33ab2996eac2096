//! Read-mix acceptance suite for the linearizable read subsystem
//! (`rsm_core::read`).
//!
//! The production north star is a read-dominated workload, so the
//! headline scenario is a 90/10 mix on a geo topology with NTP-grade
//! clocks: Clock-RSM must serve linearizable reads **locally** — read
//! p50 strictly below write-commit p50 — with the linearizability
//! checker green. The rest of the suite drives the same mix through clock skew
//! (sub-millisecond and multi-second; latency may move, answers may
//! not), leader crashes, and the batching bypass regression (a `Get`
//! must never wait behind a write batch).

use clock_rsm::{ClockRsm, ClockRsmConfig};
use harness::{run_latency, ExperimentConfig, ExperimentResult, OpRecord, ProtocolChoice};
use kvstore::{KvOp, KvStore};
use rsm_core::lease::LeaseConfig;
use rsm_core::obs::names;
use rsm_core::time::{MILLIS, SECONDS};
use rsm_core::{
    BatchPolicy, ClientId, Command, CommandId, LatencyMatrix, Membership, ReplicaId, Reply,
};
use simnet::{Application, ClockModel, CpuModel, SimApi, SimConfig, Simulation};

/// A wide-area topology: 25 ms one-way between any two of three sites.
fn geo() -> LatencyMatrix {
    LatencyMatrix::uniform(3, 25_000)
}

fn geo_mix_cfg(seed: u64) -> ExperimentConfig {
    ExperimentConfig::new(geo())
        .seed(seed)
        .clients_per_site(4)
        .think_max_us(20 * MILLIS)
        .read_fraction(0.9)
        .clock(ClockModel::ntp(MILLIS))
        .warmup_us(300 * MILLIS)
        .duration_us(4_000 * MILLIS)
}

fn assert_green(r: &ExperimentResult, label: &str) {
    assert!(
        r.checks.all_ok(),
        "{label} ({}): {:?}",
        r.protocol,
        r.checks.violation
    );
    assert!(r.snapshots_agree, "{label}: {} diverged", r.protocol);
    assert!(
        r.read_count > 20,
        "{label}: {} produced only {} read samples",
        r.protocol,
        r.read_count
    );
}

/// The acceptance bar: on a geo topology with ±1 ms NTP clocks and a
/// 90/10 mix, Clock-RSM's stable-timestamp local reads must beat its
/// write commits at the median — reads pay (at most) a stable-timestamp
/// wait, writes pay the WAN replication round trip.
#[test]
fn clock_rsm_geo_read_mix_local_reads_beat_write_commits() {
    for seed in [1u64, 2] {
        let r = run_latency(ProtocolChoice::clock_rsm(), &geo_mix_cfg(seed));
        assert_green(&r, "geo 90/10");
        assert!(
            r.read_p50_ms < r.write_p50_ms,
            "seed {seed}: local-read p50 {:.2} ms not below write p50 {:.2} ms \
             ({} reads / {} writes)",
            r.read_p50_ms,
            r.write_p50_ms,
            r.read_count,
            r.write_count
        );
    }
}

/// All three protocols run the same geo mix with the linearizability
/// checker green; Paxos and Mencius quorum-path reads also undercut their write
/// commits (a local quorum round trip beats replicate-then-wait).
#[test]
fn all_protocols_geo_read_mix_is_linearizable() {
    for choice in [
        ProtocolChoice::paxos(0),
        ProtocolChoice::paxos_bcast(0),
        ProtocolChoice::mencius(),
    ] {
        let r = run_latency(choice, &geo_mix_cfg(3));
        assert_green(&r, "geo 90/10");
        assert!(
            r.read_p50_ms <= r.write_p50_ms,
            "{}: read p50 {:.2} ms above write p50 {:.2} ms",
            r.protocol,
            r.read_p50_ms,
            r.write_p50_ms
        );
    }
}

/// Clock skew may move read latency, never answers: the same mix under
/// sub-millisecond and multi-second skew bounds stays green for every
/// protocol. (For Clock-RSM the skew inflates the stable-timestamp
/// wait; Paxos leases only get *more* conservative; the quorum paths
/// never consult a clock.)
#[test]
fn read_mix_is_correct_under_sub_ms_and_multi_second_skew() {
    for bound in [500, 2 * SECONDS] {
        for choice in [
            ProtocolChoice::clock_rsm(),
            ProtocolChoice::paxos_bcast(0),
            ProtocolChoice::mencius(),
        ] {
            let cfg = geo_mix_cfg(7).clock(ClockModel::ntp(bound));
            let r = run_latency(choice, &cfg);
            assert_green(&r, &format!("skew ±{bound}us"));
        }
    }
}

/// Reads during a leader crash and election: the deposed regime must
/// never leak a stale value, and reads keep flowing once the
/// replacement is elected. Clock-RSM rides the same schedule through
/// its reconfiguration protocol; Mencius through recovery + gap fill.
#[test]
fn read_mix_survives_leader_crash_schedules() {
    let crash_at = 1_500 * MILLIS;
    let recover_at = 5_000 * MILLIS;
    let base = || {
        ExperimentConfig::new(LatencyMatrix::uniform(3, 20_000))
            .seed(11)
            .clients_per_site(3)
            .think_max_us(30 * MILLIS)
            .read_fraction(0.5)
            .active_sites(vec![0])
            .warmup_us(100 * MILLIS)
            .duration_us(9_000 * MILLIS)
            .client_retry_us(1_500 * MILLIS)
    };
    // Paxos: the initial leader (replica 1) crashes mid-mix; the lease
    // expires, a replacement is elected, reads and writes resume.
    for choice in [
        ProtocolChoice::paxos_failover(1, LeaseConfig::after(400 * MILLIS)),
        ProtocolChoice::paxos_bcast_failover(1, LeaseConfig::after(400 * MILLIS)),
    ] {
        let cfg = base().leader_crash(1, crash_at, recover_at);
        let r = run_latency(choice, &cfg);
        assert_green(&r, "paxos leader crash");
        assert!(
            r.commits_between(0, 6_000 * MILLIS, u64::MAX) > 10,
            "{}: no write progress after fail-over",
            r.protocol
        );
    }
    // Clock-RSM: same fault shape, ridden out via reconfiguration.
    let rsm_cfg = clock_rsm::ClockRsmConfig::default()
        .with_delta_us(Some(50 * MILLIS))
        .with_failure_detection(Some(400 * MILLIS));
    let cfg = base().leader_crash(1, crash_at, recover_at);
    let r = run_latency(ProtocolChoice::clock_rsm_with(rsm_cfg), &cfg);
    assert_green(&r, "clock-rsm crash");
    // Mencius: a peer crashes and rejoins; reads stay linearizable
    // through the recovery and gap-fill machinery.
    let cfg = base().leader_crash(2, crash_at, recover_at);
    let r = run_latency(ProtocolChoice::mencius(), &cfg);
    assert_green(&r, "mencius crash");
}

/// The classic deposed-leader scenario: the lease-holding leader is
/// partitioned from everyone, the survivors elect a replacement and
/// keep writing, and clients co-located with the old leader keep
/// issuing reads at it. Inside its lease window it may serve from its
/// (still current) prefix; once the lease expires its fast path closes
/// and its quorum probes go unanswered — it must park, not answer
/// stale. The linearizability checker is the judge.
#[test]
fn deposed_leader_with_expired_lease_never_serves_stale_reads() {
    let leader = 1u16;
    let cut_at = 1_500 * MILLIS;
    let heal_at = 6_000 * MILLIS;
    let mut cfg = ExperimentConfig::new(LatencyMatrix::uniform(3, 20_000))
        .seed(13)
        .clients_per_site(3)
        .think_max_us(30 * MILLIS)
        .read_fraction(0.6)
        // Clients at the surviving site AND at the leader's own site:
        // the latter are the ones a stale-serving deposed leader would
        // betray.
        .active_sites(vec![0, 1])
        .warmup_us(100 * MILLIS)
        .duration_us(10_000 * MILLIS)
        .client_retry_us(1_500 * MILLIS);
    for peer in [0u16, 2] {
        cfg = cfg
            .fault(
                cut_at,
                harness::workload::Fault::Partition(
                    rsm_core::ReplicaId::new(leader),
                    rsm_core::ReplicaId::new(peer),
                ),
            )
            .fault(
                heal_at,
                harness::workload::Fault::Heal(
                    rsm_core::ReplicaId::new(leader),
                    rsm_core::ReplicaId::new(peer),
                ),
            );
    }
    let r = run_latency(
        ProtocolChoice::paxos_bcast_failover(leader, LeaseConfig::after(400 * MILLIS)),
        &cfg,
    );
    assert_green(&r, "deposed leader partition");
    // The survivors elected a replacement and kept committing while the
    // old leader was cut off.
    assert!(
        r.commits_between(0, 3_500 * MILLIS, heal_at) > 10,
        "no progress under the replacement leader: {:?}",
        r.commit_counts
    );
}

/// Satellite regression: reads bypass `BatchPolicy` coalescing. Under
/// load, queued writes coalesce up to the cap — the read path must not
/// inherit that delay: read latency stays within range of the unbatched
/// baseline.
#[test]
fn reads_bypass_batching_under_load() {
    let run = |policy: BatchPolicy| {
        let cfg = ExperimentConfig::new(LatencyMatrix::uniform(3, 250))
            .seed(5)
            .clients_per_site(30)
            .think_max_us(0)
            .value_bytes(10)
            .read_fraction(0.9)
            .cpu(CpuModel::default())
            .batch(policy)
            .warmup_us(200 * MILLIS)
            .duration_us(1_500 * MILLIS);
        run_latency(ProtocolChoice::clock_rsm(), &cfg)
    };
    let batched = run(BatchPolicy::max(64));
    let unbatched = run(BatchPolicy::DISABLED);
    assert!(batched.checks.all_ok(), "{:?}", batched.checks.violation);
    assert!(
        batched.read_count > 100,
        "too few reads measured: {}",
        batched.read_count
    );
    // The regression being guarded: were reads coalesced, every Get
    // would ride (and wait for) the write batch it queued behind. With
    // the bypass, batching must not tax the read path at all — the
    // batched run's read latency stays within 20% of the unbatched
    // baseline, at p50 and at the tail (deterministic simulation,
    // identical seed and load shape).
    assert!(
        batched.read_p50_ms <= unbatched.read_p50_ms * 1.2,
        "batching inflated read p50: {:.2} ms vs unbatched {:.2} ms",
        batched.read_p50_ms,
        unbatched.read_p50_ms
    );
    assert!(
        batched.read_p99_ms <= unbatched.read_p99_ms * 1.2,
        "batching inflated read p99: {:.2} ms vs unbatched {:.2} ms",
        batched.read_p99_ms,
        unbatched.read_p99_ms
    );
}

// -----------------------------------------------------------------
// Demand-driven clock evidence (clock probes)
// -----------------------------------------------------------------

const DELTA_US: u64 = 5 * MILLIS;

/// An otherwise idle cluster: one client per site issuing nothing but
/// reads, far enough apart that no read overlaps another at its site.
/// Perfect clocks, so the model of `analysis::model` applies as is.
fn idle_reads_cfg(latency: LatencyMatrix) -> ExperimentConfig {
    ExperimentConfig::new(latency)
        .seed(21)
        .clients_per_site(1)
        .think_max_us(40 * MILLIS)
        .read_fraction(1.0)
        .clock(ClockModel::perfect())
        .warmup_us(200 * MILLIS)
        .duration_us(6_000 * MILLIS)
        .observe(rsm_obs::ObsConfig::all())
}

/// Sums the per-replica counter `name` over the cluster.
fn counter_sum(r: &ExperimentResult, name: &str) -> u64 {
    let m = r.metrics.as_ref().expect("the run observes");
    m.counters
        .iter()
        .filter(|(k, _)| k.split_once('.').is_some_and(|(_, rest)| rest == name))
        .map(|(_, v)| *v)
        .sum()
}

/// The client ↔ replica hops `harness` charges every operation (300 µs
/// each way by simnet's default), on top of what the protocol costs.
const CLIENT_HOPS_MS: f64 = 0.6;

/// (a) + the `analysis::model::clock_rsm_local_read` bound. On an idle
/// data-centre cluster a read costs one round trip to the slowest peer,
/// not the Δ period: p50 ≤ 2δ + client hops, well under Δ. And on every
/// matrix — uniform LAN, uniform WAN, the paper's EC2 deployments — each
/// site's measured median sits under the model's
/// `min(2·max_k d, max_k d + Δ)`; with failure detection on, under
/// `max(2·median_k d, …)`, the echo majority's round trip.
#[test]
fn idle_clock_rsm_read_costs_a_round_trip_not_a_delta_period() {
    let ec2_three = || analysis::ec2::three_site_deployment().1;
    for (label, matrix, failure_detection) in [
        ("uniform LAN", LatencyMatrix::uniform(3, 250), false),
        ("uniform WAN", geo(), false),
        ("EC2 three sites", ec2_three(), false),
        (
            "EC2 five sites",
            analysis::ec2::five_site_deployment().1,
            false,
        ),
        ("uniform WAN, failure detection on", geo(), true),
        ("EC2 three sites, failure detection on", ec2_three(), true),
    ] {
        let choice = if failure_detection {
            let fd = ClockRsmConfig::default().with_failure_detection(Some(400 * MILLIS));
            ProtocolChoice::clock_rsm_with(fd)
        } else {
            ProtocolChoice::clock_rsm()
        };
        let mut r = run_latency(choice, &idle_reads_cfg(matrix.clone()));
        assert_green(&r, label);
        for site in matrix.replicas() {
            let model_us =
                analysis::model::clock_rsm_local_read(&matrix, site, DELTA_US, failure_detection);
            let measured = r.site_stats[site.index()].p50_ms();
            assert!(
                measured <= model_us as f64 / 1e3 + CLIENT_HOPS_MS,
                "{label}, site {site}: idle read p50 {measured:.3} ms above the model's \
                 {:.3} ms",
                model_us as f64 / 1e3
            );
        }
        // Every read rode a probe of its own.
        assert!(counter_sum(&r, names::READS_PARKED) >= r.read_count as u64);
        assert!(
            counter_sum(&r, names::CLOCK_PROBES_SENT) >= matrix.len() as u64 * r.read_count as u64,
            "{label}"
        );
        if label == "uniform LAN" {
            assert!(
                r.read_p50_ms <= 2.0 * 0.25 + CLIENT_HOPS_MS + 0.05,
                "idle read p50 {:.3} ms is not one 2δ round trip",
                r.read_p50_ms
            );
            assert!(r.read_p50_ms < DELTA_US as f64 / 1e3 / 3.0);
        }
    }
}

/// (b) Across the WAN the probe cannot beat the periodic CLOCKTIME
/// (round trip 50 ms against one-way + Δ = 30 ms) — and must not hurt:
/// the geo mix's read p50 stays at one-way + Δ as before, and the probe
/// traffic is bounded per parked read (n probes, n − 1 echoes) and
/// stays a minority of all messages.
#[test]
fn clock_probes_do_not_hurt_geo_reads_and_add_bounded_traffic() {
    for seed in [1u64, 2] {
        let cfg = geo_mix_cfg(seed).observe(rsm_obs::ObsConfig::all());
        let r = run_latency(ProtocolChoice::clock_rsm(), &cfg);
        assert_green(&r, "geo 90/10 with probes");
        let one_way_plus_delta_ms = (25_000 + DELTA_US) as f64 / 1e3;
        assert!(
            r.read_p50_ms <= one_way_plus_delta_ms + CLIENT_HOPS_MS,
            "seed {seed}: geo read p50 {:.2} ms above one-way + Δ",
            r.read_p50_ms
        );
        let probe_msgs =
            counter_sum(&r, names::CLOCK_PROBES_SENT) + counter_sum(&r, names::CLOCK_ECHOES_SENT);
        let parked = counter_sum(&r, names::READS_PARKED);
        let total = counter_sum(&r, names::MSGS_SENT);
        assert!(parked > 0 && probe_msgs > 0);
        assert!(
            probe_msgs <= 5 * parked,
            "seed {seed}: {probe_msgs} probe messages for {parked} parked reads"
        );
        assert!(
            2 * probe_msgs < total,
            "seed {seed}: probes are {probe_msgs} of {total} messages"
        );
    }
}

/// One writer at site 0 and one reader at site 1, both closed-loop on a
/// single key, with site 1 cut off from both peers for a while.
struct CastawayApp {
    ops: Vec<OpRecord>,
    seqs: [u64; 2],
}

impl CastawayApp {
    const THINK_US: u64 = 5 * MILLIS;
    const CUT_AT: u64 = 1_000 * MILLIS;
    const HEAL_AT: u64 = 5_000 * MILLIS;
    const STOP_AT: u64 = 8_000 * MILLIS;

    fn issue(&mut self, site: u16, api: &mut SimApi<'_, ClockRsm>) {
        if api.now() >= Self::STOP_AT {
            return;
        }
        let site_id = ReplicaId::new(site);
        self.seqs[site as usize] += 1;
        let seq = self.seqs[site as usize];
        let cmd_id = CommandId::new(ClientId::new(site_id, 0), seq);
        let reads = site == 1;
        let payload = if reads {
            KvOp::get(&b"k"[..]).encode()
        } else {
            KvOp::put(&b"k"[..], seq.to_be_bytes().to_vec()).encode()
        };
        self.ops.push(OpRecord {
            cmd_id,
            issued: api.now(),
            replied: None,
            payload: payload.clone(),
            result: None,
            read_only: reads,
        });
        let cmd = if reads {
            Command::read(cmd_id, payload)
        } else {
            Command::new(cmd_id, payload)
        };
        api.submit(site_id, cmd);
    }
}

impl Application<ClockRsm> for CastawayApp {
    fn on_init(&mut self, api: &mut SimApi<'_, ClockRsm>) {
        let castaway = ReplicaId::new(1);
        for peer in [ReplicaId::new(0), ReplicaId::new(2)] {
            api.partition(castaway, peer, Self::CUT_AT);
            api.heal(castaway, peer, Self::HEAL_AT);
        }
        api.schedule(0, 0);
        api.schedule(0, 1);
    }

    fn on_event(&mut self, site: u64, api: &mut SimApi<'_, ClockRsm>) {
        self.issue(site as u16, api);
    }

    fn on_reply(&mut self, client: ClientId, reply: Reply, api: &mut SimApi<'_, ClockRsm>) {
        let op = self
            .ops
            .iter_mut()
            .rfind(|op| op.cmd_id == reply.id)
            .expect("a reply answers a recorded op");
        if op.replied.is_none() {
            op.replied = Some(api.now());
            op.result = Some(reply.result);
            api.schedule(Self::THINK_US, u64::from(client.site().as_u16()));
        }
    }
}

/// Runs the castaway schedule under `sim_cfg` with seed 17: a writer at
/// site 0, a reader at site 1, site 1 cut off from both peers at 1 s and
/// healed at 5 s, clients stopping at 8 s, and the failure detector
/// reconfiguring after 400 ms of silence.
fn run_castaway(sim_cfg: SimConfig) -> Simulation<ClockRsm, CastawayApp> {
    let rsm_cfg = ClockRsmConfig::default().with_failure_detection(Some(400 * MILLIS));
    let app = CastawayApp {
        ops: Vec::new(),
        seqs: [0; 2],
    };
    let mut sim = Simulation::new(
        sim_cfg.seed(17),
        move |id| ClockRsm::new(id, Membership::uniform(3), rsm_cfg),
        || Box::new(KvStore::new()),
        app,
    );
    sim.run_until(CastawayApp::STOP_AT + 2_000 * MILLIS);
    sim
}

/// (c) The scenario that rules out stamping reads at `send_floor`: with
/// the failure detector on, a replica partitioned away is reconfigured
/// out while the survivors keep writing. It still holds old-epoch clock
/// evidence, but every read it takes is stamped above all of it, its
/// probes go unanswered (cut off, then dropped as stale-epoch), and once
/// it learns of the new epoch it queues reads until it has rejoined —
/// so it answers **no** read from its stale state, which
/// `check_linearizable` grades, and none at all between its exclusion
/// and the heal.
#[test]
fn reconfigured_out_replica_answers_no_read_until_it_rejoins() {
    let (cut_at, heal_at) = (CastawayApp::CUT_AT, CastawayApp::HEAL_AT);
    let sim = run_castaway(SimConfig::new(LatencyMatrix::uniform(3, 2_000)));

    let ops = &sim.app().ops;
    harness::lin::check_linearizable(ops).expect("a stale read was served");

    // The survivors reconfigured the castaway out and kept writing.
    let excluded_at = sim
        .commits(ReplicaId::new(0))
        .iter()
        .map(|c| c.at)
        .find(|&at| at > cut_at + 400 * MILLIS)
        .expect("the survivors never resumed");
    assert!(excluded_at < heal_at - 2_000 * MILLIS, "{excluded_at}");
    let reads: Vec<&OpRecord> = ops.iter().filter(|op| op.read_only).collect();
    let answered = |from: u64, to: u64| {
        reads
            .iter()
            .filter(|op| op.replied.is_some_and(|at| at >= from && at <= to))
            .count()
    };
    assert!(answered(0, cut_at) > 50, "reads flowed before the cut");
    assert_eq!(
        answered(excluded_at, heal_at),
        0,
        "the excluded replica answered a read"
    );
    assert!(
        answered(heal_at, u64::MAX) > 50,
        "reads never resumed after the rejoin"
    );
    // Its first answer after the heal is served from caught-up state:
    // the replica has executed everything the survivors committed.
    assert_eq!(
        sim.commit_count(ReplicaId::new(1)),
        sim.commit_count(ReplicaId::new(0))
    );
}

/// The castaway of the test above, with a slow clock: 0.5 s, 1 s and
/// 3 s behind. Cut off and reconfigured out, it still holds the old
/// epoch's clock evidence, and its slow clock stamps reads *below* that
/// evidence. A read is answered only once a majority of current-epoch
/// echoes name its probe, and the survivors froze for the new epoch
/// before it existed, so no such quorum forms: the castaway answers
/// nothing from the state the survivors have moved past.
#[test]
fn slow_castaway_answers_no_stale_read() {
    for offset_ms in [500i64, 1_000, 3_000] {
        let sim_cfg = SimConfig::new(LatencyMatrix::uniform(3, 2_000))
            .clock_override(1, ClockModel::fixed_offset(-offset_ms * MILLIS as i64));
        let sim = run_castaway(sim_cfg);
        if let Err(e) = harness::lin::check_linearizable(&sim.app().ops) {
            panic!("clock {offset_ms} ms slow: a stale read was served: {e}");
        }
    }
}
