//! Failure handling end to end, for both fail-over designs in the tree:
//!
//! * **Clock-RSM** — crash a replica, watch the failure detector trigger
//!   the reconfiguration protocol (Algorithm 3), verify the survivors
//!   keep committing in the smaller configuration, then restart the
//!   replica and verify it recovers from its log, reintegrates via
//!   reconfiguration, and converges.
//! * **Paxos** — crash the *leader* mid-load, watch the lease expire and
//!   the survivors elect a replacement via ballot phase 1 over the log
//!   suffix, verify the cluster keeps committing under the new leader
//!   with the linearizability checks green, and verify the old leader
//!   rejoins as a follower (including down-past-retention rejoins that
//!   need checkpoint transfer).

use clock_rsm::ClockRsmConfig;
use harness::workload::Fault;
use harness::{run_latency, ExperimentConfig, ExperimentResult, ProtocolChoice};
use rsm_core::checkpoint::CheckpointPolicy;
use rsm_core::lease::LeaseConfig;
use rsm_core::time::MILLIS;
use rsm_core::{BatchPolicy, LatencyMatrix, ReplicaId};

fn fd_config() -> ClockRsmConfig {
    ClockRsmConfig::default()
        .with_delta_us(Some(50 * MILLIS))
        .with_failure_detection(Some(400 * MILLIS))
}

fn base_cfg(n: usize) -> ExperimentConfig {
    ExperimentConfig::new(LatencyMatrix::uniform(n, 20_000))
        .clients_per_site(3)
        .think_max_us(40 * MILLIS)
        .warmup_us(100 * MILLIS)
        .duration_us(10_000 * MILLIS)
        // In-flight commands that miss the reconfiguration decision are
        // dropped by the epoch change; real clients retry.
        .client_retry_us(2_000 * MILLIS)
}

/// Crash one replica of three; survivors reconfigure and keep going;
/// the crashed replica recovers, rejoins, and converges.
#[test]
fn crash_reconfigure_recover_rejoin() {
    let crash_at = 2_000 * MILLIS;
    let recover_at = 5_000 * MILLIS;
    // Clients at sites 0 and 1 only: site 2's clients would stall while
    // their replica is down.
    let cfg = base_cfg(3)
        .active_sites(vec![0, 1])
        .fault(crash_at, Fault::Crash(ReplicaId::new(2)))
        .fault(recover_at, Fault::Recover(ReplicaId::new(2)));
    let r = run_latency(ProtocolChoice::clock_rsm_with(fd_config()), &cfg);

    // Liveness while degraded: the survivors committed commands in the
    // window after failure detection + reconfiguration (crash + 400 ms FD
    // timeout + reconfiguration round trips ≈ 3 s) and before recovery.
    assert!(
        r.commits_between(0, 3_500 * MILLIS, recover_at) > 10,
        "no progress in the two-replica configuration: {:?}",
        &r.commit_times[0]
            .iter()
            .filter(|&&t| t > crash_at)
            .take(5)
            .collect::<Vec<_>>()
    );
    // Liveness after rejoin: the recovered replica executes *new* commands
    // issued well after its recovery — proof the reintegration finished.
    assert!(
        r.commits_between(2, 7_000 * MILLIS, 12_000 * MILLIS) > 10,
        "rejoined replica executed nothing near the end; last commit at {:?}",
        r.last_commit_at(2)
    );
    assert!(
        r.site_stats[0].count() > 50,
        "site 0 produced only {} samples",
        r.site_stats[0].count()
    );
    assert!(r.site_stats[1].count() > 50);

    // Safety: total order, monotonicity, linearizability never violated.
    assert!(r.checks.all_ok(), "{:?}", r.checks.violation);

    // Convergence: the recovered replica caught up fully — all replicas
    // executed the same number of commands and hold identical state.
    assert!(
        r.snapshots_agree,
        "snapshots diverged; commits: {:?}",
        r.commit_counts
    );
    // The recovered replica really did re-execute everything.
    assert!(
        r.commit_counts[2] > 0,
        "recovered replica executed nothing: {:?}",
        r.commit_counts
    );
}

/// Crash and recover *quickly* under constant load: recovery replays the
/// log, reintegration happens via reconfiguration, nothing diverges.
#[test]
fn fast_crash_recovery_preserves_safety() {
    let cfg = base_cfg(3)
        .active_sites(vec![0])
        .duration_us(8_000 * MILLIS)
        .fault(1_500 * MILLIS, Fault::Crash(ReplicaId::new(1)))
        .fault(2_500 * MILLIS, Fault::Recover(ReplicaId::new(1)));
    let r = run_latency(ProtocolChoice::clock_rsm_with(fd_config()), &cfg);
    assert!(r.checks.all_ok(), "{:?}", r.checks.violation);
    assert!(r.snapshots_agree, "commits: {:?}", r.commit_counts);
    assert!(r.site_stats[0].count() > 30);
}

/// The default configuration — failure detection off, as in the paper's
/// latency experiments — still survives a crash: the recovered replica
/// rejoins through Algorithm 3 (Section V-B), and every peer answers its
/// SUSPEND from the stable log. Run without checkpoints and with them,
/// so crash recovery of the default config stays safe from a compacted
/// log.
/// This run never reaches the snapshot answer a compacted peer gives a
/// SUSPEND from below its checkpoint; that path is covered by
/// `a_suspend_below_a_compacted_log_is_answered_with_a_snapshot`
/// (`crates/clock-rsm/tests/checkpoint.rs`) and by `tests/long_outage.rs`.
fn default_config_crash(policy: CheckpointPolicy) {
    let rsm_cfg = ClockRsmConfig::default()
        .with_delta_us(Some(50 * MILLIS))
        .with_checkpoint(policy);
    let failed: Vec<String> = (1..=8)
        .filter_map(|seed| {
            let cfg = base_cfg(3)
                .seed(seed)
                .active_sites(vec![0])
                .duration_us(8_000 * MILLIS)
                .fault(1_500 * MILLIS, Fault::Crash(ReplicaId::new(1)))
                .fault(2_500 * MILLIS, Fault::Recover(ReplicaId::new(1)));
            let r = run_latency(ProtocolChoice::clock_rsm_with(rsm_cfg), &cfg);
            let ok = r.checks.all_ok() && r.snapshots_agree;
            let why = format!(
                "seed {seed}: {:?}, commits {:?}",
                r.checks.violation, r.commit_counts
            );
            (!ok).then_some(why)
        })
        .collect();
    assert!(failed.is_empty(), "diverged: {failed:#?}");
}

#[test]
fn default_config_crash_recovery_preserves_safety() {
    default_config_crash(CheckpointPolicy::DISABLED);
}

#[test]
fn default_config_crash_recovery_with_compaction_preserves_safety() {
    default_config_crash(CheckpointPolicy::every(32));
}

/// A five-replica deployment tolerates two crashed replicas (majority of
/// the spec still up) and reintegrates both.
#[test]
fn five_replicas_tolerate_two_failures() {
    let cfg = base_cfg(5)
        .active_sites(vec![0, 1])
        .duration_us(12_000 * MILLIS)
        .fault(1_500 * MILLIS, Fault::Crash(ReplicaId::new(3)))
        .fault(2_000 * MILLIS, Fault::Crash(ReplicaId::new(4)))
        .fault(6_000 * MILLIS, Fault::Recover(ReplicaId::new(3)))
        .fault(6_500 * MILLIS, Fault::Recover(ReplicaId::new(4)));
    let r = run_latency(ProtocolChoice::clock_rsm_with(fd_config()), &cfg);
    assert!(r.checks.all_ok(), "{:?}", r.checks.violation);
    assert!(r.snapshots_agree, "commits: {:?}", r.commit_counts);
    assert!(r.site_stats[0].count() > 30);
    assert!(r.commit_counts[3] > 0 && r.commit_counts[4] > 0);
}

/// Checkpointing (Section V-B): with snapshots every 50 commits, each
/// compacting the log, a crashed replica recovers through the checkpoint
/// at its log's head instead of a full replay, rejoins, and converges — and the alignment-aware total
/// order checker validates its mid-stream history.
#[test]
fn checkpointed_recovery_converges() {
    let rsm_cfg = fd_config().with_checkpoint(CheckpointPolicy::every(50));
    let cfg = base_cfg(3)
        .active_sites(vec![0, 1])
        .duration_us(10_000 * MILLIS)
        .fault(2_000 * MILLIS, Fault::Crash(ReplicaId::new(2)))
        .fault(5_000 * MILLIS, Fault::Recover(ReplicaId::new(2)));
    let r = run_latency(ProtocolChoice::clock_rsm_with(rsm_cfg), &cfg);
    assert!(r.checks.all_ok(), "{:?}", r.checks.violation);
    assert!(r.snapshots_agree, "commits: {:?}", r.commit_counts);
    // The checkpoint made recovery skip most of the prefix: the replay
    // burst at the recovery instant is bounded by the checkpoint interval
    // (plus the decision application), far below the ~170 commands that
    // committed before the crash.
    let replay_burst = r.commits_between(2, 5_000 * MILLIS, 5_000 * MILLIS);
    assert!(
        replay_burst < 60,
        "recovery replayed {replay_burst} commands despite checkpoints"
    );
    // It still executes fresh commands after rejoining.
    assert!(r.commits_between(2, 7_000 * MILLIS, u64::MAX) > 10);
    // Every checkpoint compacts: each log, the recovered replica's
    // included, holds its checkpoint and about an interval's worth of
    // records above it, not the ~1 900 the run logs in all.
    for (i, &len) in r.log_lens.iter().enumerate() {
        assert!(len < 3 * 50, "log of replica {i} unbounded: {len} records");
    }
}

/// Crash the *reconfigurer* mid-reconfiguration: replica 0 detects the
/// crash of replica 2 first (lowest id fires first) and starts the
/// SUSPEND round — then dies too. The frozen survivor's liveness backstop
/// must take over the reconfiguration once a majority exists again.
#[test]
fn reconfigurer_crash_mid_reconfiguration() {
    let crash_target = 1_500 * MILLIS;
    // r0's failure detector fires ~400ms after the crash; crash r0 just
    // after it has frozen the system but (likely) before the decision.
    let crash_reconfigurer = crash_target + 430 * MILLIS;
    let cfg = base_cfg(3)
        .active_sites(vec![1])
        .duration_us(14_000 * MILLIS)
        .fault(crash_target, Fault::Crash(ReplicaId::new(2)))
        .fault(crash_reconfigurer, Fault::Crash(ReplicaId::new(0)))
        // Bring r2 back so a majority of the spec exists again.
        .fault(4_000 * MILLIS, Fault::Recover(ReplicaId::new(2)))
        .fault(8_000 * MILLIS, Fault::Recover(ReplicaId::new(0)));
    let r = run_latency(ProtocolChoice::clock_rsm_with(fd_config()), &cfg);
    assert!(r.checks.all_ok(), "{:?}", r.checks.violation);
    assert!(r.snapshots_agree, "commits: {:?}", r.commit_counts);
    // Progress resumed once {r1, r2} formed a majority again.
    assert!(
        r.commits_between(1, 6_000 * MILLIS, u64::MAX) > 10,
        "no progress after the double failure window: {:?}",
        r.commit_counts
    );
}

/// A network partition parks messages rather than losing them: after the
/// heal, everything converges without reconfiguration even kicking in
/// (partition shorter than the FD timeout).
#[test]
fn short_partition_heals_without_reconfiguration() {
    let cfg = base_cfg(3)
        .duration_us(6_000 * MILLIS)
        .fault(
            2_000 * MILLIS,
            Fault::Partition(ReplicaId::new(0), ReplicaId::new(2)),
        )
        .fault(
            2_300 * MILLIS,
            Fault::Heal(ReplicaId::new(0), ReplicaId::new(2)),
        );
    let r = run_latency(ProtocolChoice::clock_rsm_with(fd_config()), &cfg);
    assert!(r.checks.all_ok(), "{:?}", r.checks.violation);
    assert!(r.snapshots_agree);
}

/// A longer partition of one replica triggers its removal; after the
/// heal, the cut-off replica rejoins through the epoch catch-up path.
#[test]
fn long_partition_triggers_reconfiguration_and_catchup() {
    let cfg = base_cfg(3)
        .active_sites(vec![0, 1])
        .duration_us(10_000 * MILLIS)
        .fault(
            1_500 * MILLIS,
            Fault::Partition(ReplicaId::new(0), ReplicaId::new(2)),
        )
        .fault(
            1_500 * MILLIS,
            Fault::Partition(ReplicaId::new(1), ReplicaId::new(2)),
        )
        .fault(
            5_000 * MILLIS,
            Fault::Heal(ReplicaId::new(0), ReplicaId::new(2)),
        )
        .fault(
            5_000 * MILLIS,
            Fault::Heal(ReplicaId::new(1), ReplicaId::new(2)),
        );
    let r = run_latency(ProtocolChoice::clock_rsm_with(fd_config()), &cfg);
    assert!(r.checks.all_ok(), "{:?}", r.checks.violation);
    // Site 0/1 must have made progress during the partition (r2 removed
    // from the configuration, so commits only need the majority).
    assert!(
        r.site_stats[0].count() + r.site_stats[1].count() > 60,
        "survivors stalled during the partition"
    );
    assert!(r.snapshots_agree, "commits: {:?}", r.commit_counts);
}

// ----------------------------------------------------------------------
// Paxos leader-crash fail-over
// ----------------------------------------------------------------------

/// The Paxos deployments here start under replica 1 so the client site
/// (replica 0, which must stay up to drive load) survives the crash.
const PAXOS_LEADER: u16 = 1;

fn paxos_lease() -> LeaseConfig {
    LeaseConfig::after(400 * MILLIS)
}

/// Clients at site 0 only, batched submission (so the crash lands
/// mid-batch under load), retries to survive the proposals that die
/// with the leader.
fn paxos_crash_cfg(seed: u64, duration_ms: u64) -> ExperimentConfig {
    ExperimentConfig::new(LatencyMatrix::uniform(3, 20_000))
        .seed(seed)
        .clients_per_site(4)
        .think_max_us(30 * MILLIS)
        .active_sites(vec![0])
        .warmup_us(100 * MILLIS)
        .duration_us(duration_ms * MILLIS)
        .batch(harness_batch())
        .client_retry_us(1_000 * MILLIS)
}

fn harness_batch() -> BatchPolicy {
    BatchPolicy::max(8)
}

fn assert_failover(r: &ExperimentResult, seed: u64, recover_at: u64, end: u64) {
    // Liveness while the old leader is down: the survivors elected a
    // replacement (crash at 2 s + lease 400 ms + stagger + election
    // round trips ≈ 3.5 s) and kept committing client commands.
    assert!(
        r.commits_between(0, 4_000 * MILLIS, recover_at) > 10,
        "{} seed {seed}: no progress under the elected leader: {:?}",
        r.protocol,
        r.commit_counts
    );
    // The old leader rejoined as a follower and executes fresh commands.
    assert!(
        r.commits_between(PAXOS_LEADER as usize, recover_at + 2_000 * MILLIS, end) > 10,
        "{} seed {seed}: deposed leader never rejoined; last commit {:?}",
        r.protocol,
        r.last_commit_at(PAXOS_LEADER as usize)
    );
    // Safety: total order, no duplicates, linearizability.
    assert!(
        r.checks.all_ok(),
        "{} seed {seed}: {:?}",
        r.protocol,
        r.checks.violation
    );
    assert!(
        r.snapshots_agree,
        "{} seed {seed}: snapshots diverged; commits {:?}",
        r.protocol, r.commit_counts
    );
}

/// A 3-replica Paxos cluster whose leader crashes mid-load elects a new
/// leader and commits new client commands without operator input — the
/// acceptance scenario, soaked over both variants and several seeds.
#[test]
fn paxos_leader_crash_elects_and_commits() {
    let crash_at = 2_000 * MILLIS;
    let recover_at = 8_000 * MILLIS;
    let duration = 14_000u64;
    for seed in [1u64, 2, 3] {
        for choice in [
            ProtocolChoice::paxos_failover(PAXOS_LEADER, paxos_lease()),
            ProtocolChoice::paxos_bcast_failover(PAXOS_LEADER, paxos_lease()),
        ] {
            let cfg =
                paxos_crash_cfg(seed, duration).leader_crash(PAXOS_LEADER, crash_at, recover_at);
            let r = run_latency(choice, &cfg);
            assert_failover(&r, seed, recover_at, duration * MILLIS + 2_000 * MILLIS);
        }
    }
}

/// The fail-over scenario under a read mix: half the operations are
/// linearizable local reads (leader-lease fast path at the leader,
/// commit-watermark quorum reads at the followers) while the leader
/// crashes mid-load. Reads issued around the crash and election must
/// never return a value no linearization of the client history
/// explains — the linearizability checker inside `checks.all_ok()` is
/// the judge — and both paths must resume once the replacement regime
/// settles. (The classic deposed-leader-with-expired-lease partition
/// scenario lives in tests/read_mix.rs.)
#[test]
fn paxos_leader_crash_read_mix_stays_linearizable() {
    let crash_at = 2_000 * MILLIS;
    let recover_at = 8_000 * MILLIS;
    let duration = 14_000u64;
    for choice in [
        ProtocolChoice::paxos_failover(PAXOS_LEADER, paxos_lease()),
        ProtocolChoice::paxos_bcast_failover(PAXOS_LEADER, paxos_lease()),
    ] {
        let cfg = paxos_crash_cfg(5, duration)
            .read_fraction(0.5)
            .leader_crash(PAXOS_LEADER, crash_at, recover_at);
        let r = run_latency(choice, &cfg);
        assert!(
            r.checks.all_ok(),
            "{}: {:?}",
            r.protocol,
            r.checks.violation
        );
        assert!(r.snapshots_agree, "{} snapshots diverged", r.protocol);
        assert!(
            r.read_count > 20 && r.write_count > 20,
            "{}: mix starved ({} reads / {} writes)",
            r.protocol,
            r.read_count,
            r.write_count
        );
        // Write progress resumed under the elected leader.
        assert!(
            r.commits_between(0, 4_000 * MILLIS, recover_at) > 10,
            "{}: no progress under the elected leader",
            r.protocol
        );
    }
}

/// Repeated churn: while the initial leader is down, the cluster also
/// loses replica 2 — hitting the elected replacement if 2 won the
/// election, an acceptor of the new regime otherwise. Both worlds must
/// keep (or recover) liveness and reconverge by the end.
#[test]
fn paxos_double_leader_crash_converges() {
    let cfg = paxos_crash_cfg(7, 16_000)
        // Initial leader down at 2 s, back at 12 s.
        .leader_crash(PAXOS_LEADER, 2_000 * MILLIS, 12_000 * MILLIS)
        .fault(6_000 * MILLIS, Fault::Crash(ReplicaId::new(2)))
        .fault(9_000 * MILLIS, Fault::Recover(ReplicaId::new(2)));
    let r = run_latency(
        ProtocolChoice::paxos_bcast_failover(PAXOS_LEADER, paxos_lease()),
        &cfg,
    );
    assert!(r.checks.all_ok(), "{:?}", r.checks.violation);
    assert!(r.snapshots_agree, "commits: {:?}", r.commit_counts);
    assert!(
        r.commits_between(0, 13_000 * MILLIS, u64::MAX) > 10,
        "no progress after the churn settled: {:?}",
        r.commit_counts
    );
}

/// The old leader stays down long past checkpoint retention while the
/// cluster commits hundreds of commands under the elected leader; its
/// rejoin therefore cannot be served from anyone's log and must go
/// through peer checkpoint transfer — under a *changed* ballot, whose
/// promise the transferred snapshot must not regress.
#[test]
fn paxos_deposed_leader_rejoins_via_checkpoint_transfer() {
    let recover_at = 12_000 * MILLIS;
    for seed in [11u64, 12] {
        let cfg = paxos_crash_cfg(seed, 20_000)
            .checkpoint(CheckpointPolicy::every(32))
            // Snapshot installs skip per-command records, so commit
            // histories are gappy by design: soak on snapshots and log
            // bounds, like the long-outage suite.
            .record_ops(false)
            .leader_crash(PAXOS_LEADER, 2_000 * MILLIS, recover_at);
        let r = run_latency(
            ProtocolChoice::paxos_bcast_failover(PAXOS_LEADER, paxos_lease()),
            &cfg,
        );
        assert!(
            r.snapshots_agree,
            "seed {seed}: rejoined deposed leader diverged; commits {:?}",
            r.commit_counts
        );
        assert!(
            r.commit_counts[0] > 400,
            "seed {seed}: too little progress under the elected leader: {:?}",
            r.commit_counts
        );
        assert!(
            r.commit_counts[PAXOS_LEADER as usize] > 0,
            "seed {seed}: deposed leader never executed after rejoining"
        );
        // Compaction keeps every log bounded across the regime change.
        for (i, &len) in r.log_lens.iter().enumerate() {
            assert!(
                (len as u64) < r.commit_counts[0] / 2 && len < 1_500,
                "seed {seed}: log of replica {i} unbounded ({len} records \
                 for {} commits)",
                r.commit_counts[0]
            );
        }
    }
}

/// Pre-vote changes nothing about a *real* leader crash: the probe round
/// finds a majority whose leases lapsed, escalates to the classic
/// election, and the cluster fails over exactly as without it.
#[test]
fn paxos_prevote_leader_crash_still_elects() {
    let crash_at = 2_000 * MILLIS;
    let recover_at = 8_000 * MILLIS;
    let duration = 14_000u64;
    let cfg = paxos_crash_cfg(4, duration).leader_crash(PAXOS_LEADER, crash_at, recover_at);
    let r = run_latency(
        ProtocolChoice::paxos_bcast_failover(PAXOS_LEADER, paxos_lease().with_pre_vote()),
        &cfg,
    );
    assert_failover(&r, 4, recover_at, duration * MILLIS + 2_000 * MILLIS);
}

/// The disruption scenario pre-vote exists for, end to end: replica 2 is
/// partitioned away from a healthy cluster for many lease timeouts, so
/// its own lease expires and it campaigns into the void. With pre-vote
/// it only ever probes — no ballot inflation while isolated — so the
/// heal is a non-event: no Nack storm, no deposed leader, no election
/// stall; the cluster never stops committing and the castaway reconverges.
#[test]
fn paxos_prevote_isolated_replica_cannot_disrupt() {
    let cut = ReplicaId::new(2);
    let cut_at = 2_000 * MILLIS;
    let heal_at = 6_000 * MILLIS;
    let cfg = paxos_crash_cfg(9, 12_000)
        .fault(cut_at, Fault::Partition(ReplicaId::new(0), cut))
        .fault(cut_at, Fault::Partition(ReplicaId::new(1), cut))
        .fault(heal_at, Fault::Heal(ReplicaId::new(0), cut))
        .fault(heal_at, Fault::Heal(ReplicaId::new(1), cut));
    let r = run_latency(
        ProtocolChoice::paxos_bcast_failover(PAXOS_LEADER, paxos_lease().with_pre_vote()),
        &cfg,
    );
    assert!(r.checks.all_ok(), "{:?}", r.checks.violation);
    assert!(r.snapshots_agree, "commits: {:?}", r.commit_counts);
    // The majority side never noticed: commits flowed through the
    // partition window and, critically, straight through the heal — a
    // deposed-leader stall there would open a gap of at least the lease
    // timeout while the cluster re-elects.
    let around_heal: Vec<u64> = r.commit_times[0]
        .iter()
        .copied()
        .filter(|&t| t >= heal_at - 500 * MILLIS && t <= heal_at + 2_000 * MILLIS)
        .collect();
    let max_gap = around_heal
        .windows(2)
        .map(|w| w[1] - w[0])
        .max()
        .unwrap_or(u64::MAX);
    assert!(
        max_gap < 400 * MILLIS,
        "commit stall of {max_gap}us around the heal — the rejoining \
         replica disrupted the regime"
    );
    // The castaway reconverged: it executes fresh commands after healing.
    assert!(
        r.commits_between(2, heal_at + 1_000 * MILLIS, u64::MAX) > 10,
        "healed replica never caught up: {:?}",
        r.commit_counts
    );
}
