//! Shard scale-out soak: eight independent replication groups under
//! clock skew, staggered shard-scoped crashes, per-shard Paxos leader
//! fail-over, and a shard-local long outage past log retention. The
//! cross-shard snapshot checker (one consistent cut per multi-key read)
//! and every shard's own checker battery must stay green throughout —
//! a fault inside one group must never leak into another.

use clock_rsm::ClockRsmConfig;
use harness::shard::{run_sharded, ShardedConfig};
use harness::workload::Fault;
use harness::{ExperimentConfig, ProtocolChoice};
use rsm_core::checkpoint::CheckpointPolicy;
use rsm_core::lease::LeaseConfig;
use rsm_core::time::MILLIS;
use rsm_core::{LatencyMatrix, ReplicaId};
use simnet::ClockModel;

/// The common 8-shard shape: 3 replicas per group, moderate think time,
/// enough clients that every shard sees steady traffic.
fn base(seed: u64, duration_ms: u64) -> ExperimentConfig {
    ExperimentConfig::new(LatencyMatrix::uniform(3, 5_000))
        .seed(seed)
        .clients_per_site(3)
        .think_max_us(10 * MILLIS)
        .warmup_us(200 * MILLIS)
        .duration_us(duration_ms * MILLIS)
        .client_retry_us(500 * MILLIS)
}

/// Clock-RSM with reconfiguration on, so crashed replicas are detected,
/// removed, and re-admitted with catch-up when they come back.
fn reconfig_cfg() -> ClockRsmConfig {
    ClockRsmConfig::default()
        .with_delta_us(Some(50 * MILLIS))
        .with_failure_detection(Some(400 * MILLIS))
}

/// The acceptance soak: ±1ms NTP-grade clock offsets, a 50/50 read mix
/// with 40% of reads as 4-key cross-shard snapshots. Skew may slow the
/// pinned parts down (each waits for the slowest clock to pass the cut)
/// but every assembled snapshot must still be one consistent cut.
#[test]
fn eight_shards_keep_snapshot_cuts_consistent_under_ntp_skew() {
    let cfg = ShardedConfig::new(
        base(71, 1_500)
            .read_fraction(0.5)
            .clock(ClockModel::ntp(MILLIS)),
        8,
    )
    .snapshot_mix(0.4, 4);
    let r = run_sharded(ProtocolChoice::clock_rsm(), &cfg);
    assert!(
        r.all_ok(),
        "checks: {:?}; snapshot: {:?}",
        r.aggregate.checks.violation,
        r.snapshot_violation
    );
    assert!(
        r.snapshot_count > 10,
        "snapshot reads starved under skew ({} completed)",
        r.snapshot_count
    );
    assert!(
        r.counters.iter().all(|c| c.writes > 0),
        "idle shard: {:?}",
        r.counters
    );
}

/// Staggered crashes in half the shards, each recovering 400ms later.
/// The untouched shards must run as if nothing happened, and the hit
/// shards must detect, remove, re-admit, and re-converge — all while
/// cross-shard snapshot reads keep cutting through the full set.
#[test]
fn staggered_shard_scoped_crashes_recover_independently() {
    let mut cfg = ShardedConfig::new(base(72, 2_000).read_fraction(0.4), 8).snapshot_mix(0.3, 3);
    for s in 0..4usize {
        let victim = ReplicaId::new(1 + (s as u16 % 2));
        let at = (300 + 100 * s as u64) * MILLIS;
        cfg = cfg.shard_fault(at, s, Fault::Crash(victim)).shard_fault(
            at + 400 * MILLIS,
            s,
            Fault::Recover(victim),
        );
    }
    let r = run_sharded(ProtocolChoice::clock_rsm_with(reconfig_cfg()), &cfg);
    assert!(
        r.all_ok(),
        "checks: {:?}; snapshot: {:?}",
        r.aggregate.checks.violation,
        r.snapshot_violation
    );
    for (s, shard) in r.per_shard.iter().enumerate() {
        assert!(
            shard.snapshots_agree,
            "shard {s} diverged after recovery; commits {:?}",
            shard.commit_counts
        );
        assert!(
            shard.commit_counts[0] > 10,
            "shard {s} starved: {:?}",
            shard.commit_counts
        );
    }
    assert!(
        r.snapshot_count > 5,
        "snapshots starved: {}",
        r.snapshot_count
    );
}

/// Per-shard Paxos leader crash: two groups lose their leader (replica 1)
/// mid-run and elect a new one under lease-based fail-over, while the
/// other six groups keep their regime. Reads route to the lease holder;
/// multi-key reads are the honest per-shard-linearizable fallback.
#[test]
fn paxos_shard_leader_crashes_fail_over_per_shard() {
    let mut cfg = ShardedConfig::new(
        base(73, 2_500)
            .read_fraction(0.3)
            .client_retry_us(800 * MILLIS),
        8,
    )
    .snapshot_mix(0.2, 3);
    for &s in &[0usize, 5] {
        cfg = cfg
            .shard_fault(400 * MILLIS, s, Fault::Crash(ReplicaId::new(1)))
            .shard_fault(1_400 * MILLIS, s, Fault::Recover(ReplicaId::new(1)));
    }
    let r = run_sharded(
        ProtocolChoice::paxos_bcast_failover(1, LeaseConfig::after(300 * MILLIS)),
        &cfg,
    );
    assert!(
        r.all_ok(),
        "checks: {:?}; snapshot: {:?}",
        r.aggregate.checks.violation,
        r.snapshot_violation
    );
    for (s, shard) in r.per_shard.iter().enumerate() {
        assert!(
            shard.snapshots_agree,
            "shard {s} diverged after fail-over; commits {:?}",
            shard.commit_counts
        );
        assert!(
            shard.commit_counts[0] > 5,
            "shard {s} starved: {:?}",
            shard.commit_counts
        );
    }
}

/// A shard-local long outage: one replica of shard 3 is down for 1.5s
/// while compaction keeps pruning its group's logs, so it must rejoin
/// via checkpoint install rather than log replay. Snapshot installs make
/// per-op histories gappy, so this soak judges convergence, progress,
/// and bounded logs (like the single-group long-outage suite).
#[test]
fn shard_local_long_outage_rejoins_past_log_retention() {
    let mut cfg = ShardedConfig::new(
        base(74, 2_500)
            .checkpoint(CheckpointPolicy::every(16))
            .record_ops(false),
        8,
    );
    cfg = cfg
        .shard_fault(300 * MILLIS, 3, Fault::Crash(ReplicaId::new(2)))
        .shard_fault(1_800 * MILLIS, 3, Fault::Recover(ReplicaId::new(2)));
    let r = run_sharded(ProtocolChoice::clock_rsm_with(reconfig_cfg()), &cfg);
    for (s, shard) in r.per_shard.iter().enumerate() {
        assert!(
            shard.snapshots_agree,
            "shard {s} diverged after the outage; commits {:?}",
            shard.commit_counts
        );
        assert!(
            shard.commit_counts[0] > 10,
            "shard {s} starved: {:?}",
            shard.commit_counts
        );
    }
    // Compaction must bound every log — including the outage shard's.
    for (s, shard) in r.per_shard.iter().enumerate() {
        for (i, &len) in shard.log_lens.iter().enumerate() {
            assert!(
                len < 1_500,
                "shard {s} replica {i} log unbounded ({len} records)"
            );
        }
    }
}

/// The sharded twin of
/// `session_retry::session_window_eviction_reapplies_late_retries`: the
/// experiment's session knobs reach every shard's replicas. Clients time
/// out before a 5 ms-one-way commit can answer, so every write is
/// re-submitted under its original id while the original is still in
/// flight. With the default window the retry is recognised and answered
/// from the cached reply; with a window of one client another client's
/// write has evicted the entry by then, so the late retry re-applies —
/// visible as a duplicate execution in the shard's commit history.
#[test]
fn session_window_reaches_every_shard() {
    let shape = || base(75, 600).client_retry_us(8 * MILLIS);
    let run = |base| run_sharded(ProtocolChoice::clock_rsm(), &ShardedConfig::new(base, 2));

    let r = run(shape());
    assert!(
        r.all_ok(),
        "same-id retries must dedup under the default window: {:?}",
        r.aggregate.checks.violation
    );

    let r = run(shape().session_window(1));
    assert!(
        !r.aggregate.checks.no_duplicates_ok,
        "a one-client window cannot still recognise the late retries"
    );
    assert!(
        r.per_shard.iter().all(|s| !s.checks.no_duplicates_ok),
        "the window override must reach every shard"
    );
}
