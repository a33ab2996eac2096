//! Fault soak: randomized crash/recover schedules (derived from seeds,
//! always keeping a majority of the spec up) drive repeated rounds of
//! failure handling. For Clock-RSM that is suspicion, removal, recovery,
//! and rejoin via the reconfiguration protocol; for Paxos the same
//! schedules crash the *leader* too, so the soak exercises election
//! churn — lease expiry, ballot elections, repairs, deposed leaders
//! rejoining — not just follower outages. Safety and convergence must
//! hold at the end of every schedule, and with checkpoints on, logs must
//! stay bounded however many regimes came and went.

use clock_rsm::ClockRsmConfig;
use harness::workload::Fault;
use harness::{run_latency, ExperimentConfig, ProtocolChoice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsm_core::checkpoint::CheckpointPolicy;
use rsm_core::lease::LeaseConfig;
use rsm_core::time::MILLIS;
use rsm_core::{LatencyMatrix, ReplicaId};

/// Builds a random fault schedule over `n` replicas: each second, maybe
/// crash an up replica (never dropping below a majority of the spec, and
/// never crashing replica 0, which hosts the clients) or recover a down
/// one. Everything recovers before the end.
fn random_schedule(seed: u64, n: usize, seconds: u64) -> Vec<(u64, Fault)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let majority = n / 2 + 1;
    let mut up = vec![true; n];
    let mut plan = Vec::new();
    for sec in 1..seconds.saturating_sub(6) {
        let at = sec * 1_000 * MILLIS + rng.gen_range(0..500u64) * MILLIS / 500;
        let up_count = up.iter().filter(|&&u| u).count();
        let roll: f64 = rng.gen();
        if roll < 0.30 && up_count > majority {
            // Crash a random up replica other than 0.
            let candidates: Vec<usize> = (1..n).filter(|&i| up[i]).collect();
            if let Some(&victim) = candidates.get(rng.gen_range(0..candidates.len().max(1))) {
                up[victim] = false;
                plan.push((at, Fault::Crash(ReplicaId::new(victim as u16))));
            }
        } else if roll < 0.70 {
            let down: Vec<usize> = (0..n).filter(|&i| !up[i]).collect();
            if !down.is_empty() {
                let back = down[rng.gen_range(0..down.len())];
                up[back] = true;
                plan.push((at, Fault::Recover(ReplicaId::new(back as u16))));
            }
        }
    }
    // Everyone comes back well before the end so the run can converge.
    for (i, &alive) in up.iter().enumerate() {
        if !alive {
            plan.push((
                (seconds - 6) * 1_000 * MILLIS,
                Fault::Recover(ReplicaId::new(i as u16)),
            ));
        }
    }
    plan
}

fn soak(seed: u64, n: usize) {
    soak_with_reads(seed, n, 0.0)
}

/// One Clock-RSM soak round; `read_fraction > 0` interleaves local
/// stable-timestamp reads with the writes, so the crash/recover churn
/// also exercises read parking across freezes, rejoins, and epoch
/// changes — judged by the linearizability checker inside
/// `checks.all_ok()`.
fn soak_with_reads(seed: u64, n: usize, read_fraction: f64) {
    let seconds = 16u64;
    let rsm_cfg = ClockRsmConfig::default()
        .with_delta_us(Some(50 * MILLIS))
        .with_failure_detection(Some(400 * MILLIS));
    let mut cfg = ExperimentConfig::new(LatencyMatrix::uniform(n, 15_000))
        .seed(seed)
        .clients_per_site(2)
        .think_max_us(50 * MILLIS)
        .read_fraction(read_fraction)
        .warmup_us(100 * MILLIS)
        .duration_us(seconds * 1_000 * MILLIS)
        .active_sites(vec![0])
        .client_retry_us(2_000 * MILLIS);
    for (at, f) in random_schedule(seed, n, seconds) {
        cfg = cfg.fault(at, f);
    }
    let r = run_latency(ProtocolChoice::clock_rsm_with(rsm_cfg), &cfg);
    assert!(r.checks.all_ok(), "seed {seed}: {:?}", r.checks.violation);
    assert!(
        r.snapshots_agree,
        "seed {seed}: snapshots diverged; commits {:?}",
        r.commit_counts
    );
    assert!(
        r.site_stats[0].count() > 20,
        "seed {seed}: site 0 made little progress ({} replies)",
        r.site_stats[0].count()
    );
}

#[test]
fn soak_three_replicas() {
    for seed in [1u64, 2, 3, 4, 5, 6] {
        soak(seed, 3);
    }
}

#[test]
fn soak_five_replicas() {
    for seed in [11u64, 12, 13, 14] {
        soak(seed, 5);
    }
}

#[test]
fn soak_three_replicas_with_read_mix() {
    for seed in [41u64, 42, 43] {
        soak_with_reads(seed, 3, 0.4);
    }
}

/// The read mix under clock skew — sub-millisecond (the paper's NTP
/// grade) and multi-second (a badly broken daemon) — combined with
/// crash/recover churn. Clock-RSM's stable-timestamp reads may slow
/// down arbitrarily under skew but must never return a stale value;
/// the linearizability checker inside `checks.all_ok()` is the judge.
///
/// Skew sets the timing physics: a read stamped by a fast clock waits
/// for the slowest clock to pass the stamp, up to ~2×bound. The client
/// retry must sit *above* that worst case (a shorter retry supersedes
/// every read before its reply lands — correct but starved), and the
/// multi-second case needs a window long enough for multi-second reads
/// to complete inside it.
#[test]
fn soak_read_mix_under_clock_skew() {
    for (seed, bound, seconds, min_reads) in [
        (51u64, 800, 12u64, 10),
        (52u64, 3 * 1_000 * MILLIS, 40u64, 4),
    ] {
        let retry = (4 * 1_000 * MILLIS).max(3 * bound);
        let rsm_cfg = ClockRsmConfig::default()
            .with_delta_us(Some(50 * MILLIS))
            .with_failure_detection(Some(2_000 * MILLIS));
        let mut cfg = ExperimentConfig::new(LatencyMatrix::uniform(3, 15_000))
            .seed(seed)
            .clients_per_site(2)
            .think_max_us(50 * MILLIS)
            .read_fraction(0.5)
            .clock(simnet::ClockModel::ntp(bound))
            .warmup_us(100 * MILLIS)
            .duration_us(seconds * 1_000 * MILLIS)
            .active_sites(vec![0])
            .client_retry_us(retry);
        // One mid-run crash/recover of a non-client replica.
        cfg = cfg
            .fault(3_000 * MILLIS, Fault::Crash(ReplicaId::new(2)))
            .fault(6_000 * MILLIS, Fault::Recover(ReplicaId::new(2)));
        let r = run_latency(ProtocolChoice::clock_rsm_with(rsm_cfg), &cfg);
        assert!(
            r.checks.all_ok(),
            "seed {seed} bound {bound}: {:?}",
            r.checks.violation
        );
        assert!(r.snapshots_agree, "seed {seed}: snapshots diverged");
        assert!(
            r.read_count > min_reads,
            "seed {seed} bound {bound}: reads starved under skew ({} replies)",
            r.read_count
        );
    }
}

/// Paxos election churn with a 50/50 read mix: leader crashes force
/// fail-overs while leader-lease reads and follower quorum reads are in
/// flight; every Get must stay linearizable (no stale values from a
/// deposed regime) and the full checker battery stays green.
#[test]
fn soak_paxos_elections_with_read_mix() {
    for seed in [61u64, 62] {
        let seconds = 14u64;
        let mut cfg = ExperimentConfig::new(LatencyMatrix::uniform(3, 15_000))
            .seed(seed)
            .clients_per_site(2)
            .think_max_us(50 * MILLIS)
            .read_fraction(0.5)
            .warmup_us(100 * MILLIS)
            .duration_us(seconds * 1_000 * MILLIS)
            .active_sites(vec![0])
            .client_retry_us(1_500 * MILLIS);
        for (at, f) in random_schedule(seed, 3, seconds) {
            cfg = cfg.fault(at, f);
        }
        let r = run_latency(
            ProtocolChoice::paxos_bcast_failover(1, LeaseConfig::after(400 * MILLIS)),
            &cfg,
        );
        assert!(r.checks.all_ok(), "seed {seed}: {:?}", r.checks.violation);
        assert!(r.snapshots_agree, "seed {seed}: snapshots diverged");
        assert!(
            r.read_count > 10 && r.write_count > 10,
            "seed {seed}: mix starved ({} reads / {} writes)",
            r.read_count,
            r.write_count
        );
    }
}

/// One Paxos soak round: the random schedule crashes replicas 1..n
/// (replica 0 hosts the clients), and the initial leader sits at 1 —
/// squarely inside the crash set — so every schedule that hits it forces
/// an election while load continues. Checkpoint compaction rides along:
/// logs must stay bounded even though the compaction watermark advances
/// under a sequence of different leaders.
fn paxos_soak(seed: u64, n: usize) {
    let seconds = 16u64;
    let mut cfg = ExperimentConfig::new(LatencyMatrix::uniform(n, 15_000))
        .seed(seed)
        .clients_per_site(2)
        .think_max_us(50 * MILLIS)
        .warmup_us(100 * MILLIS)
        .duration_us(seconds * 1_000 * MILLIS)
        .active_sites(vec![0])
        .checkpoint(CheckpointPolicy::every(32))
        // Snapshot installs (rejoins past retention) make per-replica
        // commit histories gappy, so the soak judges snapshots and log
        // bounds rather than per-op traces, like the long-outage suite.
        .record_ops(false)
        .client_retry_us(1_000 * MILLIS);
    for (at, f) in random_schedule(seed, n, seconds) {
        cfg = cfg.fault(at, f);
    }
    let r = run_latency(
        ProtocolChoice::paxos_bcast_failover(1, LeaseConfig::after(400 * MILLIS)),
        &cfg,
    );
    assert!(
        r.snapshots_agree,
        "seed {seed}: snapshots diverged after election churn; commits {:?}",
        r.commit_counts
    );
    assert!(
        r.commit_counts[0] > 50,
        "seed {seed}: site 0 made little progress ({:?})",
        r.commit_counts
    );
    // Compaction must keep firing under whichever leader is current.
    for (i, &len) in r.log_lens.iter().enumerate() {
        assert!(
            len < 1_500,
            "seed {seed}: log of replica {i} unbounded ({len} records \
             for {} commits)",
            r.commit_counts[0]
        );
    }
}

#[test]
fn soak_paxos_leader_crashes() {
    for seed in [21u64, 22, 23, 24] {
        paxos_soak(seed, 3);
    }
}

#[test]
fn soak_paxos_five_replicas() {
    for seed in [31u64, 32] {
        paxos_soak(seed, 5);
    }
}
