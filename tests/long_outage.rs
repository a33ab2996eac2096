//! Long-outage soak: a replica stays down while the cluster commits far
//! past what its compacted logs still hold, then recovers. Before
//! checkpoint transfer existed this was the unsound regime — a recovered
//! Paxos replica could never refill its committed holes, and a Mencius
//! peer whose holes an owner could no longer retransmit stalled forever.
//! With the shared checkpoint subsystem (periodic snapshots + log
//! compaction + the catch-up exchange, `rsm_core::checkpoint`), every
//! protocol must bring the replica back to a state machine
//! **byte-identical** to the never-crashed replicas, while compaction
//! keeps every stable log bounded regardless of how many commands
//! committed. Where the peers compact past the victim's commit point,
//! the victim must actually have installed a snapshot, or the run never
//! reached the regime it is named for. A recovered Mencius replica asks
//! each other owner for everything from its execution cursor: at
//! the default interval an owner's log still reaches back there and its
//! runs resync the victim; only at a short interval is the answer a
//! snapshot.

use clock_rsm::ClockRsmConfig;
use harness::{run_latency, ExperimentConfig, ExperimentResult, ProtocolChoice};
use rsm_core::checkpoint::CheckpointPolicy;
use rsm_core::time::MILLIS;
use rsm_core::LatencyMatrix;
use rsm_obs::ObsConfig;

/// The crashed replica (never 0 — that site hosts the clients).
const VICTIM: u16 = 1;
const DOWN_AT: u64 = 2_000 * MILLIS;
const UP_AT: u64 = 12_000 * MILLIS;
const DURATION: u64 = 20_000 * MILLIS;

/// Checkpoint every 32 commands and compact: small enough that the
/// 10-second outage spans many checkpoints.
fn policy() -> CheckpointPolicy {
    CheckpointPolicy::every(32)
}

fn outage_cfg(seed: u64) -> ExperimentConfig {
    outage_cfg_every(seed, policy())
}

fn outage_cfg_every(seed: u64, policy: CheckpointPolicy) -> ExperimentConfig {
    ExperimentConfig::new(LatencyMatrix::uniform(3, 10_000))
        .seed(seed)
        .clients_per_site(3)
        .think_max_us(10 * MILLIS)
        .active_sites(vec![0])
        .warmup_us(100 * MILLIS)
        .duration_us(DURATION)
        .checkpoint(policy)
        // Retries keep the closed loop alive across the outage (and, for
        // Mencius, keep proposals flowing while execution is stalled on
        // the dead peer's slots; with nothing executing, no checkpoint
        // compacts them out of the owner's log).
        .client_retry_us(500 * MILLIS)
        // Commit histories are gappy by design here (a snapshot install
        // skips per-command records), so run the soak on snapshots and
        // log bounds rather than per-op traces.
        .record_ops(false)
        // Counters only read back (observing never changes the run).
        .observe(ObsConfig::all())
        .long_outage(VICTIM, DOWN_AT, UP_AT)
}

/// The victim's counter `name`.
fn victim_count(r: &ExperimentResult, name: &str) -> u64 {
    let metrics = r.metrics.as_ref().expect("observed run");
    let key = format!("r{VICTIM}.{name}");
    metrics.counters.get(&key).copied().unwrap_or(0)
}

fn assert_recovered(r: &ExperimentResult, seed: u64, min_site0_commits: u64) {
    assert_converged(r, seed, min_site0_commits);
    assert!(
        victim_count(r, "catchup.snapshots_installed") >= 1,
        "{} seed {seed}: the victim recovered without installing a snapshot",
        r.protocol
    );
}

fn assert_converged(r: &ExperimentResult, seed: u64, min_site0_commits: u64) {
    assert!(
        r.snapshots_agree,
        "{} seed {seed}: recovered replica diverged; commits {:?}",
        r.protocol, r.commit_counts
    );
    assert!(
        r.commit_counts[0] >= min_site0_commits,
        "{} seed {seed}: too little progress ({:?})",
        r.protocol,
        r.commit_counts
    );
    assert!(
        r.commit_counts[VICTIM as usize] > 0,
        "{} seed {seed}: recovered replica never executed anything",
        r.protocol
    );
}

fn assert_log_bounded(r: &ExperimentResult, seed: u64) {
    // Without compaction the logs hold at least one record per command
    // (Paxos: accept + commit mark; Mencius: accept + commit/skip marks),
    // so they would exceed the commit count by construction. Bounded
    // means: a small multiple of the checkpoint interval plus pipeline
    // depth, not proportional to history length.
    let commits = r.commit_counts[0];
    for (i, &len) in r.log_lens.iter().enumerate() {
        assert!(
            (len as u64) < commits / 2,
            "{} seed {seed}: log of replica {i} not compacted \
             ({len} records for {commits} commits)",
            r.protocol
        );
        assert!(
            len < 1_500,
            "{} seed {seed}: log of replica {i} unbounded ({len} records)",
            r.protocol
        );
    }
}

#[test]
fn paxos_recovers_committed_holes_via_checkpoint_transfer() {
    // The victim follower loses every ACCEPT sent during the outage;
    // the commit watermark passes its holes, and only a peer's
    // checkpoint can fill them.
    for seed in [7u64, 8] {
        let r = run_latency(ProtocolChoice::paxos_bcast(0), &outage_cfg(seed));
        assert_recovered(&r, seed, 500);
        assert_log_bounded(&r, seed);
        let r = run_latency(ProtocolChoice::paxos(0), &outage_cfg(seed));
        assert_recovered(&r, seed, 500);
        assert_log_bounded(&r, seed);
    }
}

#[test]
fn mencius_peer_down_past_compaction_rejoins_and_commits() {
    // While the victim is down, cluster execution stalls on its slots,
    // but client retries keep the site-0 owner proposing. On rejoin the
    // victim asks each other owner for everything from its execution
    // cursor. Neither owner has compacted since the stall, so
    // both answer with runs read from their logs, and each answer
    // resyncs the victim with its owner: no snapshot, one resync per
    // owner, and at most two requests per owner (the executor may
    // re-ask once the cursor has moved).
    for seed in [21u64, 22, 23] {
        let r = run_latency(ProtocolChoice::mencius(), &outage_cfg(seed));
        // Mencius commits only outside the outage window (the dead
        // peer's slots gate execution), so expect less total progress.
        assert_converged(&r, seed, 100);
        assert_log_bounded(&r, seed);
        let requests = victim_count(&r, "catchup.requests");
        assert!(
            requests <= 2 * 2,
            "seed {seed}: {requests} catch-up requests"
        );
        assert_eq!(victim_count(&r, "mencius.resyncs"), 2, "seed {seed}");
    }
}

#[test]
fn mencius_rejoin_past_a_short_checkpoint_interval_installs_a_snapshot() {
    // Checkpointing every 2 commands, an owner's compacted log no longer
    // reaches back to the victim's cursor: the victim's first request
    // is answered with a snapshot, it asks again from the snapshot's
    // watermark, and the runs from there resync it. Before checkpoint
    // transfer existed, such a hole stalled it forever.
    for seed in [21u64, 22, 23] {
        let cfg = outage_cfg_every(seed, CheckpointPolicy::every(2));
        let r = run_latency(ProtocolChoice::mencius(), &cfg);
        assert_recovered(&r, seed, 100);
        assert_log_bounded(&r, seed);
    }
}

#[test]
fn clock_rsm_long_outage_recovers_from_durable_checkpoints() {
    // Clock-RSM handles the outage through reconfiguration (the victim
    // is removed, then rejoins via Algorithm 3 state transfer); the
    // checkpoint policy rides along so its local recovery starts from
    // the newest durable snapshot instead of a full replay. Its peers
    // compact past the victim's commit point, so its rejoin SUSPEND is
    // answered with a snapshot, and every log stays bounded.
    let rsm_cfg = ClockRsmConfig::default()
        .with_delta_us(Some(50 * MILLIS))
        .with_failure_detection(Some(400 * MILLIS));
    for seed in [31u64, 32] {
        let r = run_latency(ProtocolChoice::clock_rsm_with(rsm_cfg), &outage_cfg(seed));
        assert_recovered(&r, seed, 500);
        assert_log_bounded(&r, seed);
    }
}
