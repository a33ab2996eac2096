//! Committed reproducers from the chaos swarm, plus the pipeline's own
//! acceptance tests.
//!
//! Every `chaos_seed_*` test below is a schedule the swarm once failed,
//! minimized by the shrinker and rendered by
//! `rsm_chaos::SwarmFailure::reproducer`. They assert a **clean** run:
//! the bug each one caught is fixed, and the schedule pins it closed.
//! When the swarm finds a new failure, paste the rendered reproducer
//! here (it will fail), fix the bug, and keep the test.
//!
//! The canary tests exercise the pipeline itself: a deliberately
//! re-introduced, known-fixed bug (session dedup bypassed under client
//! retries — the PR-8 double-apply) must be found by the oracles and
//! shrunk to a tiny script, proving the fuzzer can still catch and
//! minimize that class of failure end to end.

use harness::Fault;
use rsm_chaos::{exec, gen, shrink, FailureKind, Knobs, ProtocolKind, Schedule, SwarmFailure};
use rsm_core::ReplicaId;

// ----------------------------------------------------------------------
// Committed reproducers (shrunk by the swarm, kept green)
// ----------------------------------------------------------------------

/// Auto-shrunk reproducer: seed 47 on clock-rsm failed the
/// `snapshot-divergence` oracle. Overlapping crash windows (r0 down
/// 810–1530 ms, r1 down 971–1972 ms): r0's rejoin reconfiguration
/// decided epoch 1 while r1 was still down, so r1's later rejoin was
/// satisfied by a stale decision catch-up and resumed without the
/// commands committed in epoch 1 during its outage. Fixed by keeping
/// `needs_rejoin` set until a decision built from the rejoiner's own
/// post-recovery SUSPEND collection wins.
#[test]
fn chaos_seed_47_clock_rsm_snapshot_divergence() {
    let schedule = Schedule {
        seed: 47,
        protocol: ProtocolKind::ClockRsm,
        knobs: Knobs {
            replicas: 3,
            clients_per_site: 1,
            read_pct: 0,
            cas_pct: 0,
            batch_max: 0,
            checkpoint_every: 0,
            session_window: 0,
            pre_vote: false,
            horizon_ms: 4_500,
            latency_us: 5_000,
            jitter_us: 0,
        },
        entries: vec![
            (810_356, Fault::Crash(ReplicaId::new(0))),
            (970_767, Fault::Crash(ReplicaId::new(1))),
            (1_529_631, Fault::Recover(ReplicaId::new(0))),
            (1_971_756, Fault::Recover(ReplicaId::new(1))),
        ],
        canary: false,
    };
    assert_eq!(exec::run(&schedule), None);
}

/// Swarm regression: seed 43 on mencius froze after staggered
/// double-crash windows. Two replicas desynced in overlapping recovery
/// windows and an execution-gated resync deadlocked (acks gate
/// execution, execution gated resync, resync gated acks). A recovered
/// replica now resyncs with each owner through one catch-up from its
/// execution cursor, which the owner answers from its own log whatever
/// the cluster's execution, and announces the restored acks at once.
#[test]
fn chaos_seed_43_mencius_resync_liveness() {
    assert_eq!(
        exec::run(&gen::generate_for(43, ProtocolKind::Mencius)),
        None
    );
}

// ----------------------------------------------------------------------
// Canary: the pipeline still catches and shrinks a known-fixed bug
// ----------------------------------------------------------------------

#[test]
fn canary_duplicate_is_found_and_shrinks_small() {
    let schedule = gen::canary(3, ProtocolKind::Paxos);
    let failure = exec::run(&schedule).expect("armed canary must trip an oracle");
    assert_eq!(failure.kind, FailureKind::Duplicate, "{}", failure.detail);

    let out = shrink::shrink(&schedule, &failure, 80);
    assert_eq!(out.failure.kind, FailureKind::Duplicate);
    assert!(
        out.minimized.entries.len() <= 8,
        "shrinker failed to converge: {} entries left: {:?}",
        out.minimized.entries.len(),
        out.minimized.entries
    );
    // The minimized schedule must still reproduce, and the rendered
    // reproducer must be a complete test function.
    let replay = exec::run(&out.minimized).expect("minimized canary must still fail");
    assert_eq!(replay.kind, FailureKind::Duplicate);
    let rendered = SwarmFailure {
        original: schedule.clone(),
        failure,
        shrunk: out,
    }
    .reproducer();
    assert!(rendered.contains("#[test]"));
    assert!(rendered.contains("rsm_chaos::exec::run(&schedule)"));

    // Same schedule with the canary disarmed: the session dedup window
    // absorbs the retries and every oracle passes — the bug this canary
    // resurrects really is fixed in the production path.
    let fixed = Schedule {
        canary: false,
        ..schedule
    };
    assert_eq!(exec::run(&fixed), None);
}

// ----------------------------------------------------------------------
// Determinism: same seed, same schedule, same failure, byte for byte
// ----------------------------------------------------------------------

#[test]
fn schedules_and_failures_replay_byte_for_byte() {
    for seed in [0u64, 9, 21] {
        assert_eq!(gen::generate(seed), gen::generate(seed), "seed {seed}");
    }
    let schedule = gen::canary(3, ProtocolKind::PaxosBcast);
    let a = exec::run(&schedule).expect("canary fails");
    let b = exec::run(&schedule).expect("canary fails again");
    assert_eq!(a.kind, b.kind);
    assert_eq!(
        a.detail, b.detail,
        "failure detail must replay byte for byte"
    );
}

// ----------------------------------------------------------------------
// Mini swarm: a slice of the CI chaos job inside the standard matrix
// ----------------------------------------------------------------------

#[test]
fn mini_swarm_passes_every_oracle() {
    let cfg = rsm_chaos::SwarmConfig {
        start_seed: 0,
        schedules: 3,
        protocols: ProtocolKind::ALL.to_vec(),
        shrink_budget: 40,
        max_failures: 1,
    };
    let report = rsm_chaos::swarm::run_swarm(&cfg, |_, _, _| {});
    assert_eq!(report.executed, 12);
    assert!(
        report.all_ok(),
        "swarm found failures:\n{}",
        report
            .failures
            .iter()
            .map(|f| f.reproducer())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
