//! Schedule execution and oracle evaluation.
//!
//! [`run`] turns a [`Schedule`] into a deterministic simulator run and
//! grades the result against every oracle the harness exposes: the
//! linearizability checkers, replica snapshot agreement, CAS-chain
//! integrity, log boundedness under compaction, and post-fault liveness.
//! A `None` return means the schedule passed; `Some(Failure)` carries a
//! stable [`FailureKind`] (the shrinker's fixed point) plus a
//! human-readable detail string.

use clock_rsm::ClockRsmConfig;
use harness::{run_latency, ExperimentConfig, ExperimentResult, ProtocolChoice};
use rsm_core::batch::BatchPolicy;
use rsm_core::checkpoint::CheckpointPolicy;
use rsm_core::lease::LeaseConfig;
use rsm_core::matrix::LatencyMatrix;
use rsm_core::time::{Micros, MILLIS};
use rsm_obs::ObsConfig;

use crate::gen::SETTLE_US;
use crate::schedule::{ProtocolKind, Schedule};

/// Warmup before the measured window opens.
pub const WARMUP_US: Micros = 100 * MILLIS;

/// Client retry timeout; well above any generated link delay so a retry
/// implies a genuinely lost reply, not an in-flight one.
const RETRY_US: Micros = 800 * MILLIS;

/// Initial Paxos leader (matches the failover test suite).
const PAXOS_LEADER: u16 = 1;

/// Compacted logs must stay under this many live entries; generated
/// horizons commit far more commands than this, so an uncompacted log
/// crosses it comfortably.
const LOG_BOUND: usize = 2_000;

/// What an oracle caught. The shrinker preserves this exact kind while
/// minimizing, so a shrunk reproducer still demonstrates the original
/// class of failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The same client command applied more than once on some replica.
    Duplicate,
    /// Replica histories are not fragments of one total order.
    TotalOrder,
    /// A replica's committed timestamps regressed.
    Monotonic,
    /// A commit violated real-time (issue/reply) ordering.
    RealTime,
    /// The client-observed history admits no linearization.
    Linearizability,
    /// Final replica state hashes diverged.
    SnapshotDivergence,
    /// A private-key CAS chain broke (lost or misordered write).
    CasChainBroken,
    /// A compacting replica's log grew without bound.
    LogUnbounded,
    /// Commits did not resume after the last fault cleared.
    Stalled,
    /// The instrumentation itself misbehaved: a counter decreased
    /// between the mid-run and final snapshots, or a replica's
    /// executed-command counter disagrees with its commit history
    /// length (the basis of the total-order check).
    MetricRegression,
}

impl FailureKind {
    /// Short name used in artifacts and test labels.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Duplicate => "duplicate",
            FailureKind::TotalOrder => "total-order",
            FailureKind::Monotonic => "monotonic",
            FailureKind::RealTime => "real-time",
            FailureKind::Linearizability => "linearizability",
            FailureKind::SnapshotDivergence => "snapshot-divergence",
            FailureKind::CasChainBroken => "cas-chain-broken",
            FailureKind::LogUnbounded => "log-unbounded",
            FailureKind::Stalled => "stalled",
            FailureKind::MetricRegression => "metric-regression",
        }
    }
}

/// A graded oracle violation. `detail` is deterministic for a given
/// schedule — the same seed reproduces it byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Which oracle fired.
    pub kind: FailureKind,
    /// Deterministic human-readable evidence.
    pub detail: String,
}

/// Maps a schedule's protocol to the harness cluster choice, with the
/// failure-handling configuration each protocol needs to survive the
/// generated fault programs.
pub fn protocol_choice(s: &Schedule) -> ProtocolChoice {
    let lease = if s.knobs.pre_vote {
        LeaseConfig::after(400 * MILLIS).with_pre_vote()
    } else {
        LeaseConfig::after(400 * MILLIS)
    };
    match s.protocol {
        ProtocolKind::ClockRsm => ProtocolChoice::clock_rsm_with(
            ClockRsmConfig::default()
                .with_delta_us(Some(50 * MILLIS))
                .with_failure_detection(Some(400 * MILLIS)),
        ),
        ProtocolKind::Paxos => ProtocolChoice::paxos_failover(PAXOS_LEADER, lease),
        ProtocolKind::PaxosBcast => ProtocolChoice::paxos_bcast_failover(PAXOS_LEADER, lease),
        // With `checkpoint_every` set, compaction bounds how far back
        // an owner's catch-up runs reach, which puts the snapshot arm of
        // the catch-up exchange under the swarm.
        ProtocolKind::Mencius => ProtocolChoice::mencius(),
    }
}

/// Maps a schedule to the harness experiment configuration.
pub fn experiment_config(s: &Schedule) -> ExperimentConfig {
    let k = &s.knobs;
    let mut cfg = ExperimentConfig::new(LatencyMatrix::uniform(k.replicas, k.latency_us))
        .seed(s.seed)
        .jitter_us(k.jitter_us)
        .clients_per_site(k.clients_per_site)
        .think_max_us(30 * MILLIS)
        .warmup_us(WARMUP_US)
        .duration_us(k.horizon_ms * MILLIS)
        .read_fraction(f64::from(k.read_pct) / 100.0)
        .cas_fraction(f64::from(k.cas_pct) / 100.0)
        .client_retry_us(RETRY_US)
        .record_ops(true)
        .session_canary(s.canary)
        // Every chaos run is instrumented (full span sampling), so the
        // swarm fuzzes the observability layer alongside the protocols:
        // the metric oracle below grades the counters it produces.
        // Simnet guarantees an instrumented and a plain run of one seed
        // are the same execution (`SimConfig::observe`), so what the
        // swarm searches is what runs untraced.
        .observe(ObsConfig::all());
    if k.batch_max > 0 {
        cfg = cfg.batch(BatchPolicy::max(k.batch_max));
    }
    if k.checkpoint_every > 0 {
        cfg = cfg.checkpoint(CheckpointPolicy::every(k.checkpoint_every));
    }
    if k.session_window > 0 {
        cfg = cfg.session_window(k.session_window);
    }
    for &(at, f) in &s.entries {
        cfg = cfg.fault(at, f);
    }
    cfg
}

/// Executes a schedule and grades it. Deterministic: the same schedule
/// returns the same outcome, byte for byte.
pub fn run(s: &Schedule) -> Option<Failure> {
    let result = run_latency(protocol_choice(s), &experiment_config(s));
    evaluate(s, &result)
}

/// Grades an experiment result against every oracle, most specific
/// first. The ordering makes the failure kind stable under shrinking:
/// e.g. a duplicate apply can knock several checkers over, but it is
/// always classified as [`FailureKind::Duplicate`].
pub fn evaluate(s: &Schedule, r: &ExperimentResult) -> Option<Failure> {
    let violation = || r.checks.violation.clone().unwrap_or_default();
    if !r.checks.no_duplicates_ok {
        return Some(Failure {
            kind: FailureKind::Duplicate,
            detail: violation(),
        });
    }
    if !r.checks.total_order_ok {
        return Some(Failure {
            kind: FailureKind::TotalOrder,
            detail: violation(),
        });
    }
    if !r.checks.monotonic_ok {
        return Some(Failure {
            kind: FailureKind::Monotonic,
            detail: violation(),
        });
    }
    if !r.checks.real_time_ok {
        return Some(Failure {
            kind: FailureKind::RealTime,
            detail: violation(),
        });
    }
    if !r.checks.linearizable_ok {
        return Some(Failure {
            kind: FailureKind::Linearizability,
            detail: violation(),
        });
    }
    if !r.snapshots_agree {
        return Some(Failure {
            kind: FailureKind::SnapshotDivergence,
            detail: format!(
                "replica state hashes diverged (commits {:?})",
                r.commit_counts
            ),
        });
    }
    if r.cas_failures > 0 {
        return Some(Failure {
            kind: FailureKind::CasChainBroken,
            detail: format!(
                "{} of {} private-key CAS ops failed",
                r.cas_failures, r.cas_count
            ),
        });
    }
    if s.knobs.checkpoint_every > 0 {
        if let Some((i, &len)) = r
            .log_lens
            .iter()
            .enumerate()
            .find(|&(_, &len)| len > LOG_BOUND)
        {
            return Some(Failure {
                kind: FailureKind::LogUnbounded,
                detail: format!(
                    "replica {i} holds {len} log entries despite compaction \
                     every {} commits",
                    s.knobs.checkpoint_every
                ),
            });
        }
    }
    // Liveness: the generator clears every fault effect SETTLE_US before
    // the end of the horizon, so commits must flow in the final stretch.
    let end = WARMUP_US + s.knobs.horizon_ms * MILLIS;
    let tail = end - MILLIS * 1_000;
    let alive = (0..r.commit_times.len()).any(|i| r.last_commit_at(i).is_some_and(|t| t >= tail));
    if !alive {
        return Some(Failure {
            kind: FailureKind::Stalled,
            detail: format!(
                "no commits after t={tail}us (last fault at t={}us, settle {}us)",
                s.last_fault_at(),
                SETTLE_US
            ),
        });
    }
    // The instrumentation oracle (graded only on observed runs):
    // counters are monotone — the final snapshot can never be below the
    // mid-run one — and each replica's executed-command counter must
    // equal its commit count, the history length every ordering check
    // above was graded on. Crash-recovery replays count on both sides,
    // so the equality survives any fault program.
    if let (Some(mid), Some(fin)) = (&r.metrics_mid, &r.metrics) {
        for (name, &at_mid) in &mid.counters {
            let at_end = fin.counters.get(name).copied().unwrap_or(0);
            if at_end < at_mid {
                return Some(Failure {
                    kind: FailureKind::MetricRegression,
                    detail: format!("counter {name} regressed {at_mid} -> {at_end}"),
                });
            }
        }
        for (i, &commits) in r.commit_counts.iter().enumerate() {
            let counted = fin
                .counters
                .get(&format!("r{i}.commands.executed"))
                .copied()
                .unwrap_or(0);
            if counted != commits {
                return Some(Failure {
                    kind: FailureKind::MetricRegression,
                    detail: format!(
                        "replica {i}: executed-command counter {counted} != \
                         commit history length {commits}"
                    ),
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Knobs;
    use harness::Fault;
    use rsm_core::ReplicaId;

    fn quick_knobs() -> Knobs {
        Knobs {
            replicas: 3,
            clients_per_site: 2,
            read_pct: 20,
            cas_pct: 20,
            batch_max: 0,
            checkpoint_every: 0,
            session_window: 0,
            pre_vote: false,
            horizon_ms: 4_000,
            latency_us: 5_000,
            jitter_us: 0,
        }
    }

    #[test]
    fn clean_schedules_pass_every_oracle() {
        for protocol in ProtocolKind::ALL {
            let s = Schedule {
                seed: 11,
                protocol,
                knobs: quick_knobs(),
                entries: vec![],
                canary: false,
            };
            assert_eq!(run(&s), None, "{}", protocol.name());
        }
    }

    /// A partition between site 0's clients and the leader (replica 1):
    /// the forwarded command and its retries stack behind the cut and
    /// are all decided at heal — duplicates iff dedup is bypassed.
    fn canary_schedule(protocol: ProtocolKind) -> Schedule {
        Schedule {
            seed: 3,
            protocol,
            knobs: Knobs {
                horizon_ms: 5_500,
                ..quick_knobs()
            },
            entries: vec![
                (
                    1_200 * MILLIS,
                    Fault::Partition(ReplicaId::new(0), ReplicaId::new(1)),
                ),
                (
                    2_700 * MILLIS,
                    Fault::Heal(ReplicaId::new(0), ReplicaId::new(1)),
                ),
            ],
            canary: true,
        }
    }

    #[test]
    fn canary_partition_schedule_trips_the_duplicate_oracle() {
        for protocol in [ProtocolKind::Paxos, ProtocolKind::PaxosBcast] {
            let s = canary_schedule(protocol);
            let failure = run(&s).expect("canary must fail");
            assert_eq!(failure.kind, FailureKind::Duplicate, "{}", failure.detail);
            // Same schedule, canary disarmed: the dedup window absorbs
            // the retries and every oracle passes.
            let fixed = Schedule { canary: false, ..s };
            assert_eq!(run(&fixed), None, "{}", protocol.name());
        }
    }

    #[test]
    fn failures_replay_byte_for_byte() {
        let s = canary_schedule(ProtocolKind::PaxosBcast);
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a, b);
        assert!(a.is_some());
    }
}
